#include "serving/host.h"

#include <cassert>

namespace sdm {

HostSpec MakeHwL() {
  HostSpec h;
  h.name = "HW-L";
  h.cpu_sockets = 2;
  h.dram = 256 * kGiB;
  h.power = 1.0;
  h.dense_flops = 2.0e10;  // per-core
  return h;
}

HostSpec MakeHwS() {
  HostSpec h;
  h.name = "HW-S";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.power = 0.15;  // 0.25 of an HW-AN (0.6) in Table 9's normalization
  h.dense_flops = 2.0e10;
  return h;
}

HostSpec MakeHwSS() {
  HostSpec h;
  h.name = "HW-SS";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.ssds = {MakeNandFlashSpec(2000 * kGiB), MakeNandFlashSpec(2000 * kGiB)};
  h.power = 0.4;  // Table 8
  h.dense_flops = 2.0e10;
  return h;
}

HostSpec MakeHwAN() {
  HostSpec h;
  h.name = "HW-AN";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.ssds = {MakeNandFlashSpec(1000 * kGiB), MakeNandFlashSpec(1000 * kGiB)};
  h.accelerator = true;
  h.power = 0.6;  // accelerated host; Table 9 normalizes this to 1.0
  h.dense_flops = 2.0e12;  // accelerator executes the dense part
  return h;
}

HostSpec MakeHwAO() {
  HostSpec h = MakeHwAN();
  h.name = "HW-AO";
  h.ssds = {MakeOptaneSsdSpec(400 * kGiB), MakeOptaneSsdSpec(400 * kGiB)};
  h.power = 0.6;  // Optane SSDs add ~nothing at host scale
  return h;
}

HostSpec MakeHwF() {
  HostSpec h;
  h.name = "HW-FA";
  h.cpu_sockets = 2;
  h.dram = 256 * kGiB;
  h.accelerator = true;
  h.power = 1.0;
  h.dense_flops = 2.0e13;  // next-gen accelerator
  return h;
}

HostSpec MakeHwFAO(int num_optane_ssds) {
  HostSpec h = MakeHwF();
  h.name = "HW-FAO";
  for (int i = 0; i < num_optane_ssds; ++i) {
    h.ssds.push_back(MakeOptaneSsdSpec(400 * kGiB));
  }
  // Table 11: the Optane complement costs ~1% of host power.
  h.power = 1.01;
  return h;
}

InferenceConfig HostInferenceConfig(const HostSimConfig& config) {
  InferenceConfig icfg = config.inference;
  icfg.accelerator = config.host.accelerator;
  icfg.dense.flops_per_sec = config.host.dense_flops;
  // One in-flight query occupies roughly one core; defaulting the admission
  // limit to the core count makes Eq. 5's compute bound emerge from the
  // simulation instead of being bolted on.
  if (icfg.max_concurrent_queries <= 0) {
    icfg.max_concurrent_queries = config.host.cores();
  }
  return icfg;
}

HostSimulation::HostSimulation(HostSimConfig config) : config_(std::move(config)) {}

Status HostSimulation::LoadModel(const ModelConfig& model) {
  if (loaded_) return FailedPreconditionError("model already loaded");
  model_ = model;

  SdmStoreConfig scfg;
  scfg.fm_capacity = config_.fm_capacity;
  for (const auto& ssd : config_.host.ssds) {
    scfg.sm_specs.push_back(ssd);
    scfg.sm_backing_bytes.push_back(config_.sm_backing_per_device);
  }
  scfg.tuning = config_.tuning;
  scfg.seed = config_.seed;
  if (config_.tuning.obs.enabled()) {
    obs_ = std::make_unique<Observability>(config_.tuning.obs);
    scfg.obs = obs_.get();
    scfg.obs_prefix = "host0/";
  }
  store_ = std::make_unique<SdmStore>(scfg, &loop_);

  auto report = ModelLoader::Load(model_, config_.loader, store_.get());
  if (!report.ok()) return report.status();

  engine_ = std::make_unique<InferenceEngine>(store_.get(), model_, HostInferenceConfig(config_));
  workload_ = std::make_unique<QueryGenerator>(model_, config_.workload);
  loaded_ = true;
  return Status::Ok();
}

void HostSimulation::Warmup(uint64_t n, double qps) {
  (void)Run(qps, n);
}

HostRunReport HostSimulation::Run(double target_qps, uint64_t num_queries) {
  assert(loaded_);
  assert(target_qps > 0);
  // Caches stay warm across runs; the meter turns cumulative counters into
  // this run's deltas.
  const RunMeter meter({MeteredHost{store_.get(), engine_.get(), config_.host.cores()}},
                       /*fabric=*/nullptr);
  const ArrivalParticipant self{engine_.get(), workload_.get(), config_.seed ^ 0xa11e,
                                num_queries};
  const std::vector<ArrivalStats> stats = RunInterleavedArrivals(
      loop_, std::span(&self, 1), target_qps, [](size_t source, const Query&) { return source; });
  return meter.Finish(stats, target_qps).hosts.front().run;
}

std::string HostSimulation::ObsMetricsJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->MetricsJson();
}

std::string HostSimulation::ObsTraceJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->TraceJson();
}

std::string HostSimulation::ObsSloJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->SloJson();
}

double HostSimulation::FindMaxQps(SimDuration sla, bool use_p99, uint64_t queries_per_probe,
                                  double qps_lo, double qps_hi) {
  assert(loaded_);
  // A probe passes when the SLA percentile holds. Saturation shows up as a
  // growing admission backlog inflating the percentile within the probe
  // (the measured span includes queue drain), so latency alone is the
  // signal; an explicit achieved-rate check would be biased by the drain
  // tail at small probe sizes.
  auto passes = [&](double qps) {
    const HostRunReport r = Run(qps, queries_per_probe);
    const SimDuration lat = use_p99 ? r.p99 : r.p95;
    return lat <= sla;
  };
  if (!passes(qps_lo)) return 0;
  if (passes(qps_hi)) return qps_hi;
  for (int iter = 0; iter < 12; ++iter) {
    const double mid = 0.5 * (qps_lo + qps_hi);
    if (passes(mid)) {
      qps_lo = mid;
    } else {
      qps_hi = mid;
    }
  }
  return qps_lo;
}

}  // namespace sdm
