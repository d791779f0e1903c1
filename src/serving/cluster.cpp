#include "serving/cluster.h"

#include <cassert>

namespace sdm {

StickyRouter::StickyRouter(size_t num_hosts, RoutingPolicy policy, uint64_t seed)
    : num_hosts_(num_hosts), policy_(policy), rng_(seed) {
  assert(num_hosts >= 1);
}

size_t StickyRouter::Route(UserId user) const {
  if (policy_ == RoutingPolicy::kRandom) {
    return static_cast<size_t>(rng_.NextBounded(num_hosts_));
  }
  // kUserSticky; kLocal never reaches the router (the cluster keeps those
  // arrivals where they land), so the hash is a safe default.
  return static_cast<size_t>(Mix64(user) % num_hosts_);
}

ClusterSimulation::ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                                     RoutingPolicy policy,
                                     const DisaggregatedConfig& disaggregated)
    : base_config_(host_config),
      router_(num_hosts, policy, host_config.seed ^ 0xc1u),
      hosts_(num_hosts) {
  if (base_config_.tuning.obs.enabled()) {
    // One instance for the whole cluster; see ObsMetricsJson.
    obs_ = std::make_unique<Observability>(base_config_.tuning.obs);
  }
  if (!disaggregated.enabled) return;

  FabricServiceConfig fcfg;
  for (const auto& ssd : base_config_.host.ssds) {
    fcfg.device.sm_specs.push_back(ssd);
    fcfg.device.sm_backing_bytes.push_back(base_config_.sm_backing_per_device);
  }
  fcfg.device.tuning = base_config_.tuning;
  fcfg.device.seed = base_config_.seed;
  fcfg.device.obs = obs_.get();
  fcfg.device.obs_prefix = "svc/";
  fcfg.link.latency = base_config_.tuning.fabric_latency;
  fcfg.link.bandwidth_bytes_per_sec = base_config_.tuning.fabric_bandwidth_bytes_per_sec;
  fcfg.link.queueing = base_config_.tuning.fabric_queueing;
  fabric_ = std::make_unique<FabricAttachedService>(std::move(fcfg), &loop_);
}

uint64_t ClusterSimulation::HostSalt(size_t i) const {
  // A cluster of one is a HostSimulation, seeded as the config says.
  return size() == 1 ? 0 : Mix64(i + 0x7e0a);
}

Status ClusterSimulation::LoadModel(const ModelConfig& model) {
  const std::vector<HostRole> roles(size(), HostRole{model, base_config_.fm_capacity});
  return LoadModels(roles);
}

Status ClusterSimulation::LoadModels(std::span<const HostRole> roles) {
  if (roles.size() != size()) return InvalidArgumentError("one role per host");
  if (!hosts_.empty() && hosts_[0].store != nullptr) {
    return FailedPreconditionError("model already loaded");
  }
  if (disaggregated()) {
    if (Status s = base_config_.tuning.ValidateForDisaggregated(); !s.ok()) return s;
    if (fabric_->device_service().device_count() == 0) {
      return FailedPreconditionError("disaggregated cluster needs a host spec with SSDs");
    }
  }
  for (size_t i = 0; i < size(); ++i) {
    SdmStoreConfig scfg;
    scfg.fm_capacity = roles[i].fm_capacity;
    scfg.tuning = base_config_.tuning;
    scfg.seed = base_config_.seed ^ HostSalt(i);
    scfg.tenant_class = roles[i].cls;
    if (disaggregated()) {
      scfg.shared_device = &fabric_->device_service();
      scfg.tenant_id = fabric_->AttachHost(roles[i].cls);
    } else {
      scfg.sm_specs = base_config_.host.ssds;
      scfg.sm_backing_bytes.assign(scfg.sm_specs.size(), base_config_.sm_backing_per_device);
    }
    scfg.obs = obs_.get();
    scfg.obs_prefix = "host" + std::to_string(i) + "/";
    hosts_[i].model_name = roles[i].model.name;
    hosts_[i].store = std::make_unique<SdmStore>(scfg, &loop_);
  }

  // One pass per distinct model: each table is built once, the first host
  // serving it places it and every other one attaches to that extent.
  std::vector<bool> loaded(size(), false);
  for (size_t i = 0; i < size(); ++i) {
    if (loaded[i]) continue;
    std::vector<SdmStore*> stores;
    for (size_t j = i; j < size(); ++j) {
      if (loaded[j] || !(roles[j].model == roles[i].model)) continue;
      stores.push_back(hosts_[j].store.get());
      loaded[j] = true;
    }
    auto reports = ModelLoader::LoadReplicas(roles[i].model, base_config_.loader, stores);
    if (!reports.ok()) return reports.status();
  }

  for (size_t i = 0; i < size(); ++i) {
    Host& h = hosts_[i];
    h.engine = std::make_unique<InferenceEngine>(h.store.get(), roles[i].model,
                                                 HostInferenceConfig(base_config_));
    WorkloadConfig wcfg = base_config_.workload;
    wcfg.seed = base_config_.workload.seed ^ HostSalt(i);
    h.workload = std::make_unique<QueryGenerator>(roles[i].model, wcfg);
  }
  return Status::Ok();
}

ClusterRunReport ClusterSimulation::Run(double total_qps, uint64_t num_queries) {
  assert(total_qps > 0);
  if (hosts_.empty() || hosts_[0].engine == nullptr) return {};
  const size_t n = size();
  std::vector<MeteredHost> metered;
  std::vector<ArrivalParticipant> participants;
  for (size_t i = 0; i < n; ++i) {
    Host& h = hosts_[i];
    metered.push_back(MeteredHost{h.store.get(), h.engine.get(), base_config_.host.cores()});
    const uint64_t arrival_seed =
        disaggregated() ? base_config_.seed ^ Mix64(i + 1) ^ 0xa11e
                        : base_config_.seed ^ HostSalt(i) ^ 0xa11e;
    participants.push_back(ArrivalParticipant{h.engine.get(), h.workload.get(), arrival_seed,
                                              num_queries / n + (i < num_queries % n ? 1 : 0)});
  }
  const RunMeter meter(std::move(metered), fabric_.get());
  const double qps_each = total_qps / static_cast<double>(n);
  const std::vector<ArrivalStats> stats = RunInterleavedArrivals(
      loop_, participants, qps_each, [this](size_t source, const Query& q) {
        return router_.policy() == RoutingPolicy::kLocal ? source : router_.Route(q.user);
      });

  ClusterRunReport report = meter.Finish(stats, qps_each);
  for (size_t i = 0; i < n; ++i) report.hosts[i].model_name = hosts_[i].model_name;
  report.fm_capacity = base_config_.fm_capacity;
  // Without SM every host's SM bytes would need FM instead.
  report.fits_in_fm = report.fm_total + report.sm_logical_bytes <= report.fm_capacity;
  return report;
}

std::string ClusterSimulation::ObsMetricsJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->MetricsJson();
}

std::string ClusterSimulation::ObsTraceJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->TraceJson();
}

std::string ClusterSimulation::ObsSloJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->SloJson();
}

HostSimulation::HostSimulation(const HostSimConfig& config)
    : ClusterSimulation(1, config, RoutingPolicy::kLocal) {}

HostRunReport HostSimulation::Run(double target_qps, uint64_t num_queries) {
  ClusterRunReport report = ClusterSimulation::Run(target_qps, num_queries);
  assert(report.hosts.size() == 1);  // LoadModel ran
  return std::move(report.hosts.front().run);
}

void HostSimulation::Warmup(uint64_t n, double qps) {
  (void)Run(qps, n);
}

double HostSimulation::FindMaxQps(SimDuration sla, bool use_p99, uint64_t queries_per_probe,
                                  double qps_lo, double qps_hi) {
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
