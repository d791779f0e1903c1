#include "serving/host.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "common/kv_format.h"
#include "common/logging.h"
#include "fault/replication_manager.h"

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
  load_report_ = std::move(report).value();

  InferenceConfig icfg = config_.inference;
  icfg.accelerator = config_.host.accelerator;
  icfg.dense.flops_per_sec = config_.host.dense_flops;
  // One in-flight query occupies roughly one core; defaulting the admission
  // limit to the core count makes Eq. 5's compute bound emerge from the
  // simulation instead of being bolted on.
  if (icfg.max_concurrent_queries <= 0) {
    icfg.max_concurrent_queries = config_.host.cores();
  }
  engine_ = std::make_unique<InferenceEngine>(store_.get(), model_, icfg);
  workload_ = std::make_unique<QueryGenerator>(model_, config_.workload);
  loaded_ = true;
  return Status::Ok();
}

void HostSimulation::Warmup(uint64_t n, double qps) {
  (void)Run(qps, n);
}

HostRunReport HostSimulation::Run(double target_qps, uint64_t num_queries) {
  return RunInternal(target_qps, num_queries, [this] { return workload_->Next(); });
}

HostRunReport HostSimulation::RunUsers(std::span<const UserId> users, double target_qps) {
  size_t cursor = 0;
  return RunInternal(target_qps, users.size(), [this, users, cursor]() mutable {
    return workload_->ForUser(users[cursor++]);
  });
}

HostRunReport HostSimulation::RunInternal(double target_qps, uint64_t num_queries,
                                          const std::function<Query()>& next_query) {
  assert(loaded_);
  assert(target_qps > 0);

  // Reset measurement state; keep caches warm.
  const uint64_t cache_hits0 =
      store_->row_cache() != nullptr ? store_->row_cache()->stats().hits : 0;
  const uint64_t cache_miss0 =
      store_->row_cache() != nullptr ? store_->row_cache()->stats().misses : 0;
  uint64_t sm_reads0 = 0;
  for (size_t d = 0; d < store_->sm_device_count(); ++d) {
    sm_reads0 += store_->sm_device(d).stats().CounterValue("reads");
  }
  const uint64_t pooled_hits0 =
      store_->pooled_cache() != nullptr ? store_->pooled_cache()->stats().hits : 0;
  const uint64_t pooled_total0 =
      store_->pooled_cache() != nullptr
          ? store_->pooled_cache()->stats().hits + store_->pooled_cache()->stats().misses +
                store_->pooled_cache()->stats().uncacheable
          : 0;
  const CrossRequestIoStats xreq0 = store_->cross_request_io_stats();
  const PrefetchStats pf0 = store_->prefetch_stats();
  // Robustness counters are cumulative too; snapshot for per-run deltas.
  const uint64_t lk_retries0 = engine_->lookups().stats().CounterValue("io_retries");
  const uint64_t rows_failed0 = engine_->lookups().stats().CounterValue("rows_failed");
  const uint64_t shed0 = engine_->lookups().stats().CounterValue("shed_lookups");
  const uint64_t replica0 = engine_->lookups().stats().CounterValue("replica_reads");
  const uint64_t repairs0 = engine_->lookups().stats().CounterValue("read_repairs");
  uint64_t dev_errors0 = 0;
  uint64_t corrupt0 = 0;
  for (size_t d = 0; d < store_->sm_device_count(); ++d) {
    dev_errors0 += store_->io_engine(d).stats().CounterValue("errors");
    corrupt0 += store_->sm_device(d).stats().CounterValue("blocks_corrupt");
  }
  const ReplicationManager* repl = store_->device_service().replication();
  const uint64_t replicated0 = repl != nullptr ? repl->extents_replicated() : 0;
  // CPU accounting is cumulative across runs; snapshot for per-run deltas.
  uint64_t cpu0 = static_cast<uint64_t>(engine_->lookups().cpu_time().nanos()) +
                  engine_->stats().CounterValue("cpu_ns");
  for (size_t d = 0; d < store_->sm_device_count(); ++d) {
    cpu0 += static_cast<uint64_t>(store_->io_engine(d).cpu_time().nanos());
  }

  Histogram latencies;
  uint64_t completed = 0;
  uint64_t degraded = 0;
  Rng arrivals(config_.seed ^ 0xa11e);

  const SimTime t_begin = loop_.Now();
  SimTime next_arrival = loop_.Now();
  for (uint64_t i = 0; i < num_queries; ++i) {
    next_arrival += Seconds(arrivals.NextExponential(1.0 / target_qps));
    loop_.ScheduleAt(next_arrival, [this, &latencies, &completed, &degraded, &next_query] {
      const Query q = next_query();
      engine_->Submit(q, [&latencies, &completed,
                          &degraded](Status status, const QueryTrace& trace) {
        if (status.ok()) {
          latencies.Record(trace.total);
          ++completed;
          if (trace.degraded) ++degraded;
        }
      });
    });
  }
  loop_.RunUntilIdle();
  const SimTime t_end = loop_.Now();

  HostRunReport r;
  r.queries_completed = completed;
  r.queries_served = num_queries;
  r.offered_qps = target_qps;
  const double span_s = (t_end - t_begin).seconds();
  r.achieved_qps = span_s > 0 ? static_cast<double>(completed) / span_s : 0;
  r.p50 = SimDuration(latencies.P50());
  r.p95 = SimDuration(latencies.P95());
  r.p99 = SimDuration(latencies.P99());
  r.mean = SimDuration(static_cast<int64_t>(latencies.mean()));

  if (store_->row_cache() != nullptr) {
    const auto& cs = store_->row_cache()->stats();
    const uint64_t h = cs.hits - cache_hits0;
    const uint64_t m = cs.misses - cache_miss0;
    r.row_cache_hit_rate = (h + m) == 0 ? 0 : static_cast<double>(h) / static_cast<double>(h + m);
  }
  if (store_->pooled_cache() != nullptr) {
    const auto& ps = store_->pooled_cache()->stats();
    const uint64_t hits = ps.hits - pooled_hits0;
    const uint64_t total = (ps.hits + ps.misses + ps.uncacheable) - pooled_total0;
    r.pooled_hit_rate = total == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(total);
  }
  uint64_t sm_reads1 = 0;
  double amp_num = 0;
  double amp_den = 0;
  for (size_t d = 0; d < store_->sm_device_count(); ++d) {
    const auto& st = store_->sm_device(d).stats();
    sm_reads1 += st.CounterValue("reads");
    amp_num += static_cast<double>(st.CounterValue("bus_bytes"));
    amp_den += static_cast<double>(st.CounterValue("useful_bytes"));
  }
  r.sm_iops = span_s > 0 ? static_cast<double>(sm_reads1 - sm_reads0) / span_s : 0;
  r.sm_read_amplification = amp_den > 0 ? amp_num / amp_den : 1.0;
  const CrossRequestIoStats xreq =
      store_->cross_request_io_stats().Since(xreq0);  // this run's delta
  r.cross_request_merges = xreq.cross_request_merges;
  r.singleflight_hits = xreq.singleflight_hits;
  r.batch_occupancy = xreq.BatchOccupancy();
  const PrefetchStats pf1 = store_->prefetch_stats();
  r.prefetch_issued = pf1.rows_issued - pf0.rows_issued;
  // Claims can lag issues across runs (rows issued during warmup may be
  // claimed here), so the per-run ratio is clamped to [0,1].
  const uint64_t pf_hits = pf1.rows_hit - pf0.rows_hit;
  r.prefetch_hit_rate =
      r.prefetch_issued == 0
          ? 0
          : std::min(1.0, static_cast<double>(pf_hits) /
                              static_cast<double>(r.prefetch_issued));
  const uint64_t pf_bytes = pf1.bytes_issued - pf0.bytes_issued;
  const uint64_t pf_bytes_hit = pf1.bytes_hit - pf0.bytes_hit;
  r.prefetch_wasted_bytes = pf_bytes > pf_bytes_hit ? pf_bytes - pf_bytes_hit : 0;
  // Robustness deltas (src/fault): device errors, retry traffic, deadline /
  // hedge responses, and what graceful degradation cost in row fidelity.
  r.io_retries = engine_->lookups().stats().CounterValue("io_retries") - lk_retries0;
  r.rows_failed = engine_->lookups().stats().CounterValue("rows_failed") - rows_failed0;
  r.lookups_shed = engine_->lookups().stats().CounterValue("shed_lookups") - shed0;
  r.replica_reads = engine_->lookups().stats().CounterValue("replica_reads") - replica0;
  r.read_repairs = engine_->lookups().stats().CounterValue("read_repairs") - repairs0;
  for (size_t d = 0; d < store_->sm_device_count(); ++d) {
    r.io_errors += store_->io_engine(d).stats().CounterValue("errors");
    r.blocks_corrupt += store_->sm_device(d).stats().CounterValue("blocks_corrupt");
  }
  r.io_errors -= dev_errors0;
  r.blocks_corrupt -= corrupt0;
  if (repl != nullptr) r.extents_replicated = repl->extents_replicated() - replicated0;
  r.deadline_expired = xreq.deadline_expired;
  r.hedges_issued = xreq.hedges_issued;
  r.hedges_won = xreq.hedges_won;
  r.queries_degraded = degraded;
  // Per-run CPU: operator-side (lookup engine + dense) plus IO-engine CPU.
  uint64_t cpu1 = static_cast<uint64_t>(engine_->lookups().cpu_time().nanos()) +
                  engine_->stats().CounterValue("cpu_ns");
  for (size_t d = 0; d < store_->sm_device_count(); ++d) {
    cpu1 += static_cast<uint64_t>(store_->io_engine(d).cpu_time().nanos());
  }
  const uint64_t q = std::max<uint64_t>(1, completed);
  r.avg_cpu_per_query = SimDuration(static_cast<int64_t>((cpu1 - cpu0) / q));
  const double cores = config_.host.cores();
  r.cpu_qps_bound = r.avg_cpu_per_query.nanos() > 0
                        ? cores * 1e9 / static_cast<double>(r.avg_cpu_per_query.nanos())
                        : 0;
  return r;
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

std::string HostRunReport::Summary() const {
  KvFormatter f;
  f.Kv("qps", "%.0f/%.0f", achieved_qps, offered_qps)
      .Kv("p50", "%.2fms", p50.millis())
      .Kv("p95", "%.2fms", p95.millis())
      .Kv("p99", "%.2fms", p99.millis())
      .Kv("hit", "%.1f%%", row_cache_hit_rate * 100)
      .Kv("pooled", "%.1f%%", pooled_hit_rate * 100)
      .Kv("iops", "%.0f", sm_iops)
      .Kv("amp", "%.2f", sm_read_amplification)
      .Kv("cpu/q", "%.0fus", avg_cpu_per_query.micros())
      .Kv("sf", "%llu", static_cast<unsigned long long>(singleflight_hits))
      .Kv("xmerge", "%llu", static_cast<unsigned long long>(cross_request_merges))
      .Kv("occ", "%.1f", batch_occupancy)
      .Kv("pf", "%llu", static_cast<unsigned long long>(prefetch_issued))
      .Kv("pfhit", "%.1f%%", prefetch_hit_rate * 100)
      .Kv("pfwaste", "%lluKiB", static_cast<unsigned long long>(prefetch_wasted_bytes / kKiB))
      .Kv("err", "%llu", static_cast<unsigned long long>(io_errors))
      .Kv("retry", "%llu", static_cast<unsigned long long>(io_retries))
      .Kv("ddl", "%llu", static_cast<unsigned long long>(deadline_expired))
      .Kv("hedge", "%llu/%llu", static_cast<unsigned long long>(hedges_won),
          static_cast<unsigned long long>(hedges_issued))
      .Kv("deg", "%llu", static_cast<unsigned long long>(queries_degraded))
      .Kv("rowsf", "%llu", static_cast<unsigned long long>(rows_failed))
      .Kv("shed", "%llu", static_cast<unsigned long long>(lookups_shed))
      .Kv("rot", "%llu", static_cast<unsigned long long>(blocks_corrupt))
      .Kv("rrd", "%llu", static_cast<unsigned long long>(read_repairs))
      .Kv("rep", "%llu", static_cast<unsigned long long>(replica_reads))
      .Kv("xrep", "%llu", static_cast<unsigned long long>(extents_replicated));
  return f.str();
}

}  // namespace sdm
