// Chaos bench: a 4-host disaggregated cluster rides out a scripted fault
// storm — a 1% media error burst, a 10x fail-slow window, and a full
// fabric partition — with and without the serving-side fault responses
// (IO deadlines, backoff retries, adaptive hedging, health-monitor
// shedding, graceful zero-fill degradation).
//
// Four legs:
//   storm/ablation   responses OFF: the storm is absorbed only by blocking
//                    retries; the partition parks reads until it heals.
//   storm/responses  responses ON: deadlines unwedge partition-parked
//                    reads, hedges duck the fail-slow window, exhausted
//                    retries degrade to zero-filled rows instead of
//                    failing queries.
//   self-healing     an error burst sickens one device, the Replication-
//                    Manager re-replicates its extents mid-run, then a
//                    long bit-rot storm rots every primary read: detect-
//                    only zero-fills those rows, healing serves them from
//                    the replica.
//   fault-free       the same cluster with no injector vs an installed
//                    empty-plan injector — reports must be byte-identical
//                    (the injector's hooks are provably inert when idle).
//
// `--json=FILE` writes availability_pct, degraded-row accounting, the
// rescued fraction of would-be-zero-filled rows, the identity bit, and the
// p99 cut responses deliver vs the ablation; CI gates these against
// bench/baselines/fault.json.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "dlrm/model_zoo.h"
#include "fault/fault_injector.h"
#include "serving/cluster.h"

using namespace sdm;

namespace {

constexpr size_t kHosts = 4;
constexpr double kTotalQps = 400;
constexpr uint64_t kStormQueries = 4000;  // ~10s virtual: storm fits inside

/// Capacity-bound shared-device profile (the disaggregated bench's), plus
/// the fault-response knobs when `responses` is on.
HostSimConfig StormHostConfig(bool responses) {
  HostSimConfig cfg;
  cfg.host = MakeHwFAO(2);
  cfg.fm_capacity = 4 * kMiB;
  cfg.sm_backing_per_device = 32 * kMiB;
  cfg.workload.num_users = 2000;
  cfg.workload.seed = 11;
  cfg.seed = 11;
  cfg.tuning.sub_block_reads = false;
  cfg.tuning.enable_row_cache = false;
  cfg.tuning.max_batch_delay = Micros(200);
  cfg.tuning.fabric_latency = Micros(5);
  cfg.inference.max_concurrent_queries = 32;
  if (responses) {
    cfg.tuning.io_deadline = Millis(2);
    cfg.tuning.retry_backoff_base = Micros(20);
    cfg.tuning.hedge_latency_factor = 2.0;
    cfg.tuning.hedge_min_samples = 64;
    cfg.tuning.enable_health_monitor = true;
  }
  return cfg;
}

ModelConfig StormModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // item side stays FM-direct
  return model;
}

/// The scripted storm, phased across a ~10s run: error burst early, a
/// fail-slow device mid-run, a fabric partition late.
FaultPlan StormPlan(SimTime t0) {
  FaultPlan plan;
  plan.ErrorBurst(t0 + Millis(500), t0 + Millis(8000), /*probability=*/0.01)
      .FailSlow(t0 + Millis(2000), t0 + Millis(3000), /*multiplier=*/10.0,
                /*device=*/0)
      .FabricPartition(t0 + Millis(5000), t0 + Millis(5200));
  return plan;
}

struct LegResult {
  ClusterRunReport report;
  uint64_t completed = 0;
  uint64_t served = 0;
  double availability_pct = 0;
  double p99_ms = 0;  // worst host
  uint64_t degraded = 0;
  uint64_t rows_failed = 0;
};

/// Writes an export artifact; fatal on failure so CI never uploads an
/// empty file silently.
void WriteDoc(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

/// With `trace_out` set, the run carries full-fat observability (metrics,
/// per-query tracing, SLO watchdogs on p99 and degraded queries) and writes
/// the Chrome trace to `trace_out` plus `.metrics.json` / `.slo.json`
/// siblings — the CI artifact leg, and a live check that instrumenting the
/// storm does not move a single counter.
LegResult RunStorm(bool responses, const std::string* trace_out = nullptr) {
  DisaggregatedConfig dc;
  dc.enabled = true;
  HostSimConfig cfg = StormHostConfig(responses);
  if (trace_out != nullptr) {
    cfg.tuning.obs.enable_metrics = true;
    cfg.tuning.obs.enable_tracing = true;
    SloRule p99;
    p99.name = "storm-p99";
    p99.metric = "host0/query/latency_ns";
    p99.stat = SloRule::Stat::kP99;
    p99.op = SloRule::Op::kAbove;
    p99.threshold = static_cast<double>(Millis(2).nanos());
    p99.for_windows = 3;
    SloRule degraded;
    degraded.name = "degraded-queries";
    degraded.metric = "host0/query/degraded";
    degraded.stat = SloRule::Stat::kValue;
    degraded.op = SloRule::Op::kAbove;
    degraded.threshold = 0;
    cfg.tuning.obs.slo_rules = {p99, degraded};
  }
  ClusterSimulation cluster(kHosts, cfg, RoutingPolicy::kLocal, dc);
  Status st = cluster.LoadModel(StormModel());
  if (!st.ok()) {
    std::fprintf(stderr, "LoadModel: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  EventLoop* loop = cluster.host_store(0).loop();
  FaultInjector injector(StormPlan(loop->Now()), loop, /*seed=*/2024);
  cluster.fabric_service()->InstallFaultInjector(&injector);

  LegResult leg;
  leg.report = cluster.Run(kTotalQps, kStormQueries);
  if (trace_out != nullptr) {
    WriteDoc(*trace_out, cluster.ObsTraceJson());
    WriteDoc(*trace_out + ".metrics.json", cluster.ObsMetricsJson());
    WriteDoc(*trace_out + ".slo.json", cluster.ObsSloJson());
  }
  for (const auto& h : leg.report.hosts) {
    leg.completed += h.run.queries_completed;
    leg.served += h.run.queries_served;
    leg.degraded += h.run.queries_degraded;
    leg.rows_failed += h.run.rows_failed;
    leg.p99_ms = std::max(leg.p99_ms, h.run.p99.nanos() / 1e6);
  }
  leg.availability_pct =
      leg.served == 0 ? 0 : 100.0 * static_cast<double>(leg.completed) /
                                static_cast<double>(leg.served);
  return leg;
}

/// Tail-rescue leg: hedging ALONE (no deadline, no faults) against a
/// tail-heavy device — 0.5% of reads run 20x slow, the regime hedging
/// targets. In the storm above deadlines dominate (a uniformly slowed
/// device gives a hedge nothing faster to race), so hedging's own p99
/// contribution is measured here.
HostRunReport RunTailLeg(bool hedge) {
  HostSimConfig cfg;
  cfg.host = MakeHwAO();
  for (auto& ssd : cfg.host.ssds) {
    ssd.tail_probability = 0.005;
    ssd.tail_multiplier = 20.0;
  }
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  cfg.workload.num_users = 1000;
  cfg.workload.seed = 5;
  cfg.seed = 5;
  // Row cache off: every lookup reads SM, so a query sees several chances
  // at the read tail and the tail crosses query-level p99.
  cfg.tuning.enable_row_cache = false;
  if (hedge) {
    cfg.tuning.hedge_latency_factor = 2.0;
    cfg.tuning.hedge_min_samples = 64;
  }
  HostSimulation sim(cfg);
  Status st = sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000));
  if (!st.ok()) {
    std::fprintf(stderr, "LoadModel: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return sim.Run(200, 2000);
}

/// Self-healing leg, single host (2 Optane SSDs, one user table per
/// device). A total error burst sickens device 0 early; with healing ON
/// the ReplicationManager re-replicates its extent onto device 1 (copy
/// chunks backoff-retry past the burst's end), and the long bit-rot
/// storm that follows — every device-0 read corrupt for the rest of the
/// run — is served from the replica instead of zero-filling. Detect-only
/// (checksums, no healing) measures the would-be-zero-filled rows.
HostRunReport RunHealLeg(bool heal) {
  HostSimConfig cfg;
  cfg.host = MakeHwAO();
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  cfg.workload.num_users = 1000;
  cfg.workload.seed = 5;
  cfg.seed = 5;
  // Checksums verify whole 4KB blocks at bounce-buffer fill; sub-block
  // SGL reads would sail past them. Row cache off so every lookup reads
  // SM and meets the rot.
  cfg.tuning.enable_checksums = true;
  cfg.tuning.sub_block_reads = false;
  cfg.tuning.enable_row_cache = false;
  // Both legs share the retry schedule (fair ablation). 150ms backoff
  // puts a copy chunk's third attempt past the burst's end, so the
  // replica lands while the endpoint is still sick.
  cfg.tuning.retry_backoff_base = Millis(150);
  if (heal) {
    cfg.tuning.enable_health_monitor = true;
    cfg.tuning.enable_replication = true;
  }
  HostSimulation sim(cfg);
  Status st = sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000));
  if (!st.ok()) {
    std::fprintf(stderr, "LoadModel: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  const SimTime t0 = sim.loop().Now();
  FaultPlan plan;
  plan.ErrorBurst(t0 + Millis(500), t0 + Millis(1000), /*probability=*/1.0,
                  /*device=*/0)
      .BitRot(t0 + Millis(2000), t0 + Millis(29'500), /*probability=*/1.0,
              /*device=*/0);
  FaultInjector injector(plan, &sim.loop(), /*seed=*/77);
  sim.store().device_service().InstallFaultInjector(&injector);
  return sim.Run(200, 6000);  // ~30s virtual: the storm fits inside
}

/// One fault-free run; with `install_empty`, an empty-plan injector is
/// installed across the whole device stack first. Returns every report
/// summary concatenated — the byte-identity comparator.
std::string FaultFreeFingerprint(bool install_empty) {
  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(kHosts, StormHostConfig(/*responses=*/true),
                            RoutingPolicy::kLocal, dc);
  Status st = cluster.LoadModel(StormModel());
  if (!st.ok()) {
    std::fprintf(stderr, "LoadModel: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<FaultInjector> injector;
  if (install_empty) {
    injector = std::make_unique<FaultInjector>(
        FaultPlan(), cluster.host_store(0).loop(), /*seed=*/99);
    cluster.fabric_service()->InstallFaultInjector(injector.get());
  }
  const ClusterRunReport r =
      cluster.Run(kTotalQps, kStormQueries / 4);
  std::string fp = r.Summary();
  for (const auto& h : r.hosts) {
    fp += "\n";
    fp += h.run.Summary();
  }
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  bench::QuietLogs quiet;
  bench::JsonReporter json(argc, argv, "fault_tolerance");
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) trace_out = arg.substr(12);
  }

  bench::Section("Fault storm: 1% error burst + 10x fail-slow + fabric partition");
  const LegResult ablation = RunStorm(/*responses=*/false);
  const LegResult responses = RunStorm(/*responses=*/true);

  if (!trace_out.empty()) {
    bench::Section("Traced storm: Chrome trace / metrics / SLO artifacts");
    const LegResult traced = RunStorm(/*responses=*/true, &trace_out);
    // Observability must be timing-inert under the storm too: the traced
    // rerun has to reproduce the untraced leg counter for counter.
    if (traced.completed != responses.completed ||
        traced.degraded != responses.degraded ||
        traced.rows_failed != responses.rows_failed ||
        traced.p99_ms != responses.p99_ms) {
      std::fprintf(stderr, "traced storm diverged from untraced storm\n");
      return 1;
    }
    bench::Note(bench::Fmt("wrote %s (+.metrics.json, +.slo.json); "
                           "traced run matched untraced counters",
                           trace_out.c_str()));
  }

  bench::Table t({"leg", "completed", "availability%", "p99 ms", "degraded",
                  "rows zero-filled", "deadline", "hedges won", "shed"});
  const auto row = [&](const char* name, const LegResult& leg) {
    t.Row(name, leg.completed, bench::Fmt("%.3f", leg.availability_pct),
          bench::Fmt("%.3f", leg.p99_ms), leg.degraded, leg.rows_failed,
          leg.report.io.deadline_expired, leg.report.io.hedges_won,
          bench::Fmt("%llu", (unsigned long long)(
                                 leg.served - leg.completed)));
  };
  row("no responses", ablation);
  row("responses on", responses);
  t.Print();

  const double p99_cut_pct =
      ablation.p99_ms <= 0
          ? 0
          : 100.0 * (ablation.p99_ms - responses.p99_ms) / ablation.p99_ms;
  bench::Note(bench::Fmt(
      "deadlines+hedging cut storm p99 %.3fms -> %.3fms (%.1f%%)",
      ablation.p99_ms, responses.p99_ms, p99_cut_pct));
  bench::Note(bench::Fmt(
      "fabric: %llu transfers rode out the partition; %llu reads expired",
      (unsigned long long)responses.report.fabric.partition_deferred,
      (unsigned long long)responses.report.io.deadline_expired));

  bench::Section("Tail rescue: hedging alone vs a 0.5% 20x-slow read tail");
  const HostRunReport tail_off = RunTailLeg(false);
  const HostRunReport tail_on = RunTailLeg(true);
  const double tail_off_p99_us = tail_off.p99.nanos() / 1e3;
  const double tail_on_p99_us = tail_on.p99.nanos() / 1e3;
  const double hedge_p99_cut_pct =
      tail_off_p99_us <= 0
          ? 0
          : 100.0 * (tail_off_p99_us - tail_on_p99_us) / tail_off_p99_us;
  bench::Note(bench::Fmt(
      "hedging cut p99 %.1fus -> %.1fus (%.1f%%); %llu/%llu hedges won",
      tail_off_p99_us, tail_on_p99_us, hedge_p99_cut_pct,
      (unsigned long long)tail_on.hedges_won,
      (unsigned long long)tail_on.hedges_issued));

  bench::Section("Self-healing: error burst sickens a device, bit rot storms it");
  const HostRunReport detect = RunHealLeg(/*heal=*/false);
  const HostRunReport healed = RunHealLeg(/*heal=*/true);
  bench::Table ht({"leg", "completed", "availability%", "corrupt blocks",
                   "rows zero-filled", "replica reads", "repairs",
                   "extents replicated"});
  const auto heal_row = [&](const char* name, const HostRunReport& r) {
    const double avail =
        r.queries_served == 0
            ? 0
            : 100.0 * static_cast<double>(r.queries_completed) /
                  static_cast<double>(r.queries_served);
    ht.Row(name, r.queries_completed, bench::Fmt("%.3f", avail),
           r.blocks_corrupt, r.rows_failed, r.replica_reads, r.read_repairs,
           r.extents_replicated);
    return avail;
  };
  heal_row("detect only", detect);
  const double heal_availability_pct = heal_row("self-healing", healed);
  ht.Print();
  const double rows_rescued_pct =
      detect.rows_failed == 0
          ? 0
          : 100.0 * (1.0 - static_cast<double>(healed.rows_failed) /
                               static_cast<double>(detect.rows_failed));
  bench::Note(bench::Fmt(
      "replication + read-repair rescued %.1f%% of %llu would-be-zero-filled "
      "rows (%llu still zero-filled)",
      rows_rescued_pct, (unsigned long long)detect.rows_failed,
      (unsigned long long)healed.rows_failed));

  bench::Section("Fault-free byte-identity (empty-plan injector installed)");
  const bool identical =
      FaultFreeFingerprint(false) == FaultFreeFingerprint(true);
  bench::Note(identical ? "identical: installing an idle injector changes nothing"
                        : "MISMATCH: idle injector perturbed the simulation");

  json.Metric("availability_pct", responses.availability_pct);
  json.Metric("queries_degraded", responses.degraded);
  json.Metric("rows_failed", responses.rows_failed);
  json.Metric("deadline_expired", responses.report.io.deadline_expired);
  json.Metric("hedges_issued", responses.report.io.hedges_issued);
  json.Metric("hedges_won", tail_on.hedges_won);
  json.Metric("hedge_p99_cut_pct", hedge_p99_cut_pct);
  json.Metric("partition_deferred", responses.report.fabric.partition_deferred);
  json.Metric("p99_ablation_ms", ablation.p99_ms);
  json.Metric("p99_responses_ms", responses.p99_ms);
  json.Metric("p99_cut_pct", p99_cut_pct);
  json.Metric("heal_availability_pct", heal_availability_pct);
  json.Metric("rows_rescued_pct", rows_rescued_pct);
  json.Metric("detect_rows_failed", detect.rows_failed);
  json.Metric("heal_blocks_corrupt", healed.blocks_corrupt);
  json.Metric("heal_replica_reads", healed.replica_reads);
  json.Metric("heal_extents_replicated", healed.extents_replicated);
  json.Metric("fault_free_identical", identical ? 1 : 0);
  return identical ? 0 : 1;
}
