// Scripted fault injection (src/fault): injector window semantics, health
// monitoring, replay determinism, and the byte-identity guarantee that an
// absent or empty-plan injector changes nothing.
#include <gtest/gtest.h>

#include "dlrm/model_zoo.h"
#include "fault/fault_injector.h"
#include "fault/health_monitor.h"
#include "serving/cluster.h"
#include "serving/host.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector window semantics.
// ---------------------------------------------------------------------------

TEST(FaultInjector, ErrorBurstFiresOnlyInsideItsWindow) {
  EventLoop loop;
  FaultPlan plan;
  plan.ErrorBurst(SimTime() + Millis(1), SimTime() + Millis(2), /*probability=*/1.0);
  FaultInjector inj(plan, &loop, /*seed=*/1);

  EXPECT_FALSE(inj.DrawReadError(0));  // before the window
  loop.ScheduleAt(SimTime() + Micros(1500), [&] {
    EXPECT_TRUE(inj.DrawReadError(0));  // inside
  });
  loop.ScheduleAt(SimTime() + Millis(2), [&] {
    EXPECT_FALSE(inj.DrawReadError(0));  // half-open: end is outside
  });
  loop.RunUntilIdle();
  EXPECT_EQ(inj.stats().CounterValue("injected_errors"), 1u);
}

TEST(FaultInjector, WindowsTargetOneDeviceOrAll) {
  EventLoop loop;
  FaultPlan plan;
  plan.ErrorBurst(SimTime(), SimTime() + Millis(1), 1.0, /*device=*/1);
  FaultInjector inj(plan, &loop, 1);
  EXPECT_FALSE(inj.DrawReadError(0));
  EXPECT_TRUE(inj.DrawReadError(1));

  FaultPlan all;
  all.ErrorBurst(SimTime(), SimTime() + Millis(1), 1.0);  // device=-1: all
  FaultInjector inj_all(all, &loop, 1);
  EXPECT_TRUE(inj_all.DrawReadError(0));
  EXPECT_TRUE(inj_all.DrawReadError(7));
}

TEST(FaultInjector, OverlappingFailSlowWindowsCompound) {
  EventLoop loop;
  FaultPlan plan;
  plan.FailSlow(SimTime(), SimTime() + Millis(2), 10.0)
      .FailSlow(SimTime() + Millis(1), SimTime() + Millis(3), 3.0, /*device=*/0);
  FaultInjector inj(plan, &loop, 1);
  EXPECT_DOUBLE_EQ(inj.ServiceMultiplier(0), 10.0);  // only the first window
  loop.ScheduleAt(SimTime() + Micros(1500), [&] {
    EXPECT_DOUBLE_EQ(inj.ServiceMultiplier(0), 30.0);  // both overlap
    EXPECT_DOUBLE_EQ(inj.ServiceMultiplier(1), 10.0);  // second targets dev 0
  });
  loop.ScheduleAt(SimTime() + Micros(2500), [&] {
    EXPECT_DOUBLE_EQ(inj.ServiceMultiplier(0), 3.0);
    EXPECT_DOUBLE_EQ(inj.ServiceMultiplier(1), 1.0);
  });
  loop.RunUntilIdle();
}

TEST(FaultInjector, StallWindowsDeferCompletions) {
  EventLoop loop;
  FaultPlan plan;
  plan.Stall(SimTime() + Millis(1), SimTime() + Millis(3));
  FaultInjector inj(plan, &loop, 1);
  // A completion landing inside the stall is held to the window's close.
  EXPECT_EQ(inj.DeferCompletion(0, SimTime() + Millis(2)).nanos(),
            (SimTime() + Millis(3)).nanos());
  // Outside the window completions pass through untouched.
  EXPECT_EQ(inj.DeferCompletion(0, SimTime() + Micros(500)).nanos(),
            (SimTime() + Micros(500)).nanos());
  EXPECT_EQ(inj.DeferCompletion(0, SimTime() + Millis(4)).nanos(),
            (SimTime() + Millis(4)).nanos());
  EXPECT_EQ(inj.stats().CounterValue("stalled_completions"), 1u);
}

TEST(FaultInjector, PartitionDefersFabricTransfersUntilHeal) {
  EventLoop loop;
  FaultPlan plan;
  plan.FabricPartition(SimTime() + Millis(1), SimTime() + Millis(5));
  FaultInjector inj(plan, &loop, 1);
  loop.ScheduleAt(SimTime() + Millis(2), [&] {
    EXPECT_EQ(inj.DeferFabricTransfer(0, loop.Now()).nanos(),
              (SimTime() + Millis(5)).nanos());
    EXPECT_FALSE(inj.DrawFabricDrop(0));  // partition defers, never drops
  });
  loop.RunUntilIdle();
  EXPECT_EQ(inj.stats().CounterValue("partitioned_transfers"), 1u);
  EXPECT_EQ(inj.stats().CounterValue("injected_drops"), 0u);
}

TEST(FaultInjector, EmptyPlanIsInert) {
  EventLoop loop;
  FaultInjector inj(FaultPlan(), &loop, 1);
  EXPECT_TRUE(inj.plan().empty());
  for (int d = 0; d < 4; ++d) {
    EXPECT_FALSE(inj.DrawReadError(d));
    EXPECT_FALSE(inj.DrawFabricDrop(d));
    EXPECT_DOUBLE_EQ(inj.ServiceMultiplier(d), 1.0);
    EXPECT_EQ(inj.DeferCompletion(d, SimTime() + Millis(1)).nanos(),
              (SimTime() + Millis(1)).nanos());
  }
  EXPECT_EQ(inj.stats().CounterValue("injected_errors"), 0u);
  EXPECT_EQ(inj.stats().CounterValue("stalled_completions"), 0u);
}

// ---------------------------------------------------------------------------
// HealthMonitor.
// ---------------------------------------------------------------------------

HealthMonitorConfig SmallHealthConfig() {
  HealthMonitorConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.sick_threshold = 0.5;
  cfg.probe_interval = 4;
  return cfg;
}

TEST(HealthMonitor, SickOnlyWithEnoughEvidence) {
  HealthMonitor hm(SmallHealthConfig(), 2);
  // Three errors: 100% error rate but under window/2 samples — not sick.
  for (int i = 0; i < 3; ++i) hm.Record(0, false);
  EXPECT_FALSE(hm.Sick(0));
  for (int i = 0; i < 2; ++i) hm.Record(0, false);
  EXPECT_TRUE(hm.Sick(0));   // 5 samples, all errors
  EXPECT_FALSE(hm.Sick(1));  // per-endpoint isolation
}

TEST(HealthMonitor, ProbesAdmitEveryNthCallWhileSick) {
  HealthMonitor hm(SmallHealthConfig(), 1);
  for (int i = 0; i < 8; ++i) hm.Record(0, false);
  ASSERT_TRUE(hm.Sick(0));
  int admitted = 0;
  for (int i = 0; i < 8; ++i) {
    if (hm.AdmitProbe(0)) ++admitted;
  }
  EXPECT_EQ(admitted, 2);  // calls 1 and 5 with probe_interval=4
  EXPECT_EQ(hm.stats().CounterValue("probes_admitted"), 2u);
  EXPECT_EQ(hm.stats().CounterValue("sheds"), 6u);
}

TEST(HealthMonitor, ProbeSuccessesWashOutTheWindow) {
  HealthMonitor hm(SmallHealthConfig(), 1);
  for (int i = 0; i < 8; ++i) hm.Record(0, false);
  ASSERT_TRUE(hm.Sick(0));
  for (int i = 0; i < 5; ++i) hm.Record(0, true);  // probes succeed
  EXPECT_FALSE(hm.Sick(0));  // 3 errors / 8 samples < 0.5
  EXPECT_EQ(hm.stats().CounterValue("sick_transitions"), 1u);
}

TEST(HealthMonitor, DisabledMonitorNeverSheds) {
  HealthMonitorConfig cfg;  // enabled = false
  HealthMonitor hm(cfg, 1);
  for (int i = 0; i < 100; ++i) hm.Record(0, false);
  EXPECT_FALSE(hm.Sick(0));
}

// ---------------------------------------------------------------------------
// Replay determinism and byte-identity (serving stack end to end).
// ---------------------------------------------------------------------------

HostSimConfig FaultHostConfig() {
  HostSimConfig cfg;
  cfg.host = MakeHwAO();
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  cfg.workload.num_users = 1000;
  cfg.workload.seed = 5;
  cfg.seed = 5;
  return cfg;
}

void ExpectReportsIdentical(const HostRunReport& a, const HostRunReport& b) {
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_served, b.queries_served);
  EXPECT_EQ(a.p50.nanos(), b.p50.nanos());
  EXPECT_EQ(a.p99.nanos(), b.p99.nanos());
  EXPECT_EQ(a.mean.nanos(), b.mean.nanos());
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.queries_degraded, b.queries_degraded);
  EXPECT_EQ(a.rows_failed, b.rows_failed);
  EXPECT_EQ(a.lookups_shed, b.lookups_shed);
  EXPECT_EQ(a.Summary(), b.Summary());
}

HostRunReport RunWithPlan(const FaultPlan* plan, uint64_t seed) {
  HostSimConfig cfg = FaultHostConfig();
  HostSimulation sim(cfg);
  EXPECT_TRUE(sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000)).ok());
  std::unique_ptr<FaultInjector> inj;
  if (plan != nullptr) {
    inj = std::make_unique<FaultInjector>(*plan, &sim.loop(), seed);
    sim.store().device_service().InstallFaultInjector(inj.get());
  }
  return sim.Run(200, 400);
}

TEST(HealthMonitor, TuningSickThresholdSetsTheCondemnationPoint) {
  // tuning.health_sick_threshold flows HostSimConfig -> SharedDeviceService
  // -> HealthMonitor: the same 50% error mix condemns an endpoint at the
  // default threshold and leaves it healthy under a stricter one.
  for (const double threshold : {0.5, 0.9}) {
    HostSimConfig cfg = FaultHostConfig();
    cfg.tuning.enable_health_monitor = true;
    cfg.tuning.health_window = 32;
    cfg.tuning.health_sick_threshold = threshold;
    HostSimulation sim(cfg);
    ASSERT_TRUE(sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000)).ok());
    HealthMonitor& hm = sim.store().device_service().health();
    for (int i = 0; i < 32; ++i) hm.Record(0, /*ok=*/i % 2 == 0);
    EXPECT_EQ(hm.Sick(0), threshold <= 0.5) << "threshold=" << threshold;
  }
}

TEST(FaultReplay, SamePlanAndSeedReplaysExactly) {
  FaultPlan plan;
  plan.ErrorBurst(SimTime() + Millis(200), SimTime() + Millis(900), 0.5)
      .FailSlow(SimTime() + Millis(1000), SimTime() + Millis(1400), 10.0);
  const HostRunReport a = RunWithPlan(&plan, /*seed=*/42);
  const HostRunReport b = RunWithPlan(&plan, /*seed=*/42);
  ExpectReportsIdentical(a, b);
  EXPECT_GT(a.io_errors, 0u);  // the plan actually bit
}

TEST(FaultReplay, EmptyPlanIsByteIdenticalToNoInjector) {
  const FaultPlan empty;
  ExpectReportsIdentical(RunWithPlan(nullptr, 0), RunWithPlan(&empty, 7));
}

TEST(FaultReplay, EmptyPlanPreservesDeviceRngDrawOrder) {
  // Devices with their own (spec-level) error RNG must see the exact same
  // draw sequence whether or not an inert injector is installed.
  HostSimConfig cfg = FaultHostConfig();
  cfg.host.ssds[0].read_error_probability = 0.05;
  cfg.host.ssds[1].read_error_probability = 0.05;
  HostRunReport reports[2];
  for (int i = 0; i < 2; ++i) {
    HostSimulation sim(cfg);
    ASSERT_TRUE(sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000)).ok());
    std::unique_ptr<FaultInjector> inj;
    if (i == 1) {
      inj = std::make_unique<FaultInjector>(FaultPlan(), &sim.loop(), 9);
      sim.store().device_service().InstallFaultInjector(inj.get());
    }
    reports[i] = sim.Run(200, 400);
  }
  ExpectReportsIdentical(reports[0], reports[1]);
  EXPECT_GT(reports[0].io_errors, 0u);  // the spec-level RNG was exercised
}

// ---------------------------------------------------------------------------
// Graceful degradation end to end.
// ---------------------------------------------------------------------------

TEST(FaultServing, ErrorBurstDegradesInsteadOfFailing) {
  HostSimConfig cfg = FaultHostConfig();
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000)).ok());
  FaultPlan plan;  // every SM read fails for the whole run
  plan.ErrorBurst(sim.loop().Now(), sim.loop().Now() + Millis(10'000), 1.0);
  FaultInjector inj(plan, &sim.loop(), 3);
  sim.store().device_service().InstallFaultInjector(&inj);
  const HostRunReport r = sim.Run(200, 300);
  // Graceful degradation: every query still completes; the ones whose rows
  // needed SM pooled zeros and are accounted as degraded.
  EXPECT_EQ(r.queries_completed, 300u);
  EXPECT_GT(r.queries_degraded, 0u);
  EXPECT_GT(r.rows_failed, 0u);
  EXPECT_GT(r.io_errors, 0u);
  EXPECT_GE(r.rows_failed, r.queries_degraded);
}

TEST(FaultServing, HealthMonitorShedsDuringABurst) {
  HostSimConfig cfg = FaultHostConfig();
  cfg.tuning.enable_health_monitor = true;
  cfg.tuning.health_window = 32;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000)).ok());
  FaultPlan plan;
  plan.ErrorBurst(sim.loop().Now(), sim.loop().Now() + Millis(10'000), 1.0);
  FaultInjector inj(plan, &sim.loop(), 3);
  sim.store().device_service().InstallFaultInjector(&inj);
  const HostRunReport r = sim.Run(200, 300);
  EXPECT_EQ(r.queries_completed, 300u);
  // Once sick, lookups shed without queueing IO onto the failing device.
  EXPECT_GT(r.lookups_shed, 0u);
  EXPECT_GT(r.queries_degraded, 0u);
}

// ---------------------------------------------------------------------------
// Fabric partition on a disaggregated cluster: deadlines unwedge, serving
// degrades, everything completes.
// ---------------------------------------------------------------------------

TEST(FaultFabric, PartitionIsRiddenOutByDeadlines) {
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
  cfg.tuning.io_deadline = Millis(1);
  cfg.tuning.retry_backoff_base = Micros(20);
  cfg.inference.max_concurrent_queries = 32;

  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;

  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kLocal, dc);
  ASSERT_TRUE(cluster.LoadModel(model).ok());

  EventLoop* loop = cluster.host_store(0).loop();
  FaultPlan plan;  // fabric unreachable for 200ms mid-run (run is ~2s)
  plan.FabricPartition(loop->Now() + Millis(300), loop->Now() + Millis(500));
  FaultInjector inj(plan, loop, 17);
  cluster.fabric_service()->InstallFaultInjector(&inj);

  const ClusterRunReport r = cluster.Run(400, 800);
  uint64_t completed = 0;
  uint64_t served = 0;
  for (const auto& h : r.hosts) {
    completed += h.run.queries_completed;
    served += h.run.queries_served;
  }
  EXPECT_EQ(completed, served);  // nothing wedged behind the partition
  EXPECT_GT(r.fabric.partition_deferred, 0u);
  EXPECT_GT(r.io.deadline_expired, 0u);
  EXPECT_GT(r.queries_degraded, 0u);
  EXPECT_GT(r.rows_failed, 0u);
  EXPECT_EQ(inj.stats().CounterValue("injected_drops"), 0u);
}

}  // namespace
}  // namespace sdm
