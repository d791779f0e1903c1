// Tests for src/serving: host specs, inference engine semantics (Eq. 3
// latency hiding, inter-op parallelism), host simulation, fleet power math
// (Tables 8/9/10/11), cluster routing, multi-tenancy, the disaggregated
// cluster (its reproducibility under faults and its one-pass replica load).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "core/model_updater.h"
#include "dlrm/model_zoo.h"
#include "embedding/quantization.h"
#include "fault/fault_injector.h"
#include "serving/cluster.h"
#include "serving/host.h"
#include "serving/power_model.h"
#include "resident_memory.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

HostSimConfig SmallHostConfig(HostSpec host = MakeHwSS()) {
  HostSimConfig cfg;
  cfg.host = std::move(host);
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  cfg.tuning.row_cache.capacity = 0;  // auto-size
  cfg.workload.num_users = 2000;
  cfg.workload.user_zipf_alpha = 0.9;
  cfg.workload.user_index_churn = 0.05;
  cfg.workload.seed = 5;
  cfg.inference.max_concurrent_queries = 32;
  cfg.seed = 5;
  return cfg;
}

ModelConfig SmallModel() { return MakeTinyUniformModel(16, 4, 2, 4000); }

/// Absolute virtual time `d` past the epoch (loops start at SimTime(0)).
constexpr SimTime At(SimDuration d) { return SimTime(0) + d; }

// ---------------------------------------------------------------------------
// Host specs (Table 7).
// ---------------------------------------------------------------------------

TEST(HostSpecs, Table7Shapes) {
  EXPECT_EQ(MakeHwL().cpu_sockets, 2);
  EXPECT_TRUE(MakeHwL().ssds.empty());
  EXPECT_EQ(MakeHwSS().ssds.size(), 2u);
  EXPECT_EQ(MakeHwSS().ssds[0].technology, Technology::kNandFlash);
  EXPECT_TRUE(MakeHwAN().accelerator);
  EXPECT_EQ(MakeHwAO().ssds[0].technology, Technology::kOptaneSsd);
  EXPECT_EQ(MakeHwFAO().ssds.size(), 9u);
}

TEST(HostSpecs, PowerOrdering) {
  // Table 8: HW-SS is 0.4 of HW-L.
  EXPECT_NEAR(MakeHwSS().power / MakeHwL().power, 0.4, 1e-9);
  // Table 9: HW-S is 0.25 of HW-AN.
  EXPECT_NEAR(MakeHwS().power / MakeHwAN().power, 0.25, 1e-9);
  // Table 11: the Optane complement adds ~1%.
  EXPECT_NEAR(MakeHwFAO().power / MakeHwF().power, 1.01, 1e-9);
}

// ---------------------------------------------------------------------------
// InferenceEngine via HostSimulation.
// ---------------------------------------------------------------------------

TEST(HostSim, LoadsAndServes) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport r = sim.Run(500, 300);
  EXPECT_EQ(r.queries_completed, 300u);
  EXPECT_GT(r.p50.nanos(), 0);
  EXPECT_GE(r.p99, r.p95);
  EXPECT_GE(r.p95, r.p50);
}

TEST(HostSim, DefaultBackingCommitsOnlyTheLoadedModel) {
  // Defaults: 2 SSDs x 256 MiB of SM backing plus 128 MiB of FM, and a row
  // cache whose bucket headers would take ~24 MiB if written up front — all
  // of it virtual until the load (or the first cached row) writes it. The
  // load measures ~0.5 MiB over the model's bytes, and ~6 MiB under TSan,
  // whose shadow memory grows with every byte written.
  HostSimConfig cfg;
  cfg.host = MakeHwSS();
  const ModelConfig model = SmallModel();
  Bytes model_bytes = 0;
  for (const TableConfig& t : model.tables) model_bytes += t.total_bytes();
  const int64_t before = ResidentBytes();
  ASSERT_GT(before, 0);
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(model).ok());
  EXPECT_LT(ResidentBytes() - before, static_cast<int64_t>(model_bytes + 12 * kMiB));
}

TEST(HostSim, HitRateRisesWithWarmth) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport cold = sim.Run(500, 300);
  sim.Warmup(3000);
  const HostRunReport warm = sim.Run(500, 300);
  EXPECT_GT(warm.row_cache_hit_rate, cold.row_cache_hit_rate);
  EXPECT_GT(warm.row_cache_hit_rate, 0.5);
}

TEST(HostSim, WarmCacheReducesSmIops) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport cold = sim.Run(500, 300);
  sim.Warmup(3000);
  const HostRunReport warm = sim.Run(500, 300);
  EXPECT_LT(warm.sm_iops, cold.sm_iops);
}

TEST(HostSim, AchievesOfferedLoadWhenUnderSla) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  sim.Warmup(1000);
  const HostRunReport r = sim.Run(200, 1000);
  EXPECT_NEAR(r.achieved_qps, 200, 40);
}

TEST(HostSim, SubBlockReadsKeepAmplificationNearOne) {
  HostSimConfig cfg = SmallHostConfig();
  cfg.tuning.sub_block_reads = true;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport r = sim.Run(300, 500);
  EXPECT_LT(r.sm_read_amplification, 1.2);
}

TEST(HostSim, BlockReadsAmplify) {
  HostSimConfig cfg = SmallHostConfig();
  cfg.tuning.sub_block_reads = false;
  // Per-row block IO is the amplification worst case this test documents;
  // coalescing merges same-block rows and would hide it.
  cfg.tuning.io_batching = IoBatching::kPerRow;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  const HostRunReport r = sim.Run(300, 500);
  // 24B rows (16 dim int8) against 4KB blocks.
  EXPECT_GT(r.sm_read_amplification, 50);
}

TEST(HostSim, UserPathHiddenBehindItemPath) {
  // Eq. 3/4: on an Optane host with a warm cache, the SM user-table time
  // stays under the batched item-side time, so SDM adds no end-to-end
  // latency. (On Nand this is exactly what breaks for M2 in §5.2.)
  HostSimConfig cfg = SmallHostConfig(MakeHwAO());
  cfg.workload.user_index_churn = 0.01;
  ModelConfig model = SmallModel();
  model.item_batch_size = 256;  // heavy item side
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(model).ok());
  sim.Warmup(4000);
  (void)sim.Run(100, 500);
  const auto& user = sim.engine().user_path_latency();
  const auto& item = sim.engine().item_path_latency();
  EXPECT_LT(user.ValueAtQuantile(0.5), item.ValueAtQuantile(0.5));
}

TEST(HostSim, InterOpParallelismCutsLatency) {
  // A.2: ~20% latency reduction from overlapping embedding operators.
  HostSimConfig serial_cfg = SmallHostConfig();
  serial_cfg.inference.inter_op_parallelism = false;
  HostSimConfig parallel_cfg = SmallHostConfig();
  parallel_cfg.inference.inter_op_parallelism = true;

  HostSimulation serial(serial_cfg);
  HostSimulation parallel(parallel_cfg);
  ASSERT_TRUE(serial.LoadModel(SmallModel()).ok());
  ASSERT_TRUE(parallel.LoadModel(SmallModel()).ok());
  serial.Warmup(1000);
  parallel.Warmup(1000);
  const HostRunReport rs = serial.Run(100, 500);
  const HostRunReport rp = parallel.Run(100, 500);
  EXPECT_LT(rp.p50.nanos(), rs.p50.nanos());
}

TEST(HostSim, AdmissionQueueBoundsConcurrency) {
  HostSimConfig cfg = SmallHostConfig();
  cfg.inference.max_concurrent_queries = 2;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  // Overload: latency inflates because queries queue, but all complete.
  const HostRunReport r = sim.Run(100'000, 300);
  EXPECT_EQ(r.queries_completed, 300u);
  EXPECT_GT(r.p99.nanos(), r.p50.nanos());
}

TEST(HostSim, FindMaxQpsRespectsSla) {
  HostSimulation sim(SmallHostConfig());
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  sim.Warmup(2000);
  const double qps = sim.FindMaxQps(Millis(20), /*use_p99=*/false, 400, 50, 20'000);
  EXPECT_GT(qps, 50);
  const HostRunReport check = sim.Run(qps * 0.9, 500);
  EXPECT_LE(check.p95.nanos(), Millis(20).nanos() * 2);
}

TEST(HostSim, OptaneSustainsHigherQpsThanNandAtSla) {
  // §5.2's core claim: under accelerated (high) QPS the user-embedding IO
  // stream saturates Nand long before Optane — Nand's max SLA-compliant
  // QPS collapses. Row cache off so the devices see the raw Eq. 8 IOPS.
  ModelConfig model = MakeTinyUniformModel(16, 8, 2, 4000);

  HostSimConfig nand_cfg = SmallHostConfig(MakeHwAN());
  nand_cfg.tuning.enable_row_cache = false;
  HostSimConfig optane_cfg = SmallHostConfig(MakeHwAO());
  optane_cfg.tuning.enable_row_cache = false;
  HostSimulation nand(nand_cfg);
  HostSimulation optane(optane_cfg);
  ASSERT_TRUE(nand.LoadModel(model).ok());
  ASSERT_TRUE(optane.LoadModel(model).ok());
  const double nand_qps = nand.FindMaxQps(Millis(2), false, 500, 20, 40'000);
  const double optane_qps = optane.FindMaxQps(Millis(2), false, 500, 20, 40'000);
  EXPECT_GT(optane_qps, 1.5 * nand_qps);
}

TEST(HostSim, OneHostClusterKeepsTheHostSeedsIsPinned) {
  // Golden values captured from the standalone single-host driver that
  // HostSimulation replaced: a cluster of one seeds its store with `seed`
  // and its workload with `workload.seed`, so every single-host result
  // stays as it was. A drifted seed rule moves the hit rate, IOPS and the
  // metrics export.
  HostSimConfig cfg = SmallHostConfig();
  cfg.tuning.obs.enable_metrics = true;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(SmallModel()).ok());
  EXPECT_EQ(sim.Run(500, 400).Summary(),
            "qps=540/500 p50=0.11ms p95=0.78ms p99=0.78ms hit=71.9% pooled=0.0% "
            "iops=4791 amp=1.00 cpu/q=38us sf=2 xmerge=0 occ=3.6 pf=0 pfhit=0.0% "
            "pfwaste=0KiB err=0 retry=0 ddl=0 hedge=0/0 deg=0 rowsf=0 shed=0 rot=0 "
            "rrd=0 rep=0 xrep=0");
  EXPECT_EQ(sim.Run(20'000, 400).Summary(),
            "qps=21602/20000 p50=0.11ms p95=0.78ms p99=0.78ms hit=88.5% pooled=0.0% "
            "iops=80844 amp=1.00 cpu/q=27us sf=1 xmerge=0 occ=2.4 pf=0 pfhit=0.0% "
            "pfwaste=0KiB err=0 retry=0 ddl=0 hedge=0/0 deg=0 rowsf=0 shed=0 rot=0 "
            "rrd=0 rep=0 xrep=0");
  EXPECT_EQ(sim.ObsMetricsJson().size(), 131'252u);
}

// ---------------------------------------------------------------------------
// Power model (Tables 8/9/10/11 arithmetic).
// ---------------------------------------------------------------------------

TEST(PowerModel, Table8Reproduction) {
  // HW-L: 240 QPS at power 1.0; HW-SS+SDM: 120 QPS at power 0.4; demand
  // 288000 QPS total (1200 HW-L hosts).
  FleetScenario hw_l{"HW-L", 288'000, 240, 1.0, 0, 0};
  FleetScenario hw_ss{"HW-SS + SDM", 288'000, 120, 0.4, 0, 0};
  const FleetEstimate a = EvaluateFleet(hw_l);
  const FleetEstimate b = EvaluateFleet(hw_ss);
  EXPECT_DOUBLE_EQ(a.main_hosts, 1200);
  EXPECT_DOUBLE_EQ(b.main_hosts, 2400);
  EXPECT_DOUBLE_EQ(a.total_power, 1200);
  EXPECT_DOUBLE_EQ(b.total_power, 960);
  EXPECT_NEAR(PowerSaving(a, b), 0.20, 1e-9);
}

TEST(PowerModel, Table9Reproduction) {
  const double total = 450.0 * 1500;  // 675K QPS demand
  // Scale-out: HW-AN at 450 QPS + 1 HW-S (0.25 power) per 5 mains.
  ScaleOutModel so;
  const FleetScenario scale_out = so.Fleet("HW-AN + ScaleOut", total, 450, 1.0, 0.25);
  // Nand SDM: QPS collapses (paper: 230); Optane SDM holds 450.
  FleetScenario nand{"HW-AN + SDM", total, 230, 1.0, 0, 0};
  FleetScenario optane{"HW-AO + SDM", total, 450, 1.0, 0, 0};
  const FleetEstimate e_so = EvaluateFleet(scale_out);
  const FleetEstimate e_nand = EvaluateFleet(nand);
  const FleetEstimate e_opt = EvaluateFleet(optane);
  EXPECT_DOUBLE_EQ(e_so.main_hosts, 1500);
  EXPECT_DOUBLE_EQ(e_so.helper_hosts, 300);
  EXPECT_DOUBLE_EQ(e_so.total_power, 1575);
  EXPECT_NEAR(e_nand.main_hosts, 2935, 1);  // paper rounds to 2978
  EXPECT_DOUBLE_EQ(e_opt.total_power, 1500);
  EXPECT_NEAR(PowerSaving(e_so, e_opt), 0.0476, 0.001);  // ~5%
  EXPECT_GT(e_nand.total_power, e_so.total_power);       // Nand loses
}

TEST(PowerModel, Table10SsdSizing) {
  // M3: 3150 QPS, 2000 user tables, PF 30, 80% hit rate -> ~36 MIOPS niner
  // Optane drives (after ~5% utilization headroom the paper implies).
  SsdSizingInput in;
  in.qps = 3150;
  in.user_tables = 2000;
  in.avg_pooling = 30;
  in.cache_hit_rate = 0.80;
  in.per_ssd_iops = 4e6;
  in.target_device_utilization = 1.0;
  const SsdSizingResult r = ComputeSsdRequirement(in);
  EXPECT_NEAR(r.required_iops / 1e6, 37.8, 0.1);  // paper rounds to 36
  EXPECT_EQ(r.ssds_needed, 10);  // ceil(37.8/4); paper's 36 -> 9
  // With the paper's rounded 36 MIOPS figure:
  in.qps = 3000;
  const SsdSizingResult r2 = ComputeSsdRequirement(in);
  EXPECT_EQ(r2.ssds_needed, 9);
}

TEST(PowerModel, Table11MultiTenancy) {
  const MultiTenancyEstimate e = EvaluateMultiTenancy(MultiTenancyScenario{});
  EXPECT_NEAR(e.fleet_power_ratio, 0.71, 0.01);   // paper: 0.71
  EXPECT_NEAR(e.perf_per_watt_gain, 0.41, 0.02);  // "up to 29% power saving"
}

TEST(PowerModel, FleetSummaryReadable) {
  const FleetEstimate e = EvaluateFleet({"x", 1000, 100, 1.0, 0, 0});
  EXPECT_NE(e.Summary().find("hosts=10"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cluster routing (Fig. 4c).
// ---------------------------------------------------------------------------

TEST(Cluster, StickyRoutingIsDeterministic) {
  StickyRouter r(8, RoutingPolicy::kUserSticky, 1);
  for (UserId u = 0; u < 100; ++u) {
    EXPECT_EQ(r.Route(u), r.Route(u));
  }
}

TEST(Cluster, MeanHitRateIgnoresIdleHosts) {
  // Regression: the old report divided the hit-rate sum by hosts_.size(),
  // so idle hosts (empty user share) deflated the mean. One user -> the
  // sticky router sends ALL traffic to one host; the cluster mean must be
  // that host's hit rate, not hit/6.
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 8000);
  HostSimConfig cfg = SmallHostConfig();
  cfg.workload.num_users = 1;
  ClusterSimulation cluster(6, cfg, RoutingPolicy::kUserSticky);
  ASSERT_TRUE(cluster.LoadModel(model).ok());
  const ClusterRunReport r = cluster.Run(300, 2000);
  ASSERT_EQ(r.hosts.size(), 6u);
  size_t active = 0;
  size_t active_idx = 0;
  for (size_t i = 0; i < r.hosts.size(); ++i) {
    if (r.hosts[i].run.queries_served > 0) {
      ++active;
      active_idx = i;
    }
  }
  // Idle hosts are distinguishable: queries_served stays 0 on their
  // report entries.
  ASSERT_EQ(active, 1u);
  EXPECT_EQ(r.hosts[active_idx].run.queries_served, 2000u);
  EXPECT_GT(r.hosts[active_idx].run.row_cache_hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_hit_rate, r.hosts[active_idx].run.row_cache_hit_rate);
}

TEST(Cluster, LocalRoutingServesEveryArrivalWhereItLands) {
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 8000);
  ClusterSimulation cluster(3, SmallHostConfig(), RoutingPolicy::kLocal);
  ASSERT_TRUE(cluster.LoadModel(model).ok());
  const ClusterRunReport r = cluster.Run(300, 900);
  for (const auto& h : r.hosts) EXPECT_EQ(h.run.queries_served, 300u);
}

TEST(Cluster, RunServesEveryQueryWhenHostsDoNotDivideIt) {
  // Regression: the disaggregated run gave each host num_queries / n
  // arrivals and dropped the remainder (999 of 1,000 here).
  for (const bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "shared stack" : "private stacks");
    ClusterSimulation cluster(3, SmallHostConfig(MakeHwFAO(2)), RoutingPolicy::kLocal,
                              DisaggregatedConfig{.enabled = shared});
    ASSERT_TRUE(cluster.LoadModel(MakeTinyUniformModel(16, 3, 1, 8000)).ok());
    const ClusterRunReport r = cluster.Run(3000, 1000);
    uint64_t served = 0;
    for (const auto& h : r.hosts) served += h.run.queries_served;
    EXPECT_EQ(served, 1000u);
    // The first host draws the remainder.
    EXPECT_EQ(r.hosts[0].run.queries_served, 334u);
    EXPECT_EQ(r.hosts[2].run.queries_served, 333u);
  }
}

TEST(Cluster, StickyBeatsRandomOnHitRate) {
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 8000);
  HostSimConfig host_cfg = SmallHostConfig();
  host_cfg.workload.num_users = 4000;
  host_cfg.workload.user_index_churn = 0.02;

  ClusterSimulation sticky(4, host_cfg, RoutingPolicy::kUserSticky);
  ClusterSimulation random(4, host_cfg, RoutingPolicy::kRandom);
  ASSERT_TRUE(sticky.LoadModel(model).ok());
  ASSERT_TRUE(random.LoadModel(model).ok());
  const ClusterRunReport rs = sticky.Run(400, 4000);
  const ClusterRunReport rr = random.Run(400, 4000);
  EXPECT_GT(rs.mean_hit_rate, rr.mean_hit_rate);
}

// ---------------------------------------------------------------------------
// Multi-tenancy (§5.3).
// ---------------------------------------------------------------------------

TEST(MultiTenant, CoLocatesModelsAndReportsFm) {
  HostSimConfig base = SmallHostConfig(MakeHwFAO(2));
  base.fm_capacity = 24 * kMiB;          // host-level FM pool
  base.sm_backing_per_device = 32 * kMiB;
  base.seed = 77;
  // Each tenant's user embeddings (~5-8 MiB on SM) would not fit in the
  // FM shares without SM — the §5.3 memory-capacity-bound setup.
  const HostRole roles[] = {{MakeTinyUniformModel(64, 2, 1, 40'000), 4 * kMiB},
                            {MakeTinyUniformModel(64, 3, 1, 30'000), 4 * kMiB},
                            {MakeTinyUniformModel(64, 2, 1, 35'000), 4 * kMiB}};
  ClusterSimulation host(3, base, RoutingPolicy::kLocal);
  ASSERT_TRUE(host.LoadModels(roles).ok());
  EXPECT_EQ(host.size(), 3u);
  const ClusterRunReport r = host.Run(3 * 100, 3 * 300);
  ASSERT_EQ(r.hosts.size(), 3u);
  for (const auto& t : r.hosts) {
    EXPECT_EQ(t.run.queries_completed, 300u);
    EXPECT_GT(t.sm_used, 0u);
  }
  // The whole point: the tenant set would NOT fit in FM without SM.
  EXPECT_FALSE(r.fits_in_fm);
  EXPECT_GT(r.fm_total, 0u);
}

TEST(ScaleOut, AddsNetworkLatencyToUserPath) {
  const ScaleOutModel so;
  EXPECT_GT(so.UserPathLatency().nanos(), so.network_rtt.nanos());
}

// ---------------------------------------------------------------------------
// Disaggregated SM: hosts sharing one fabric-attached device stack
// (src/fabric).
// ---------------------------------------------------------------------------

/// Capacity-bound profile (the multitenant bench's): block-granularity
/// reads, no row cache, widened merge window — hot blocks recur at the
/// device, which is the traffic cross-host sharing can absorb.
HostSimConfig DisaggHostConfig() {
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
  cfg.inference.max_concurrent_queries = 32;
  return cfg;
}

ModelConfig DisaggModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // item side stays FM-direct
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return model;
}

TEST(Disaggregated, CrossHostSingleFlightOverFabric) {
  HostSimConfig cfg = DisaggHostConfig();
  cfg.tuning.fabric_latency = Micros(5);
  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky, dc);
  ASSERT_TRUE(cluster.disaggregated());
  ASSERT_TRUE(cluster.LoadModel(DisaggModel()).ok());
  const ClusterRunReport r = cluster.Run(400, 1600);
  ASSERT_EQ(r.hosts.size(), 2u);
  uint64_t per_host_hits = 0;
  for (const auto& h : r.hosts) {
    EXPECT_GT(h.run.queries_served, 0u);
    EXPECT_GT(h.run.queries_completed, 0u);
    per_host_hits += h.share.cross_tenant_hits;
  }
  EXPECT_GT(r.sm_device_reads, 0u);
  // Both hosts serve the same model: replicas dedup to ONE extent set...
  EXPECT_LT(r.sm_unique_bytes, r.sm_logical_bytes);
  // ...and the hosts single-flight each other's hot blocks through the
  // shared fabric service (the per-HOST ledger records whose read it was).
  EXPECT_GT(r.cross_host_hits, 0u);
  EXPECT_EQ(per_host_hits, r.cross_host_hits);
  EXPECT_GT(r.cross_host_bytes_saved, 0u);
  // Every doorbell and every payload paid the fabric.
  EXPECT_GT(r.fabric.requests, 0u);
  EXPECT_EQ(r.fabric.responses, r.sm_device_reads);
  EXPECT_GT(r.fabric.response_bytes, 0u);
  EXPECT_FALSE(r.Summary().empty());
}

TEST(Disaggregated, FabricQueueingKnobGatesFifoSerialization) {
  // tuning.fabric_queueing flows into the shared FabricLink: with a finite
  // bandwidth, FIFO queueing makes concurrent transfers wait behind each
  // other; with the knob off they overlap and no queue delay ever accrues.
  for (const bool queueing : {true, false}) {
    HostSimConfig cfg = DisaggHostConfig();
    cfg.tuning.fabric_latency = Micros(5);
    cfg.tuning.fabric_bandwidth_bytes_per_sec = 1e8;  // 4KiB -> ~40us on the wire
    cfg.tuning.fabric_queueing = queueing;
    DisaggregatedConfig dc;
    dc.enabled = true;
    ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky, dc);
    ASSERT_TRUE(cluster.LoadModel(DisaggModel()).ok());
    const ClusterRunReport r = cluster.Run(400, 1600);
    EXPECT_GT(r.fabric.responses, 0u);
    if (queueing) {
      EXPECT_GT(r.fabric.queue_time.nanos(), 0);
    } else {
      EXPECT_EQ(r.fabric.queue_time.nanos(), 0);
    }
  }
}

/// Co-location profile of the golden pins below: capacity-bound tenants of
/// one base model on 1 MiB FM shares (the multitenant bench's shape).
HostSimConfig CoLocationConfig() {
  HostSimConfig cfg = DisaggHostConfig();
  cfg.fm_capacity = 24 * kMiB;
  cfg.inference.max_concurrent_queries = 0;  // one per core
  cfg.seed = 77;
  return cfg;
}

uint64_t DeviceCounter(SharedDeviceService& s, const char* name) {
  uint64_t total = 0;
  for (size_t d = 0; d < s.device_count(); ++d) total += s.device(d).stats().CounterValue(name);
  return total;
}

TEST(Disaggregated, InstantFabricFgBgCoLocationIsPinned) {
  // Golden values of the fg + bg co-location on one shared stack, captured
  // from the retired standalone multi-tenant driver: an instant fabric with
  // kLocal routing reproduces it bit for bit.
  const HostRole roles[] = {{DisaggModel(), 1 * kMiB, TenantClass::kForeground},
                            {DisaggModel(), 1 * kMiB, TenantClass::kBackground}};
  ClusterSimulation cluster(2, CoLocationConfig(), RoutingPolicy::kLocal,
                            DisaggregatedConfig{.enabled = true});
  ASSERT_TRUE(cluster.LoadModels(roles).ok());
  const ClusterRunReport r = cluster.Run(2 * 8000.0, 2 * 600);

  SharedDeviceService& svc = cluster.fabric_service()->device_service();
  EXPECT_EQ(DeviceCounter(svc, "reads"), 22'446u);
  EXPECT_EQ(DeviceCounter(svc, "bus_bytes"), 97'234'944u);
  EXPECT_EQ(r.sm_device_reads, 22'446u);
  EXPECT_EQ(r.io.background_parked, 81u);
  EXPECT_EQ(r.io.background_promoted, 317u);
  const int64_t p99[] = {475'135, 573'439};
  const uint64_t cross_host_hits[] = {215, 186};
  const int64_t throttle_queue_ns[] = {28'218'086, 51'187'803};
  ASSERT_EQ(r.hosts.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(testing::Message() << "host " << i);
    EXPECT_EQ(r.hosts[i].run.queries_served, 600u);
    EXPECT_EQ(r.hosts[i].run.queries_completed, 600u);
    EXPECT_EQ(r.hosts[i].run.p99.nanos(), p99[i]);
    EXPECT_EQ(r.hosts[i].share.cross_tenant_hits, cross_host_hits[i]);
    EXPECT_EQ(r.hosts[i].throttle_queue_time.nanos(), throttle_queue_ns[i]);
  }
  EXPECT_EQ(r.cross_host_hits, 215u + 186u);
  // The instant fabric recorded the traffic it did NOT delay.
  EXPECT_EQ(r.fabric.responses, r.sm_device_reads);
  EXPECT_EQ(r.fabric.queue_time.nanos(), 0);
}

TEST(Cluster, PrivateStackCoLocationIsPinned) {
  // Golden values of two tenants with different models on private stacks,
  // captured when each ran as its own host on its own loop: sharing one
  // loop with a host it shares nothing with changes no host's result.
  ModelConfig other = MakeTinyUniformModel(64, 2, 1, 30'000);
  other.tables.back().num_rows = 3'000;
  const HostRole roles[] = {{DisaggModel(), 1 * kMiB}, {other, 1 * kMiB}};
  ClusterSimulation cluster(2, CoLocationConfig(), RoutingPolicy::kLocal);
  ASSERT_TRUE(cluster.LoadModels(roles).ok());
  const ClusterRunReport r = cluster.Run(2 * 8000.0, 2 * 600);

  const uint64_t reads[] = {11'624, 8'853};
  const uint64_t bus_bytes[] = {50'024'448, 38'469'632};
  const int64_t p99[] = {466'943, 573'439};
  const uint64_t singleflight_hits[] = {2'138, 675};
  const int64_t throttle_queue_ns[] = {29'851'065, 83'258'897};
  ASSERT_EQ(r.hosts.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(testing::Message() << "host " << i);
    SharedDeviceService& svc = cluster.host_store(i).device_service();
    EXPECT_EQ(DeviceCounter(svc, "reads"), reads[i]);
    EXPECT_EQ(DeviceCounter(svc, "bus_bytes"), bus_bytes[i]);
    EXPECT_EQ(r.hosts[i].run.queries_served, 600u);
    EXPECT_EQ(r.hosts[i].run.queries_completed, 600u);
    EXPECT_EQ(r.hosts[i].run.p99.nanos(), p99[i]);
    EXPECT_EQ(r.hosts[i].run.singleflight_hits, singleflight_hits[i]);
    EXPECT_EQ(r.hosts[i].throttle_queue_time.nanos(), throttle_queue_ns[i]);
  }
  EXPECT_EQ(r.sm_device_reads, 11'624u + 8'853u);
  EXPECT_EQ(r.cross_host_hits, 0u);
  EXPECT_EQ(r.sm_unique_bytes, r.sm_logical_bytes);  // private stacks: no dedup
}

TEST(Disaggregated, SharedStackHostsReportTheirOwnCounters) {
  // Regression: hosts on a shared stack reported 0 for their pooled hit
  // rate and CPU per query, which only the single-host path filled.
  HostSimConfig cfg = SmallHostConfig(MakeHwFAO(2));
  cfg.tuning.enable_pooled_cache = true;
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky,
                            DisaggregatedConfig{.enabled = true});
  ASSERT_TRUE(cluster.LoadModel(MakeTinyUniformModel(16, 3, 1, 8000)).ok());
  const ClusterRunReport r = cluster.Run(400, 2000);
  for (const auto& h : r.hosts) {
    EXPECT_GT(h.run.pooled_hit_rate, 0.0);
    EXPECT_GT(h.run.avg_cpu_per_query.nanos(), 0);
    EXPECT_GT(h.run.cpu_qps_bound, 0.0);
    // Stack-wide counters stay in the stack section.
    EXPECT_EQ(h.run.sm_iops, 0.0);
  }
  EXPECT_GT(r.sm_device_reads, 0u);
}

TEST(Disaggregated, DisabledFabricMatchesIsolatedCluster) {
  // A DisaggregatedConfig with enabled=false must build the exact isolated
  // cluster the 3-arg constructor builds.
  ModelConfig model = MakeTinyUniformModel(16, 3, 1, 8000);
  HostSimConfig cfg = SmallHostConfig();
  ClusterSimulation plain(3, cfg, RoutingPolicy::kUserSticky);
  ClusterSimulation disabled(3, cfg, RoutingPolicy::kUserSticky, DisaggregatedConfig{});
  EXPECT_FALSE(disabled.disaggregated());
  ASSERT_TRUE(plain.LoadModel(model).ok());
  ASSERT_TRUE(disabled.LoadModel(model).ok());
  const ClusterRunReport a = plain.Run(300, 1500);
  const ClusterRunReport b = disabled.Run(300, 1500);
  EXPECT_DOUBLE_EQ(a.mean_hit_rate, b.mean_hit_rate);
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts[i].run.queries_served, b.hosts[i].run.queries_served);
    EXPECT_EQ(a.hosts[i].run.queries_completed, b.hosts[i].run.queries_completed);
    EXPECT_EQ(a.hosts[i].run.p99.nanos(), b.hosts[i].run.p99.nanos());
  }
  for (size_t i = 0; i < plain.size(); ++i) {
    for (size_t d = 0; d < plain.host_store(i).sm_device_count(); ++d) {
      EXPECT_EQ(plain.host_store(i).sm_device(d).stats().CounterValue("reads"),
                disabled.host_store(i).sm_device(d).stats().CounterValue("reads"));
      EXPECT_EQ(plain.host_store(i).sm_device(d).stats().CounterValue("bus_bytes"),
                disabled.host_store(i).sm_device(d).stats().CounterValue("bus_bytes"));
    }
  }
}

/// Field-by-field equality of two cluster reports (virtual-time
/// metrics only — wall clock never appears in a report).
void ExpectDisaggReportsEqual(const ClusterRunReport& a,
                              const ClusterRunReport& b) {
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (size_t i = 0; i < a.hosts.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "host " << i);
    const HostRunReport& x = a.hosts[i].run;
    const HostRunReport& y = b.hosts[i].run;
    EXPECT_EQ(x.queries_served, y.queries_served);
    EXPECT_EQ(x.queries_completed, y.queries_completed);
    EXPECT_DOUBLE_EQ(x.achieved_qps, y.achieved_qps);
    EXPECT_EQ(x.p50.nanos(), y.p50.nanos());
    EXPECT_EQ(x.p95.nanos(), y.p95.nanos());
    EXPECT_EQ(x.p99.nanos(), y.p99.nanos());
    EXPECT_EQ(x.mean.nanos(), y.mean.nanos());
    EXPECT_DOUBLE_EQ(x.row_cache_hit_rate, y.row_cache_hit_rate);
    EXPECT_DOUBLE_EQ(x.pooled_hit_rate, y.pooled_hit_rate);
    EXPECT_EQ(x.io_errors, y.io_errors);
    EXPECT_EQ(x.singleflight_hits, y.singleflight_hits);
    EXPECT_EQ(x.queries_degraded, y.queries_degraded);
    EXPECT_EQ(x.rows_failed, y.rows_failed);
    EXPECT_EQ(x.blocks_corrupt, y.blocks_corrupt);
    EXPECT_EQ(x.replica_reads, y.replica_reads);
    EXPECT_EQ(x.read_repairs, y.read_repairs);
    EXPECT_EQ(x.extents_replicated, y.extents_replicated);
    EXPECT_EQ(a.hosts[i].share.demand_reads, b.hosts[i].share.demand_reads);
    EXPECT_EQ(a.hosts[i].share.demand_bytes, b.hosts[i].share.demand_bytes);
    EXPECT_EQ(a.hosts[i].share.cross_tenant_hits,
              b.hosts[i].share.cross_tenant_hits);
    EXPECT_EQ(a.hosts[i].share.cross_tenant_bytes_saved,
              b.hosts[i].share.cross_tenant_bytes_saved);
    EXPECT_EQ(a.hosts[i].throttle_queue_time.nanos(),
              b.hosts[i].throttle_queue_time.nanos());
  }
  EXPECT_DOUBLE_EQ(a.mean_hit_rate, b.mean_hit_rate);
  EXPECT_DOUBLE_EQ(a.aggregate_qps, b.aggregate_qps);
  EXPECT_EQ(a.sm_device_reads, b.sm_device_reads);
  EXPECT_EQ(a.io.device_reads, b.io.device_reads);
  EXPECT_EQ(a.io.cross_request_merges, b.io.cross_request_merges);
  EXPECT_EQ(a.io.singleflight_hits, b.io.singleflight_hits);
  EXPECT_EQ(a.io.flushes, b.io.flushes);
  EXPECT_EQ(a.io.deadline_expired, b.io.deadline_expired);
  EXPECT_EQ(a.io.hedges_issued, b.io.hedges_issued);
  EXPECT_EQ(a.io.hedges_won, b.io.hedges_won);
  EXPECT_EQ(a.cross_host_hits, b.cross_host_hits);
  EXPECT_EQ(a.cross_host_bytes_saved, b.cross_host_bytes_saved);
  EXPECT_EQ(a.sm_logical_bytes, b.sm_logical_bytes);
  EXPECT_EQ(a.sm_unique_bytes, b.sm_unique_bytes);
  EXPECT_EQ(a.fabric.requests, b.fabric.requests);
  EXPECT_EQ(a.fabric.responses, b.fabric.responses);
  EXPECT_EQ(a.fabric.request_bytes, b.fabric.request_bytes);
  EXPECT_EQ(a.fabric.response_bytes, b.fabric.response_bytes);
  EXPECT_EQ(a.fabric.queue_time.nanos(), b.fabric.queue_time.nanos());
  EXPECT_EQ(a.fabric.dropped, b.fabric.dropped);
  EXPECT_EQ(a.fabric.partition_deferred, b.fabric.partition_deferred);
  EXPECT_EQ(a.queries_degraded, b.queries_degraded);
  EXPECT_EQ(a.rows_failed, b.rows_failed);
  EXPECT_EQ(a.blocks_corrupt, b.blocks_corrupt);
  EXPECT_EQ(a.replica_reads, b.replica_reads);
  EXPECT_EQ(a.read_repairs, b.read_repairs);
  EXPECT_EQ(a.extents_replicated, b.extents_replicated);
  EXPECT_EQ(a.Summary(), b.Summary());
}

/// One fresh 3-host cluster under a scripted storm: rtt 20us over a
/// queued 25 GB/s fabric, checksums, health monitor and re-replication on.
ClusterRunReport RunStormCluster(const FaultPlan& plan) {
  HostSimConfig cfg = DisaggHostConfig();
  cfg.tuning.fabric_latency = Micros(10);
  cfg.tuning.fabric_bandwidth_bytes_per_sec = 25e9;
  cfg.tuning.fabric_queueing = true;
  cfg.tuning.io_deadline = Millis(20);  // the only rescue for a dropped transfer
  // Re-replication copy retries back off from this base: long enough that
  // they outlast the error burst, so the copy publishes its route.
  cfg.tuning.retry_backoff_base = Millis(40);
  cfg.tuning.enable_checksums = true;
  cfg.tuning.enable_health_monitor = true;
  cfg.tuning.enable_replication = true;
  cfg.tuning.health_window = 8;
  cfg.tuning.health_probe_interval = 16;
  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(3, cfg, RoutingPolicy::kUserSticky, dc);
  EXPECT_TRUE(cluster.LoadModel(DisaggModel()).ok());
  FaultInjector inj(plan, cluster.host_store(0).loop(), /*seed=*/23);
  cluster.fabric_service()->InstallFaultInjector(&inj);
  return cluster.Run(/*total_qps=*/3000, /*num_queries=*/3000);
}

TEST(Disaggregated, FaultStormRunReproducesFieldForField) {
  // The single loop is the one cluster model, so it must replay itself
  // exactly at real load — cross-host reads overlapping in flight — with
  // every fault kind that draws randomness or reorders transfers active.
  FaultPlan plan;
  plan.ErrorBurst(At(Millis(100)), At(Millis(300)), /*probability=*/1.0,
                  /*device=*/0);
  plan.FabricPartition(At(Millis(450)), At(Millis(500)));
  plan.FabricDrop(At(Millis(650)), At(Millis(800)), /*probability=*/0.2);
  const ClusterRunReport a = RunStormCluster(plan);
  const ClusterRunReport b = RunStormCluster(plan);
  // The storm bit and the hosts really shared reads.
  EXPECT_GT(a.cross_host_hits, 0u);
  EXPECT_GT(a.rows_failed, 0u);
  EXPECT_GT(a.fabric.partition_deferred, 0u);
  EXPECT_GT(a.fabric.dropped, 0u);
  EXPECT_GT(a.io.deadline_expired, 0u);
  EXPECT_GT(a.extents_replicated, 0u);
  uint64_t completed = 0;
  uint64_t served = 0;
  for (const auto& h : a.hosts) {
    completed += h.run.queries_completed;
    served += h.run.queries_served;
  }
  EXPECT_EQ(completed, served);  // nothing wedged behind a lost transfer
  ExpectDisaggReportsEqual(a, b);
}

// ---------------------------------------------------------------------------
// Replica loading: one ModelLoader::LoadReplicas pass per cluster.
// ---------------------------------------------------------------------------

/// DisaggHostConfig with batching delay off and a 5us fabric hop.
HostSimConfig ReplicaHostConfig() {
  HostSimConfig cfg = DisaggHostConfig();
  cfg.tuning.max_batch_delay = SimDuration(0);
  cfg.tuning.fabric_latency = Micros(5);
  return cfg;
}

/// Stored bytes of unpruned row `row` of `table` as `store` sees them
/// (through its own mapping tensor), dequantized; empty when pruned away.
std::vector<float> StoredRow(SdmStore& store, TableId table, RowIndex row) {
  const TableRuntime& t = store.table(table);
  RowIndex physical = row;
  if (t.mapping.has_value()) {
    const auto mapped = t.mapping->Lookup(row);
    if (!mapped.has_value()) return {};
    physical = *mapped;
  }
  const Bytes row_bytes = t.config.row_bytes();
  const auto bytes =
      t.tier == MemoryTier::kSm
          ? store.sm_device(t.sm_device).backing().subspan(t.offset + physical * row_bytes,
                                                           row_bytes)
          : store.fm().View(t.offset + physical * row_bytes, row_bytes).value();
  std::vector<float> out(t.config.dim);
  DequantizeRow(t.config.dtype, bytes, out);
  return out;
}

TEST(ReplicaLoad, PrunedModelGivesEveryHostItsOwnMapping) {
  HostSimConfig cfg = ReplicaHostConfig();
  cfg.loader.prune_keep_fraction = 0.75;
  cfg.tuning.deprune_at_load = false;
  const ModelConfig model = DisaggModel();
  constexpr size_t kHosts = 3;

  // A standalone load of the host shape: the per-host reference.
  EventLoop solo_loop;
  SdmStoreConfig solo_cfg;
  solo_cfg.fm_capacity = cfg.fm_capacity;
  solo_cfg.tuning = cfg.tuning;
  solo_cfg.sm_specs = cfg.host.ssds;
  solo_cfg.sm_backing_bytes.assign(cfg.host.ssds.size(), cfg.sm_backing_per_device);
  SdmStore solo(solo_cfg, &solo_loop);
  const auto solo_report = ModelLoader::Load(model, cfg.loader, &solo);
  ASSERT_TRUE(solo_report.ok()) << solo_report.status().ToString();
  ASSERT_GT(solo_report.value().fm_mapping_bytes, 0u);
  ASSERT_GT(solo_report.value().tables_pruned, 0u);

  const std::vector<RowIndex> rows = {0, 1, 17, 999, 12'345, 39'999};
  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(kHosts, cfg, RoutingPolicy::kUserSticky, dc);
  ASSERT_TRUE(cluster.LoadModel(model).ok());

  for (size_t h = 0; h < kHosts; ++h) {
    SCOPED_TRACE(testing::Message() << "host " << h);
    SdmStore& store = cluster.host_store(h);
    EXPECT_EQ(store.fm_mapping_bytes(), solo_report.value().fm_mapping_bytes);
    EXPECT_EQ(store.sm_used_bytes(), solo_report.value().sm_bytes);
    for (size_t t = 0; t < model.tables.size(); ++t) {
      const TableId id = MakeTableId(static_cast<uint32_t>(t));
      const TableRuntime& rt = store.table(id);
      ASSERT_EQ(rt.mapping.has_value(), solo.table(id).mapping.has_value());
      if (rt.mapping.has_value() && h > 0) {
        // Its own copy, not an alias of host 0's tensor.
        EXPECT_NE(rt.mapping->map.data(), cluster.host_store(0).table(id).mapping->map.data());
        EXPECT_EQ(rt.mapping->map, solo.table(id).mapping->map);
      }
      const uint64_t seed = ModelLoader::TableSeed(cfg.loader, t);
      for (const RowIndex r : rows) {
        if (r >= model.tables[t].num_rows) continue;
        const std::vector<float> got = StoredRow(store, id, r);
        if (got.empty()) continue;  // pruned away
        const std::vector<float> ref =
            EmbeddingTableImage::ReferenceRowValues(model.tables[t], seed, r);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t d = 0; d < ref.size(); ++d) {
          EXPECT_NEAR(got[d], ref[d], 2.0f / 255.0f + 1e-5f) << "table " << t << " row " << r;
        }
      }
    }
  }

  // Pooled lookups through each host's own mapping match the reference rows.
  const TableId user = MakeTableId(0);
  const uint64_t seed = ModelLoader::TableSeed(cfg.loader, 0);
  for (size_t h = 0; h < kHosts; ++h) {
    SdmStore& store = cluster.host_store(h);
    std::vector<float> expect(model.tables[0].dim, 0.0f);
    size_t kept = 0;
    for (const RowIndex r : rows) {
      if (!store.table(user).mapping->Lookup(r).has_value()) continue;
      ++kept;
      const auto ref = EmbeddingTableImage::ReferenceRowValues(model.tables[0], seed, r);
      for (size_t d = 0; d < ref.size(); ++d) expect[d] += ref[d];
    }
    ASSERT_GT(kept, 0u);
    LookupEngine engine(&store);
    std::vector<float> pooled;
    bool done = false;
    LookupRequest req;
    req.table = user;
    req.indices = rows;
    engine.Lookup(std::move(req), [&](Status s, std::vector<float> out, const LookupTrace&) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      pooled = std::move(out);
      done = true;
    });
    store.loop()->RunUntilIdle();
    ASSERT_TRUE(done);
    ASSERT_EQ(pooled.size(), expect.size());
    for (size_t d = 0; d < expect.size(); ++d) {
      EXPECT_NEAR(pooled[d], expect[d], static_cast<float>(kept) * (2.0f / 255.0f + 1e-5f))
          << "host " << h;
    }
  }

  // The stack holds one model's worth of bytes for all the hosts.
  const ClusterRunReport r = cluster.Run(/*total_qps=*/2.0, 12);
  EXPECT_EQ(r.sm_unique_bytes, solo_report.value().sm_bytes);
  EXPECT_EQ(r.sm_logical_bytes, kHosts * solo_report.value().sm_bytes);
}

TEST(ReplicaLoad, NoHostMayUpdateAnExtentOtherHostsServe) {
  // Host 0 places every SM extent and host 1 attaches; an in-place refresh
  // from EITHER host would rewrite bytes the other one serves.
  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(2, ReplicaHostConfig(), RoutingPolicy::kUserSticky, dc);
  ASSERT_TRUE(cluster.LoadModel(DisaggModel()).ok());
  UpdateOptions opts;
  opts.row_fraction = 0.1;
  for (const size_t h : {size_t{0}, size_t{1}}) {
    ModelUpdater updater(&cluster.host_store(h));
    const auto report = updater.Update(opts);
    ASSERT_FALSE(report.ok()) << "host " << h;
    EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(cluster.host_store(h).extent_shared(MakeTableId(0)));
  }
}

// ---------------------------------------------------------------------------
// Report formatting pins (shared KvFormatter path).
// ---------------------------------------------------------------------------

TEST(ReportFormat, HostRunReportSummaryIsPinned) {
  // Exact-output pin for the KvFormatter-built summary line: a formatting
  // regression (reordered keys, drifted precision, lost separator) must
  // fail loudly, not silently reshuffle every bench log.
  HostRunReport r;
  r.queries_completed = 100;
  r.offered_qps = 100;
  r.achieved_qps = 98.4;
  r.p50 = Millis(1.5);
  r.p95 = Millis(3.25);
  r.p99 = Millis(7);
  r.row_cache_hit_rate = 0.915;
  r.pooled_hit_rate = 0.25;
  r.sm_iops = 1234.6;
  r.sm_read_amplification = 1.75;
  r.avg_cpu_per_query = Micros(42);
  r.singleflight_hits = 5;
  r.cross_request_merges = 3;
  r.batch_occupancy = 2.5;
  r.prefetch_issued = 10;
  r.prefetch_hit_rate = 0.5;
  r.prefetch_wasted_bytes = 8 * kKiB;
  r.io_errors = 1;
  r.io_retries = 2;
  r.deadline_expired = 1;
  r.hedges_issued = 6;
  r.hedges_won = 2;
  r.queries_degraded = 1;
  r.rows_failed = 3;
  r.lookups_shed = 2;
  r.blocks_corrupt = 1;
  r.read_repairs = 1;
  r.replica_reads = 2;
  r.extents_replicated = 1;
  EXPECT_EQ(r.Summary(),
            "qps=98/100 p50=1.50ms p95=3.25ms p99=7.00ms hit=91.5% "
            "pooled=25.0% iops=1235 amp=1.75 cpu/q=42us sf=5 xmerge=3 "
            "occ=2.5 pf=10 pfhit=50.0% pfwaste=8KiB err=1 retry=2 ddl=1 "
            "hedge=2/6 deg=1 rowsf=3 shed=2 rot=1 rrd=1 rep=2 xrep=1");
}

TEST(ReportFormat, ClusterRunReportSummaryIsPinned) {
  ClusterRunReport r;
  r.hosts.resize(2);
  r.aggregate_qps = 512.3;
  r.mean_hit_rate = 0.805;
  r.sm_device_reads = 1000;
  r.io.singleflight_hits = 40;
  r.io.flushes = 10;
  r.io.device_reads = 20;
  r.io.prefetch_reads = 5;
  r.cross_host_hits = 7;
  r.sm_logical_bytes = 24 * kMiB;
  r.sm_unique_bytes = 16 * kMiB;
  r.fabric.response_bytes = 12 * kMiB / 10;  // 1.2 MiB
  r.fabric.queue_time = Micros(150);
  r.fabric.dropped = 2;
  r.fabric.partition_deferred = 3;
  r.io.deadline_expired = 1;
  r.io.hedges_issued = 4;
  r.io.hedges_won = 1;
  r.queries_degraded = 2;
  r.rows_failed = 5;
  r.blocks_corrupt = 1;
  r.read_repairs = 1;
  r.replica_reads = 2;
  r.extents_replicated = 1;
  EXPECT_EQ(r.Summary(),
            "hosts=2 qps=512 hit=80.5% reads=1000 sf=40 xhost=7 dedup=8.0MiB "
            "fabric=1.2MiB(resp) fq=150us occ=2.5 drop=2 part=3 ddl=1 "
            "hedge=1/4 deg=2 rowsf=5 rot=1 rrd=1 rep=2 xrep=1");
}

}  // namespace
}  // namespace sdm
