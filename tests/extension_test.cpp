// Tests for the extension features: the block cache and multi-level
// arrangement (§4.3 ablation), predicate (cold-row) pruning, media-unit
// latency scaling, and the per-core host capacity model.
#include <gtest/gtest.h>

#include <unordered_set>

#include "cache/block_cache.h"
#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"
#include "trace/trace_gen.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// BlockCache.
// ---------------------------------------------------------------------------

std::vector<uint8_t> PatternBlock(uint8_t seed) {
  std::vector<uint8_t> block(kBlockSize);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<uint8_t>(seed + i);
  }
  return block;
}

TEST(BlockCache, MissOnEmpty) {
  BlockCache cache(BlockCacheConfig{});
  std::vector<uint8_t> out(64);
  EXPECT_FALSE(cache.ReadRange({0, 5}, 0, out));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BlockCache, RangeReadReturnsSubset) {
  BlockCache cache(BlockCacheConfig{});
  cache.InsertBlock({0, 7}, PatternBlock(3));
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(cache.ReadRange({0, 7}, 100, out));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<uint8_t>(3 + 100 + i));
  }
}

TEST(BlockCache, DevicesAreDistinct) {
  BlockCache cache(BlockCacheConfig{});
  cache.InsertBlock({0, 7}, PatternBlock(1));
  std::vector<uint8_t> out(8);
  EXPECT_FALSE(cache.ReadRange({1, 7}, 0, out));
  EXPECT_TRUE(cache.ReadRange({0, 7}, 0, out));
}

TEST(BlockCache, EvictsLruAtCapacity) {
  BlockCacheConfig cfg;
  cfg.capacity = 4 * (kBlockSize + 64);  // 4 blocks
  BlockCache cache(cfg);
  for (uint64_t b = 0; b < 8; ++b) cache.InsertBlock({0, b}, PatternBlock(1));
  EXPECT_LE(cache.block_count(), 4u);
  std::vector<uint8_t> out(8);
  EXPECT_FALSE(cache.ReadRange({0, 0}, 0, out));  // oldest gone
  EXPECT_TRUE(cache.ReadRange({0, 7}, 0, out));   // newest present
  EXPECT_GE(cache.stats().evictions, 4u);
}

TEST(BlockCache, TouchRefreshesLru) {
  BlockCacheConfig cfg;
  cfg.capacity = 2 * (kBlockSize + 64);
  BlockCache cache(cfg);
  std::vector<uint8_t> out(8);
  cache.InsertBlock({0, 1}, PatternBlock(1));
  cache.InsertBlock({0, 2}, PatternBlock(2));
  ASSERT_TRUE(cache.ReadRange({0, 1}, 0, out));  // 1 becomes MRU
  cache.InsertBlock({0, 3}, PatternBlock(3));    // evicts 2
  EXPECT_TRUE(cache.Contains({0, 1}));
  EXPECT_FALSE(cache.Contains({0, 2}));
}

TEST(BlockCache, OverwriteReplacesData) {
  BlockCache cache(BlockCacheConfig{});
  cache.InsertBlock({0, 1}, PatternBlock(1));
  cache.InsertBlock({0, 1}, PatternBlock(9));
  std::vector<uint8_t> out(4);
  ASSERT_TRUE(cache.ReadRange({0, 1}, 0, out));
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(cache.block_count(), 1u);
}

TEST(BlockCache, ClearResets) {
  BlockCache cache(BlockCacheConfig{});
  cache.InsertBlock({0, 1}, PatternBlock(1));
  cache.Clear();
  EXPECT_EQ(cache.block_count(), 0u);
  EXPECT_EQ(cache.memory_used(), 0u);
}

// ---------------------------------------------------------------------------
// Multi-level cache through the store.
// ---------------------------------------------------------------------------

struct MlStore {
  EventLoop loop;
  std::unique_ptr<SdmStore> store;
  ModelConfig model;
  LoaderOptions loader;
};

std::unique_ptr<MlStore> MakeMultiLevelStore(double block_fraction = 0.5) {
  auto ms = std::make_unique<MlStore>();
  ms->model = MakeTinyUniformModel(16, 2, 1, 2000);
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  cfg.tuning.enable_block_cache = true;
  cfg.tuning.block_cache_fraction = block_fraction;
  ms->store = std::make_unique<SdmStore>(cfg, &ms->loop);
  auto report = ModelLoader::Load(ms->model, ms->loader, ms->store.get());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return ms;
}

TEST(MultiLevel, StoreBuildsBlockCacheWithSplitBudget) {
  auto ms = MakeMultiLevelStore(0.5);
  ASSERT_NE(ms->store->block_cache(), nullptr);
  ASSERT_NE(ms->store->row_cache(), nullptr);
  const Bytes budget = ms->store->fm_cache_budget();
  EXPECT_NEAR(static_cast<double>(ms->store->row_cache()->capacity()),
              static_cast<double>(budget) / 2, static_cast<double>(budget) * 0.02);
  EXPECT_NEAR(static_cast<double>(ms->store->block_cache()->capacity()),
              static_cast<double>(budget) / 2, static_cast<double>(budget) * 0.02);
}

TEST(MultiLevel, DisabledByDefault) {
  EventLoop loop;
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  SdmStore store(cfg, &loop);
  ASSERT_TRUE(ModelLoader::Load(MakeTinyUniformModel(16, 1, 1, 500), {}, &store).ok());
  EXPECT_EQ(store.block_cache(), nullptr);
}

std::pair<std::vector<float>, LookupTrace> DoLookup(MlStore& ms, LookupEngine& engine,
                                                    std::vector<RowIndex> indices) {
  std::vector<float> pooled;
  LookupTrace trace;
  LookupRequest req;
  req.table = MakeTableId(0);
  req.indices = std::move(indices);
  engine.Lookup(std::move(req),
                [&](Status s, std::vector<float> out, const LookupTrace& t) {
                  EXPECT_TRUE(s.ok()) << s.ToString();
                  pooled = std::move(out);
                  trace = t;
                });
  ms.loop.RunUntilIdle();
  return {pooled, trace};
}

TEST(MultiLevel, NeighbourRowServedFromBlockCache) {
  auto ms = MakeMultiLevelStore();
  LookupEngine engine(ms->store.get());
  // Rows 0 and 1 share a 4KB block (24B rows). Read row 0: block IO fills
  // the block cache. Reading row 1 must then hit the block layer, not SM.
  const auto [p0, t0] = DoLookup(*ms, engine, {0});
  EXPECT_EQ(t0.rows_from_sm, 1u);
  const auto [p1, t1] = DoLookup(*ms, engine, {1});
  EXPECT_EQ(t1.rows_from_block_cache, 1u);
  EXPECT_EQ(t1.rows_from_sm, 0u);

  // And the value is still bit-exact versus the source image.
  const uint64_t seed = ms->loader.seed ^ (0xabcdef12345678ULL * 1);
  const auto image = EmbeddingTableImage::GenerateRandom(ms->model.tables[0], seed);
  const auto ref = image.DequantizedRow(1);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(p1[i], ref[i], 1e-5f);
}

TEST(MultiLevel, RowCacheStillFirstLevel) {
  auto ms = MakeMultiLevelStore();
  LookupEngine engine(ms->store.get());
  (void)DoLookup(*ms, engine, {5});
  const auto [p, trace] = DoLookup(*ms, engine, {5});  // row cache now holds it
  EXPECT_EQ(trace.rows_from_cache, 1u);
  EXPECT_EQ(trace.rows_from_block_cache, 0u);
}

TEST(MultiLevel, BlockReadsAmplifyBusTraffic) {
  auto ms = MakeMultiLevelStore();
  LookupEngine engine(ms->store.get());
  const auto [p, trace] = DoLookup(*ms, engine, {100});
  // The miss fetched a whole 4KB block for one 24B row: 170x the single-
  // level sub-block path's bus traffic.
  EXPECT_EQ(trace.rows_from_sm, 1u);
  EXPECT_GE(ms->store->sm_device(0).stats().CounterValue("bus_bytes"), kBlockSize);
}

// ---------------------------------------------------------------------------
// Predicate (cold-row) pruning through the loader.
// ---------------------------------------------------------------------------

TEST(PredicatePruning, KeepsExactlyThePredicateRows) {
  const ModelConfig model = MakeTinyUniformModel(16, 1, 0, 1000);
  EventLoop loop;
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  SdmStore store(cfg, &loop);
  LoaderOptions loader;
  loader.prune_keep_predicate = [](size_t /*table*/, RowIndex row) {
    return row % 3 == 0;  // keep every third row
  };
  auto report = ModelLoader::Load(model, loader, &store);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().tables_pruned, 1u);

  const TableRuntime& rt = store.table(MakeTableId(0));
  ASSERT_TRUE(rt.mapping.has_value());
  for (RowIndex r = 0; r < 1000; ++r) {
    EXPECT_EQ(rt.mapping->Lookup(r).has_value(), r % 3 == 0) << r;
  }
  EXPECT_EQ(rt.config.num_rows, 334u);  // ceil(1000/3)
}

TEST(PredicatePruning, LookupSkipsPredicatePrunedRows) {
  const ModelConfig model = MakeTinyUniformModel(16, 1, 0, 1000);
  EventLoop loop;
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  SdmStore store(cfg, &loop);
  LoaderOptions loader;
  loader.prune_keep_predicate = [](size_t, RowIndex row) { return row % 3 == 0; };
  ASSERT_TRUE(ModelLoader::Load(model, loader, &store).ok());
  LookupEngine engine(&store);
  LookupTrace trace;
  LookupRequest req;
  req.table = MakeTableId(0);
  req.indices = {0, 1, 2, 3};  // 0 and 3 kept; 1 and 2 pruned
  engine.Lookup(std::move(req), [&](Status s, std::vector<float>, const LookupTrace& t) {
    ASSERT_TRUE(s.ok());
    trace = t;
  });
  loop.RunUntilIdle();
  EXPECT_EQ(trace.rows_pruned_skipped, 2u);
  EXPECT_EQ(trace.rows_from_sm, 2u);
}

// ---------------------------------------------------------------------------
// Media-unit latency scaling (size-dependent device occupancy).
// ---------------------------------------------------------------------------

TEST(MediaUnits, LargeReadsSaturateEarlier) {
  // On Optane (512B natural unit), 4KB reads should cap throughput at ~1/8
  // of the 512B rate.
  const DeviceSpec spec = MakeOptaneSsdSpec();
  auto throughput = [&](Bytes bytes) {
    LatencyModel model(spec, 5);
    const int n = 50'000;
    SimTime last(0);
    for (int i = 0; i < n; ++i) {
      last = std::max(last, model.CompleteRead(SimTime(0), bytes));
    }
    return n / last.seconds();
  };
  const double small_iops = throughput(512);
  const double big_iops = throughput(4096);
  EXPECT_NEAR(small_iops / big_iops, 8.0, 1.0);
}

TEST(MediaUnits, SubUnitReadsCostOneUnit) {
  const DeviceSpec spec = MakeOptaneSsdSpec();
  LatencyModel a(spec, 6);
  LatencyModel b(spec, 6);
  // 64B and 512B reads occupy the channel identically (one unit).
  const SimDuration lat_small = a.CompleteRead(SimTime(0), 64) - SimTime(0);
  const SimDuration lat_unit = b.CompleteRead(SimTime(0), 512) - SimTime(0);
  EXPECT_NEAR(static_cast<double>(lat_small.nanos()),
              static_cast<double>(lat_unit.nanos()),
              static_cast<double>(lat_unit.nanos()) * 0.1);
}

// ---------------------------------------------------------------------------
// Per-core host capacity model.
// ---------------------------------------------------------------------------

TEST(HostCapacity, CoresFollowSockets) {
  EXPECT_EQ(MakeHwL().cores(), 40);
  EXPECT_EQ(MakeHwSS().cores(), 20);
}

TEST(HostCapacity, AdmissionDefaultsToCores) {
  HostSimConfig cfg;
  cfg.host = MakeHwSS();
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  cfg.inference.max_concurrent_queries = 0;  // auto
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000)).ok());
  EXPECT_EQ(sim.engine().config().max_concurrent_queries, 20);
}

TEST(HostCapacity, TwoSocketsSustainRoughlyTwiceTheQps) {
  // Same model, same per-core speed; the dual-socket host should saturate
  // at about 2x the single-socket host's throughput (the Table 8 mechanism).
  ModelConfig model = MakeTinyUniformModel(16, 2, 1, 2000);
  model.num_mlp_layers = 8;
  model.avg_mlp_width = 256;  // ~1M flops/sample -> dense-dominated

  auto max_qps = [&](HostSpec host) {
    HostSimConfig cfg;
    cfg.host = std::move(host);
    cfg.fm_capacity = 8 * kMiB;
    cfg.sm_backing_per_device = 16 * kMiB;
    cfg.workload.num_users = 500;
    HostSimulation sim(cfg);
    EXPECT_TRUE(sim.LoadModel(model).ok());
    sim.Warmup(1000);
    return sim.FindMaxQps(Millis(5), false, 800, 50, 500'000);
  };
  const HostSpec one = MakeHwSS();
  HostSpec two = MakeHwSS();  // same host type, doubled sockets
  two.name = "HW-SS-2S";
  two.cpu_sockets = 2;
  const double q1 = max_qps(one);
  const double q2 = max_qps(two);
  EXPECT_NEAR(q2 / q1, 2.0, 0.6);
}

TEST(HostCapacity, PerRunCpuAccountingIsStable) {
  HostSimConfig cfg;
  cfg.host = MakeHwSS();
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(MakeTinyUniformModel(16, 2, 1, 2000)).ok());
  sim.Warmup(2000);
  const HostRunReport a = sim.Run(200, 500);
  const HostRunReport b = sim.Run(200, 500);
  // Per-run deltas: consecutive steady-state runs should agree, not grow
  // with accumulated history.
  EXPECT_NEAR(static_cast<double>(a.avg_cpu_per_query.nanos()),
              static_cast<double>(b.avg_cpu_per_query.nanos()),
              static_cast<double>(a.avg_cpu_per_query.nanos()) * 0.25);
}

TEST(HostCapacity, SummaryStringHasKeyFields) {
  HostRunReport r;
  r.achieved_qps = 100;
  r.offered_qps = 120;
  const std::string s = r.Summary();
  EXPECT_NE(s.find("qps="), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace sdm
