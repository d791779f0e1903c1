// Tests for src/core: tuning validation, placement policies, SdmStore
// loading/accounting, LookupEngine (Algorithm 1), ModelLoader transforms,
// ModelUpdater.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "core/model_updater.h"
#include "core/placement.h"
#include "core/sdm_store.h"
#include "dlrm/model_zoo.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

ModelConfig TinyModel(size_t user_tables = 3, size_t item_tables = 1,
                      uint64_t rows = 2000, uint32_t dim = 16) {
  return MakeTinyUniformModel(dim, user_tables, item_tables, rows);
}

TuningConfig BaseTuning() {
  TuningConfig t;
  t.row_cache.capacity = 0;  // auto-size from FM budget
  t.enable_row_cache = true;
  t.sub_block_reads = true;
  return t;
}

SdmStoreConfig BaseStoreConfig(TuningConfig tuning = BaseTuning()) {
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  cfg.tuning = std::move(tuning);
  return cfg;
}

struct LoadedStore {
  EventLoop loop;
  std::unique_ptr<SdmStore> store;
  LoadReport report;
  ModelConfig model;
};

std::unique_ptr<LoadedStore> MakeLoadedStore(ModelConfig model,
                                             TuningConfig tuning = BaseTuning(),
                                             LoaderOptions loader = {},
                                             SdmStoreConfig base = BaseStoreConfig()) {
  auto ls = std::make_unique<LoadedStore>();
  ls->model = std::move(model);
  base.tuning = std::move(tuning);
  ls->store = std::make_unique<SdmStore>(base, &ls->loop);
  auto report = ModelLoader::Load(ls->model, loader, ls->store.get());
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  ls->report = std::move(report).value();
  return ls;
}

/// Runs one lookup synchronously on the loop; returns (pooled, trace).
std::pair<std::vector<float>, LookupTrace> RunLookup(LoadedStore& ls, LookupEngine& engine,
                                                     TableId table,
                                                     std::vector<RowIndex> indices,
                                                     PoolingMode mode = PoolingMode::kSum) {
  std::vector<float> pooled;
  LookupTrace trace;
  bool done = false;
  LookupRequest req;
  req.table = table;
  req.indices = std::move(indices);
  req.mode = mode;
  engine.Lookup(std::move(req),
                [&](Status s, std::vector<float> out, const LookupTrace& t) {
                  EXPECT_TRUE(s.ok()) << s.ToString();
                  pooled = std::move(out);
                  trace = t;
                  done = true;
                });
  ls.loop.RunUntilIdle();
  EXPECT_TRUE(done);
  return {pooled, trace};
}

/// Reference pooled value computed straight from the deterministic images.
std::vector<float> ReferencePooled(const LoadedStore& ls, size_t table,
                                   const std::vector<RowIndex>& indices,
                                   const LoaderOptions& loader = {}) {
  const TableConfig& cfg = ls.model.tables[table];
  const uint64_t seed = loader.seed ^ (0xabcdef12345678ULL * (table + 1));
  const auto image = EmbeddingTableImage::GenerateRandom(cfg, seed);
  std::vector<float> out(cfg.dim, 0.0f);
  for (const RowIndex idx : indices) {
    const auto row = image.DequantizedRow(idx);
    for (size_t i = 0; i < out.size(); ++i) out[i] += row[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// TuningConfig.
// ---------------------------------------------------------------------------

TEST(Tuning, DefaultValidates) { EXPECT_TRUE(BaseTuning().Validate().ok()); }

TEST(Tuning, RejectsBadQueueDepth) {
  TuningConfig t = BaseTuning();
  t.io_queue_depth = 0;
  EXPECT_FALSE(t.Validate().ok());
}

TEST(Tuning, RejectsBadFraction) {
  TuningConfig t = BaseTuning();
  t.row_cache.memory_optimized_fraction = 1.5;
  EXPECT_FALSE(t.Validate().ok());
}

TEST(Tuning, FixedFmNeedsBudget) {
  TuningConfig t = BaseTuning();
  t.placement = PlacementPolicy::kFixedFmSmWithCache;
  t.placement_dram_budget = 0;
  EXPECT_FALSE(t.Validate().ok());
  t.placement_dram_budget = kMiB;
  EXPECT_TRUE(t.Validate().ok());
}

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

TEST(Placement, SmOnlyPutsUserTablesOnSmItemOnFm) {
  const ModelConfig model = TinyModel(3, 2);
  const auto plan = ComputePlacement(model, BaseTuning());
  ASSERT_TRUE(plan.ok());
  for (size_t i = 0; i < model.tables.size(); ++i) {
    const auto& p = plan.value().tables[i];
    if (model.tables[i].role == TableRole::kUser) {
      EXPECT_EQ(p.tier, MemoryTier::kSm) << i;
      EXPECT_TRUE(p.cache_enabled);
    } else {
      EXPECT_EQ(p.tier, MemoryTier::kFm) << i;
    }
  }
}

TEST(Placement, NeverOnSmPinsToFm) {
  const ModelConfig model = TinyModel(3, 1);
  TuningConfig t = BaseTuning();
  t.never_on_sm.insert(model.tables[0].name);
  const auto plan = ComputePlacement(model, t);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().tables[0].tier, MemoryTier::kFm);
  EXPECT_EQ(plan.value().tables[1].tier, MemoryTier::kSm);
}

TEST(Placement, FixedFmPicksHighestBwDensity) {
  ModelConfig model = TinyModel(3, 0);
  // Table 0: small and hot (high density); table 1: huge and cold.
  model.tables[0].num_rows = 100;
  model.tables[0].avg_pooling_factor = 50;
  model.tables[1].num_rows = 100'000;
  model.tables[1].avg_pooling_factor = 1;
  TuningConfig t = BaseTuning();
  t.placement = PlacementPolicy::kFixedFmSmWithCache;
  t.placement_dram_budget = model.tables[0].total_bytes() + 1024;
  const auto plan = ComputePlacement(model, t);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().tables[0].tier, MemoryTier::kFm);
  EXPECT_EQ(plan.value().tables[1].tier, MemoryTier::kSm);
  EXPECT_GT(plan.value().tables[0].bw_density, plan.value().tables[1].bw_density);
}

TEST(Placement, PerTableCacheEnablementDisablesLowAlpha) {
  ModelConfig model = TinyModel(2, 0);
  model.tables[0].zipf_alpha = 0.1;  // essentially uniform access
  model.tables[1].zipf_alpha = 0.9;
  TuningConfig t = BaseTuning();
  t.placement = PlacementPolicy::kPerTableCacheEnablement;
  t.cache_enable_min_alpha = 0.4;
  const auto plan = ComputePlacement(model, t);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().tables[0].cache_enabled);
  EXPECT_TRUE(plan.value().tables[1].cache_enabled);
}

TEST(Placement, DescribeMentionsTiers) {
  const ModelConfig model = TinyModel(2, 1);
  const auto plan = ComputePlacement(model, BaseTuning());
  ASSERT_TRUE(plan.ok());
  const std::string desc = DescribePlacement(plan.value(), model);
  EXPECT_NE(desc.find("on FM"), std::string::npos);
  EXPECT_NE(desc.find("on SM"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SdmStore.
// ---------------------------------------------------------------------------

TEST(SdmStore, LoadsAndSeals) {
  auto ls = MakeLoadedStore(TinyModel());
  EXPECT_TRUE(ls->store->loading_finished());
  EXPECT_EQ(ls->store->table_count(), 4u);
  EXPECT_GT(ls->store->sm_used_bytes(), 0u);
  EXPECT_GT(ls->store->fm_direct_bytes(), 0u);  // item table
  EXPECT_NE(ls->store->row_cache(), nullptr);
}

TEST(SdmStore, CacheAutoSizedFromRemainingFm) {
  auto ls = MakeLoadedStore(TinyModel());
  const Bytes budget = ls->store->fm_cache_budget();
  EXPECT_EQ(ls->store->row_cache()->capacity(), budget);
  EXPECT_LE(ls->store->fm_direct_bytes() + budget, ls->store->fm_capacity());
}

TEST(SdmStore, RejectsLoadAfterSeal) {
  auto ls = MakeLoadedStore(TinyModel());
  const auto image = EmbeddingTableImage::GenerateRandom(ls->model.tables[0], 1);
  TablePlacement p;
  p.tier = MemoryTier::kSm;
  const auto r = ls->store->LoadTable(image, p, std::nullopt, 100, image.ContentHash());
  EXPECT_FALSE(r.ok());
}

TEST(SdmStore, FmOverCommitFails) {
  SdmStoreConfig cfg = BaseStoreConfig();
  cfg.fm_capacity = 4 * kKiB;  // far too small for the item table
  EventLoop loop;
  SdmStore store(cfg, &loop);
  const auto report = ModelLoader::Load(TinyModel(), {}, &store);
  EXPECT_FALSE(report.ok());
}

TEST(SdmStore, SmOverCommitFails) {
  SdmStoreConfig cfg = BaseStoreConfig();
  cfg.sm_backing_bytes = {32 * kKiB};  // too small for user tables
  EventLoop loop;
  SdmStore store(cfg, &loop);
  const auto report = ModelLoader::Load(TinyModel(), {}, &store);
  EXPECT_FALSE(report.ok());
}

TEST(SdmStore, BalancesTablesAcrossDevices) {
  SdmStoreConfig cfg = BaseStoreConfig();
  cfg.sm_specs = {MakeOptaneSsdSpec(), MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB, 16 * kMiB};
  EventLoop loop;
  SdmStore store(cfg, &loop);
  const ModelConfig model = TinyModel(4, 0);
  ASSERT_TRUE(ModelLoader::Load(model, {}, &store).ok());
  // With 4 similar user tables and 2 devices, both must hold data.
  size_t devices_used = 0;
  for (size_t d = 0; d < store.sm_device_count(); ++d) {
    if (store.sm_device(d).stats().CounterValue("written_bytes") > 0) ++devices_used;
  }
  EXPECT_EQ(devices_used, 2u);
}

TEST(SdmStore, DisabledRowCacheLeavesNull) {
  TuningConfig t = BaseTuning();
  t.enable_row_cache = false;
  auto ls = MakeLoadedStore(TinyModel(), t);
  EXPECT_EQ(ls->store->row_cache(), nullptr);
}

TEST(SdmStore, SubBlockTuningOffDisablesDeviceSupport) {
  TuningConfig t = BaseTuning();
  t.sub_block_reads = false;
  auto ls = MakeLoadedStore(TinyModel(), t);
  EXPECT_FALSE(ls->store->sm_device(0).spec().supports_sub_block);
}

// ---------------------------------------------------------------------------
// LookupEngine — Algorithm 1 correctness.
// ---------------------------------------------------------------------------

TEST(LookupEngine, PooledValueMatchesReference) {
  auto ls = MakeLoadedStore(TinyModel());
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {3, 17, 944, 3};  // duplicates allowed
  const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), indices);
  const auto ref = ReferencePooled(*ls, 0, indices);
  ASSERT_EQ(pooled.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
  EXPECT_EQ(trace.rows_requested, 4u);
  EXPECT_EQ(trace.rows_from_sm + trace.rows_from_cache, 4u);
}

TEST(LookupEngine, FmDirectTableServedWithoutIo) {
  auto ls = MakeLoadedStore(TinyModel());
  LookupEngine engine(ls->store.get());
  // Table 3 is the item table -> FM.
  const TableId item = MakeTableId(3);
  ASSERT_EQ(ls->store->table(item).tier, MemoryTier::kFm);
  const std::vector<RowIndex> indices = {1, 2, 3};
  const auto [pooled, trace] = RunLookup(*ls, engine, item, indices);
  EXPECT_EQ(trace.rows_from_fm_direct, 3u);
  EXPECT_EQ(trace.rows_from_sm, 0u);
  const auto ref = ReferencePooled(*ls, 3, indices);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(LookupEngine, SecondLookupHitsRowCache) {
  auto ls = MakeLoadedStore(TinyModel());
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {10, 20, 30};
  const auto [p1, t1] = RunLookup(*ls, engine, MakeTableId(0), indices);
  EXPECT_EQ(t1.rows_from_sm, 3u);
  const auto [p2, t2] = RunLookup(*ls, engine, MakeTableId(0), indices);
  EXPECT_EQ(t2.rows_from_cache, 3u);
  EXPECT_EQ(t2.rows_from_sm, 0u);
  EXPECT_EQ(p1, p2);
  // Cache hits are also much faster (no device access).
  EXPECT_LT(t2.latency.nanos(), t1.latency.nanos());
}

TEST(LookupEngine, MeanPoolingDividesByIndexCount) {
  auto ls = MakeLoadedStore(TinyModel());
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {5, 5};
  const auto [sum, ts] = RunLookup(*ls, engine, MakeTableId(0), indices, PoolingMode::kSum);
  const auto [mean, tm] =
      RunLookup(*ls, engine, MakeTableId(0), indices, PoolingMode::kMean);
  for (size_t i = 0; i < sum.size(); ++i) EXPECT_NEAR(mean[i], sum[i] / 2.0f, 1e-5f);
}

TEST(LookupEngine, OutOfDomainIndexContributesZero) {
  auto ls = MakeLoadedStore(TinyModel());
  LookupEngine engine(ls->store.get());
  const auto [with_bad, trace] =
      RunLookup(*ls, engine, MakeTableId(0), {7, 999'999'999});
  const auto [just_good, t2] = RunLookup(*ls, engine, MakeTableId(0), {7});
  EXPECT_EQ(trace.rows_pruned_skipped, 1u);
  for (size_t i = 0; i < with_bad.size(); ++i) {
    EXPECT_NEAR(with_bad[i], just_good[i], 1e-5f);
  }
}

TEST(LookupEngine, PooledCacheShortCircuitsSecondRequest) {
  TuningConfig t = BaseTuning();
  t.enable_pooled_cache = true;
  t.pooled_cache.capacity = 256 * kKiB;
  t.pooled_cache.len_threshold = 2;
  auto ls = MakeLoadedStore(TinyModel(), t);
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {4, 8, 15, 16, 23, 42};
  const auto [p1, t1] = RunLookup(*ls, engine, MakeTableId(0), indices);
  EXPECT_FALSE(t1.pooled_cache_hit);
  const auto [p2, t2] = RunLookup(*ls, engine, MakeTableId(0), indices);
  EXPECT_TRUE(t2.pooled_cache_hit);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(t2.rows_from_sm + t2.rows_from_cache, 0u);  // skipped entirely
  EXPECT_LT(t2.latency.nanos(), t1.latency.nanos());
}

TEST(LookupEngine, PooledCacheHitsPermutedSequence) {
  TuningConfig t = BaseTuning();
  t.enable_pooled_cache = true;
  t.pooled_cache.len_threshold = 2;
  auto ls = MakeLoadedStore(TinyModel(), t);
  LookupEngine engine(ls->store.get());
  (void)RunLookup(*ls, engine, MakeTableId(0), {4, 8, 15});
  const auto [p, trace] = RunLookup(*ls, engine, MakeTableId(0), {15, 4, 8});
  EXPECT_TRUE(trace.pooled_cache_hit);
}

TEST(LookupEngine, CacheDisabledTableAlwaysReadsSm) {
  TuningConfig t = BaseTuning();
  t.placement = PlacementPolicy::kPerTableCacheEnablement;
  t.cache_enable_min_alpha = 2.0;  // disable caching for every table
  auto ls = MakeLoadedStore(TinyModel(), t);
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {10, 20};
  (void)RunLookup(*ls, engine, MakeTableId(0), indices);
  const auto [p, trace] = RunLookup(*ls, engine, MakeTableId(0), indices);
  EXPECT_EQ(trace.rows_from_cache, 0u);
  EXPECT_EQ(trace.rows_from_sm, 2u);
}

TEST(LookupEngine, ThrottleBoundsInFlightIos) {
  TuningConfig t = BaseTuning();
  t.throttle.max_outstanding_per_table = 2;
  // Per-row IO so 16 rows really are 16 device IOs contending for the two
  // throttle slots (coalescing would merge them into one read).
  t.io_batching = IoBatching::kPerRow;
  auto ls = MakeLoadedStore(TinyModel(), t);
  LookupEngine engine(ls->store.get());
  // 16 distinct rows -> 16 IOs, but never more than 2 outstanding.
  std::vector<RowIndex> indices;
  for (RowIndex i = 0; i < 16; ++i) indices.push_back(i * 7);
  const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), indices);
  EXPECT_EQ(trace.rows_from_sm, 16u);
  EXPECT_GT(ls->store->throttle().deferred(), 0u);
  const auto ref = ReferencePooled(*ls, 0, indices);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(LookupEngine, LatencyIncludesDeviceTime) {
  auto ls = MakeLoadedStore(TinyModel());
  LookupEngine engine(ls->store.get());
  const auto [p, trace] = RunLookup(*ls, engine, MakeTableId(0), {123});
  // One SM read: latency must be at least the device base latency.
  EXPECT_GE(trace.latency.nanos(),
            ls->store->sm_device(0).spec().base_read_latency.nanos() / 2);
}

TEST(LookupEngine, StatsAccumulate) {
  auto ls = MakeLoadedStore(TinyModel());
  LookupEngine engine(ls->store.get());
  (void)RunLookup(*ls, engine, MakeTableId(0), {1, 2, 3});
  (void)RunLookup(*ls, engine, MakeTableId(0), {1, 2, 3});
  EXPECT_EQ(engine.stats().CounterValue("lookups"), 2u);
  EXPECT_EQ(engine.stats().CounterValue("rows_sm_read"), 3u);
  EXPECT_EQ(engine.stats().CounterValue("rows_cache_hit"), 3u);
  EXPECT_GT(engine.cpu_time().nanos(), 0);
  EXPECT_EQ(engine.latency().count(), 2u);
}

TEST(LookupEngine, LargeDuplicatedBagResolvesEachRowOnce) {
  // 1,536 indices over at most 200 distinct rows: far more than the dedup
  // table's initial size, so it grows. A duplicate fanned out from any slot
  // but its row's first (still empty while slots fill in order) or from a
  // colliding row would break the pooled sum.
  auto ls = MakeLoadedStore(TinyModel());
  LookupEngine engine(ls->store.get());
  Rng rng(11);
  std::vector<RowIndex> indices;
  for (int i = 0; i < 1536; ++i) indices.push_back(rng.NextBounded(200) * 9);
  std::vector<RowIndex> distinct = indices;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  const auto ref = ReferencePooled(*ls, 0, indices);
  for (int pass = 0; pass < 2; ++pass) {  // cold (SM reads), then warm (row cache)
    const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), indices);
    EXPECT_EQ(trace.rows_deduped, indices.size() - distinct.size());
    // Duplicates count under their first occurrence's source.
    EXPECT_EQ(pass == 0 ? trace.rows_from_sm : trace.rows_from_cache, indices.size());
    ASSERT_EQ(pooled.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
  }
  // The next, smaller bag starts with no row seen: only its own repeats dedup.
  const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), {9, 18, 9, 27, 18});
  EXPECT_EQ(trace.rows_deduped, 2u);
  const auto ref_small = ReferencePooled(*ls, 0, {9, 18, 9, 27, 18});
  for (size_t i = 0; i < ref_small.size(); ++i) EXPECT_NEAR(pooled[i], ref_small[i], 1e-4f);
}

// ---------------------------------------------------------------------------
// Pruned tables through the engine.
// ---------------------------------------------------------------------------

TEST(LookupEnginePruning, MappingServedLookupMatchesDeprunedSemantics) {
  LoaderOptions loader;
  loader.prune_keep_fraction = 0.5;
  auto ls = MakeLoadedStore(TinyModel(), BaseTuning(), loader);
  const TableRuntime& rt = ls->store->table(MakeTableId(0));
  ASSERT_TRUE(rt.mapping.has_value());
  EXPECT_GT(ls->store->fm_mapping_bytes(), 0u);

  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), indices);
  // Reference: original rows for kept indices, zero for pruned.
  const TableConfig& cfg = ls->model.tables[0];
  const uint64_t seed = loader.seed ^ (0xabcdef12345678ULL * 1);
  const auto image = EmbeddingTableImage::GenerateRandom(cfg, seed);
  const PrunedTable pruned = PruneTable(image, 0.5, seed + 1);
  std::vector<float> ref(cfg.dim, 0.0f);
  uint32_t kept = 0;
  for (const RowIndex idx : indices) {
    if (pruned.mapping.Lookup(idx).has_value()) {
      const auto row = image.DequantizedRow(idx);
      for (size_t i = 0; i < ref.size(); ++i) ref[i] += row[i];
      ++kept;
    }
  }
  EXPECT_EQ(trace.rows_pruned_skipped, indices.size() - kept);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(LookupEnginePruning, DuplicatesAmongPrunedAndOutOfDomainIndices) {
  LoaderOptions loader;
  loader.prune_keep_fraction = 0.5;
  auto ls = MakeLoadedStore(TinyModel(), BaseTuning(), loader);
  LookupEngine engine(ls->store.get());
  const TableConfig& cfg = ls->model.tables[0];
  const uint64_t seed = loader.seed ^ (0xabcdef12345678ULL * 1);
  const auto image = EmbeddingTableImage::GenerateRandom(cfg, seed);
  const PrunedTable pruned = PruneTable(image, 0.5, seed + 1);

  // Rows 0..11 (some kept, some pruned) and three out-of-domain indices,
  // each repeated three times, interleaved.
  std::vector<RowIndex> indices;
  for (int rep = 0; rep < 3; ++rep) {
    for (RowIndex i = 0; i < 12; ++i) {
      indices.push_back(i);
      indices.push_back(999'999'000 + i % 3);
    }
  }
  std::vector<float> ref(cfg.dim, 0.0f);
  uint32_t kept_slots = 0;
  uint32_t kept_rows = 0;
  for (RowIndex i = 0; i < 12; ++i) {
    if (pruned.mapping.Lookup(i).has_value()) ++kept_rows;
  }
  for (const RowIndex idx : indices) {
    if (!pruned.mapping.Lookup(idx).has_value()) continue;
    const auto row = image.DequantizedRow(idx);
    for (size_t i = 0; i < ref.size(); ++i) ref[i] += row[i];
    ++kept_slots;
  }
  ASSERT_GT(kept_rows, 0u);
  ASSERT_LT(kept_rows, 12u);

  const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), indices);
  EXPECT_EQ(trace.rows_pruned_skipped, indices.size() - kept_slots);
  EXPECT_EQ(trace.rows_deduped, kept_slots - kept_rows);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(LookupEnginePruning, DepruneAtLoadDropsMappingAndMatches) {
  LoaderOptions loader;
  loader.prune_keep_fraction = 0.5;
  TuningConfig t = BaseTuning();
  t.deprune_at_load = true;
  auto ls = MakeLoadedStore(TinyModel(), t, loader);
  const TableRuntime& rt = ls->store->table(MakeTableId(0));
  EXPECT_FALSE(rt.mapping.has_value());
  EXPECT_EQ(ls->store->fm_mapping_bytes(), 0u);

  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), indices);
  EXPECT_EQ(trace.rows_from_sm, indices.size());  // zero rows are read too
  EXPECT_EQ(trace.rows_pruned_skipped, 0u);

  // Same numeric result as the mapping-served variant.
  LoaderOptions loader2 = loader;
  auto ls2 = MakeLoadedStore(TinyModel(), BaseTuning(), loader2);
  LookupEngine engine2(ls2->store.get());
  const auto [pooled2, t2] = RunLookup(*ls2, engine2, MakeTableId(0), indices);
  ASSERT_EQ(pooled.size(), pooled2.size());
  for (size_t i = 0; i < pooled.size(); ++i) EXPECT_NEAR(pooled[i], pooled2[i], 1e-4f);
}

TEST(LookupEnginePruning, DepruneFreesFmForCache) {
  LoaderOptions loader;
  loader.prune_keep_fraction = 0.5;
  auto with_mapping = MakeLoadedStore(TinyModel(), BaseTuning(), loader);
  TuningConfig t = BaseTuning();
  t.deprune_at_load = true;
  auto depruned = MakeLoadedStore(TinyModel(), t, loader);
  // §4.5: de-pruning converts mapping-tensor FM into cache budget.
  EXPECT_GT(depruned->store->fm_cache_budget(), with_mapping->store->fm_cache_budget());
  // ...at the cost of more SM bytes (zero rows).
  EXPECT_GT(depruned->store->sm_used_bytes(), with_mapping->store->sm_used_bytes());
}

// ---------------------------------------------------------------------------
// De-quantization at load (A.5).
// ---------------------------------------------------------------------------

TEST(Dequant, ExpandsSmTablesToFp32) {
  TuningConfig t = BaseTuning();
  t.dequantize_at_load = true;
  auto ls = MakeLoadedStore(TinyModel(), t);
  const TableRuntime& user = ls->store->table(MakeTableId(0));
  EXPECT_EQ(user.config.dtype, DataType::kFp32);
  // Item (FM) tables stay quantized.
  const TableRuntime& item = ls->store->table(MakeTableId(3));
  EXPECT_EQ(item.config.dtype, DataType::kInt8Rowwise);
  EXPECT_EQ(ls->report.tables_dequantized, 3u);
}

TEST(Dequant, LookupStillMatchesReferenceWithinQuantError) {
  TuningConfig t = BaseTuning();
  t.dequantize_at_load = true;
  auto ls = MakeLoadedStore(TinyModel(), t);
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {11, 22, 33};
  const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), indices);
  const auto ref = ReferencePooled(*ls, 0, indices);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

// ---------------------------------------------------------------------------
// ModelUpdater.
// ---------------------------------------------------------------------------

TEST(Updater, FullUpdateRewritesEverything) {
  auto ls = MakeLoadedStore(TinyModel(2, 1, 500));
  ModelUpdater updater(ls->store.get());
  UpdateOptions opts;
  opts.row_fraction = 1.0;
  const auto report = updater.Update(opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows_updated, 3u * 500u);
  EXPECT_GT(report.value().bytes_written, 0u);
  EXPECT_GT(report.value().write_time.nanos(), 0);
}

TEST(Updater, IncrementalWritesFraction) {
  auto ls = MakeLoadedStore(TinyModel(2, 1, 1000));
  ModelUpdater updater(ls->store.get());
  UpdateOptions opts;
  opts.row_fraction = 0.1;
  const auto report = updater.Update(opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows_updated, 3u * 100u);
}

TEST(Updater, OnlineUpdateKeepsServingCorrectValues) {
  auto ls = MakeLoadedStore(TinyModel(2, 1, 200));
  LookupEngine engine(ls->store.get());
  // Warm the cache with row 5.
  (void)RunLookup(*ls, engine, MakeTableId(0), {5});
  ModelUpdater updater(ls->store.get());
  UpdateOptions opts;
  opts.row_fraction = 1.0;
  opts.online = true;
  ASSERT_TRUE(updater.Update(opts).ok());
  // Read back: must see the *new* value (no stale cache), which equals the
  // device contents.
  const auto [pooled, trace] = RunLookup(*ls, engine, MakeTableId(0), {5});
  const TableRuntime& rt = ls->store->table(MakeTableId(0));
  std::vector<uint8_t> raw(rt.config.row_bytes());
  bool read_done = false;
  NvmeDevice::ReadRequest req;
  req.offset = rt.offset + 5 * rt.config.row_bytes();
  req.length = raw.size();
  req.sub_block = true;
  req.dest = raw;
  req.on_complete = [&](Status s, SimDuration) {
    ASSERT_TRUE(s.ok());
    read_done = true;
  };
  ls->store->sm_device(rt.sm_device).SubmitRead(std::move(req));
  ls->loop.RunUntilIdle();
  ASSERT_TRUE(read_done);
  std::vector<float> expected(rt.config.dim);
  DequantizeRow(rt.config.dtype, raw, expected);
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_NEAR(pooled[i], expected[i], 1e-5f);
}

TEST(Updater, OfflineUpdateColdCaches) {
  auto ls = MakeLoadedStore(TinyModel(2, 1, 200));
  LookupEngine engine(ls->store.get());
  (void)RunLookup(*ls, engine, MakeTableId(0), {1, 2, 3});
  EXPECT_GT(ls->store->row_cache()->entry_count(), 0u);
  ModelUpdater updater(ls->store.get());
  UpdateOptions opts;
  opts.online = false;
  ASSERT_TRUE(updater.Update(opts).ok());
  EXPECT_EQ(ls->store->row_cache()->entry_count(), 0u);
}

TEST(Updater, WearAccumulatesAcrossUpdates) {
  auto ls = MakeLoadedStore(TinyModel(2, 1, 500));
  ModelUpdater updater(ls->store.get());
  UpdateOptions opts;
  opts.row_fraction = 1.0;
  const auto r1 = updater.Update(opts);
  const auto r2 = updater.Update(opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_GT(r2.value().sm_drive_writes, r1.value().sm_drive_writes);
}

TEST(Updater, RejectsBadFraction) {
  auto ls = MakeLoadedStore(TinyModel());
  ModelUpdater updater(ls->store.get());
  UpdateOptions opts;
  opts.row_fraction = 1.5;
  EXPECT_FALSE(updater.Update(opts).ok());
}

TEST(Updater, WarmupRooflineFormula) {
  // Paper A.4's worked example: r=10%, w=5min, p=50%, t=30min.
  const double overhead = ModelUpdater::WarmupCapacityOverhead(0.10, 5.0, 0.50, 30.0);
  EXPECT_NEAR(overhead, (0.10 * 5.0) / (0.50 * 30.0), 1e-9);
}

// ---------------------------------------------------------------------------
// Load report.
// ---------------------------------------------------------------------------

TEST(Loader, ReportCountsTransforms) {
  LoaderOptions loader;
  loader.prune_keep_fraction = 0.8;
  TuningConfig t = BaseTuning();
  t.deprune_at_load = true;
  auto ls = MakeLoadedStore(TinyModel(3, 1), t, loader);
  EXPECT_EQ(ls->report.tables_loaded, 4u);
  EXPECT_EQ(ls->report.tables_pruned, 3u);    // user tables only
  EXPECT_EQ(ls->report.tables_depruned, 3u);  // all SM-placed pruned tables
  EXPECT_GT(ls->report.sm_write_time.nanos(), 0);
}

/// `n` owned-device stores of one shape (distinct seeds, as cluster hosts).
std::vector<std::unique_ptr<SdmStore>> MakeStores(EventLoop& loop, size_t n,
                                                  const TuningConfig& tuning) {
  std::vector<std::unique_ptr<SdmStore>> stores;
  for (size_t i = 0; i < n; ++i) {
    SdmStoreConfig cfg = BaseStoreConfig(tuning);
    cfg.seed = 42 + i;
    stores.push_back(std::make_unique<SdmStore>(cfg, &loop));
  }
  return stores;
}

std::vector<SdmStore*> StorePtrs(const std::vector<std::unique_ptr<SdmStore>>& stores) {
  std::vector<SdmStore*> out;
  for (const auto& s : stores) out.push_back(s.get());
  return out;
}

TEST(Loader, ReplicasMatchIndependentLoads) {
  struct Case {
    const char* name;
    double keep = 1.0;
    bool deprune = false;
    bool dequantize = false;
  };
  const Case cases[] = {{"plain"},
                        {"pruned_fm_mapping", 0.8},
                        {"deprune_at_load", 0.8, true},
                        {"dequantize_at_load", 1.0, false, true}};
  const ModelConfig model = TinyModel(3, 1);
  constexpr size_t kStores = 3;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TuningConfig tuning = BaseTuning();
    tuning.deprune_at_load = c.deprune;
    tuning.dequantize_at_load = c.dequantize;
    LoaderOptions loader;
    loader.prune_keep_fraction = c.keep;

    EventLoop replica_loop;
    EventLoop solo_loop;
    auto replicas = MakeStores(replica_loop, kStores, tuning);
    auto solos = MakeStores(solo_loop, kStores, tuning);
    auto reports = ModelLoader::LoadReplicas(model, loader, StorePtrs(replicas));
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    ASSERT_EQ(reports.value().size(), kStores);

    for (size_t i = 0; i < kStores; ++i) {
      auto solo = ModelLoader::Load(model, loader, solos[i].get());
      ASSERT_TRUE(solo.ok()) << solo.status().ToString();
      const LoadReport& a = reports.value()[i];
      const LoadReport& b = solo.value();
      EXPECT_EQ(a.tables_loaded, b.tables_loaded);
      EXPECT_EQ(a.tables_pruned, b.tables_pruned);
      EXPECT_EQ(a.tables_depruned, b.tables_depruned);
      EXPECT_EQ(a.tables_dequantized, b.tables_dequantized);
      EXPECT_EQ(a.fm_direct_bytes, b.fm_direct_bytes);
      EXPECT_EQ(a.fm_mapping_bytes, b.fm_mapping_bytes);
      EXPECT_EQ(a.sm_bytes, b.sm_bytes);
      EXPECT_EQ(a.sm_write_time.nanos(), b.sm_write_time.nanos());
      ASSERT_EQ(a.plan.tables.size(), b.plan.tables.size());
      for (size_t t = 0; t < a.plan.tables.size(); ++t) {
        EXPECT_EQ(a.plan.tables[t].tier, b.plan.tables[t].tier);
        EXPECT_EQ(a.plan.tables[t].cache_enabled, b.plan.tables[t].cache_enabled);
      }

      SdmStore& r = *replicas[i];
      SdmStore& o = *solos[i];
      EXPECT_TRUE(r.loading_finished());
      ASSERT_EQ(r.sm_device_count(), o.sm_device_count());
      for (size_t d = 0; d < r.sm_device_count(); ++d) {
        const auto rb = r.sm_device(d).backing();
        const auto ob = o.sm_device(d).backing();
        ASSERT_EQ(rb.size(), ob.size());
        EXPECT_TRUE(std::equal(rb.begin(), rb.end(), ob.begin())) << "device " << d;
      }
      const auto rf = r.fm().View(0, r.fm_direct_bytes());
      const auto of = o.fm().View(0, o.fm_direct_bytes());
      ASSERT_TRUE(rf.ok() && of.ok());
      EXPECT_TRUE(std::equal(rf.value().begin(), rf.value().end(), of.value().begin(),
                             of.value().end()));
      ASSERT_EQ(r.table_count(), o.table_count());
      for (size_t t = 0; t < r.table_count(); ++t) {
        const TableRuntime& rt = r.table(MakeTableId(static_cast<uint32_t>(t)));
        const TableRuntime& ot = o.table(MakeTableId(static_cast<uint32_t>(t)));
        EXPECT_EQ(rt.offset, ot.offset);
        EXPECT_EQ(rt.config.num_rows, ot.config.num_rows);
        ASSERT_EQ(rt.mapping.has_value(), ot.mapping.has_value());
        if (rt.mapping.has_value()) {
          EXPECT_EQ(rt.mapping->map, ot.mapping->map);
        }
      }
    }
    if (c.keep < 1.0 && !c.deprune) {
      // Every replica owns a mapping tensor of its own.
      EXPECT_GT(reports.value()[0].fm_mapping_bytes, 0u);
      const TableId user = MakeTableId(0);
      EXPECT_NE(replicas[0]->table(user).mapping->map.data(),
                replicas[1]->table(user).mapping->map.data());
    }
  }
}

TEST(Loader, ReplicasRejectASealedStoreBeforeLoadingAny) {
  EventLoop loop;
  auto stores = MakeStores(loop, 3, BaseTuning());
  ASSERT_TRUE(stores[1]->FinishLoading().ok());
  auto reports = ModelLoader::LoadReplicas(TinyModel(), {}, StorePtrs(stores));
  ASSERT_FALSE(reports.ok());
  EXPECT_EQ(reports.status().code(), StatusCode::kFailedPrecondition);
  for (const size_t i : {0, 2}) {
    EXPECT_EQ(stores[i]->table_count(), 0u);
    EXPECT_FALSE(stores[i]->loading_finished());
  }
}

TEST(Loader, ReplicasRejectStoresThatWouldHoldDifferentBytes) {
  EventLoop loop;
  auto stores = MakeStores(loop, 2, BaseTuning());
  TuningConfig dequant = BaseTuning();
  dequant.dequantize_at_load = true;
  SdmStoreConfig cfg = BaseStoreConfig(dequant);
  stores.push_back(std::make_unique<SdmStore>(cfg, &loop));
  auto reports = ModelLoader::LoadReplicas(TinyModel(), {}, StorePtrs(stores));
  ASSERT_FALSE(reports.ok());
  EXPECT_EQ(reports.status().code(), StatusCode::kInvalidArgument);
  for (const auto& s : stores) EXPECT_EQ(s->table_count(), 0u);
}

}  // namespace
}  // namespace sdm
