// Tests for the coalesced batch IO path: intra-request dedup, block
// grouping / adjacent-block merging, the per-row ablation flag, batched SQE
// submission, the buffer arena, and coalescing-counter accounting.
#include <gtest/gtest.h>

#include <vector>

#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "core/sdm_store.h"
#include "dlrm/model_zoo.h"
#include "io/buffer_arena.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// Helpers (mirrors core_test's loaded-store fixture).
// ---------------------------------------------------------------------------

TuningConfig BaseTuning() {
  TuningConfig t;
  t.row_cache.capacity = 0;  // auto-size from FM budget
  t.enable_row_cache = true;
  t.sub_block_reads = true;
  t.io_batching = IoBatching::kCrossRequest;
  return t;
}

struct LoadedStore {
  EventLoop loop;
  std::unique_ptr<SdmStore> store;
  ModelConfig model;
};

std::unique_ptr<LoadedStore> MakeStore(TuningConfig tuning = BaseTuning(),
                                       double read_error_probability = 0.0) {
  auto ls = std::make_unique<LoadedStore>();
  // 24B rows (dim 16 int8-rowwise): 170 rows per 4KB block, and every
  // ~171st row straddles a block boundary.
  ls->model = MakeTinyUniformModel(16, 3, 1, 2000);
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_specs[0].read_error_probability = read_error_probability;
  cfg.sm_backing_bytes = {16 * kMiB};
  cfg.tuning = std::move(tuning);
  ls->store = std::make_unique<SdmStore>(cfg, &ls->loop);
  EXPECT_TRUE(ModelLoader::Load(ls->model, {}, ls->store.get()).ok());
  return ls;
}

std::pair<std::vector<float>, LookupTrace> RunLookup(LoadedStore& ls, LookupEngine& engine,
                                                     std::vector<RowIndex> indices,
                                                     PoolingMode mode = PoolingMode::kSum) {
  std::vector<float> pooled;
  LookupTrace trace;
  bool done = false;
  LookupRequest req;
  req.table = MakeTableId(0);
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

std::vector<float> ReferencePooled(const LoadedStore& ls,
                                   const std::vector<RowIndex>& indices,
                                   PoolingMode mode = PoolingMode::kSum) {
  const TableConfig& cfg = ls.model.tables[0];
  const uint64_t seed = LoaderOptions{}.seed ^ (0xabcdef12345678ULL * 1);
  const auto image = EmbeddingTableImage::GenerateRandom(cfg, seed);
  std::vector<float> out(cfg.dim, 0.0f);
  for (const RowIndex idx : indices) {
    const auto row = image.DequantizedRow(idx);
    for (size_t i = 0; i < out.size(); ++i) out[i] += row[i];
  }
  if (mode == PoolingMode::kMean && !indices.empty()) {
    for (auto& v : out) v /= static_cast<float>(indices.size());
  }
  return out;
}

/// First row of table 0 whose bytes straddle a 4KB block boundary.
RowIndex FirstBoundarySpanningRow(const LoadedStore& ls) {
  const TableRuntime& rt = ls.store->table(MakeTableId(0));
  const Bytes rb = rt.config.row_bytes();
  for (RowIndex r = 0; r < rt.config.num_rows; ++r) {
    const Bytes off = rt.offset + r * rb;
    if (off / kBlockSize != (off + rb - 1) / kBlockSize) return r;
  }
  ADD_FAILURE() << "no boundary-spanning row in table 0";
  return 0;
}

uint64_t DeviceReads(LoadedStore& ls) {
  return ls.store->sm_device(0).stats().CounterValue("reads");
}

// ---------------------------------------------------------------------------
// Dedup of duplicate indices within one bag.
// ---------------------------------------------------------------------------

TEST(Coalescing, DuplicateIndicesFetchOnceSumPooling) {
  auto ls = MakeStore();
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {7, 7, 10, 7, 10};
  const auto [pooled, trace] = RunLookup(*ls, engine, indices);

  // Duplicates still contribute to the sum...
  const auto ref = ReferencePooled(*ls, indices);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);

  // ...but only the two distinct rows hit the device.
  EXPECT_EQ(trace.rows_deduped, 3u);
  EXPECT_EQ(trace.rows_from_sm, 5u);  // dup slots inherit the primary's source
  EXPECT_EQ(DeviceReads(*ls), 1u);    // rows 7 and 10 are 48B apart: one span
}

TEST(Coalescing, DuplicateIndicesMeanPoolingDividesByBagSize) {
  auto ls = MakeStore();
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {12, 12, 12, 40};
  const auto [pooled, trace] = RunLookup(*ls, engine, indices, PoolingMode::kMean);
  const auto ref = ReferencePooled(*ls, indices, PoolingMode::kMean);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
  EXPECT_EQ(trace.rows_deduped, 2u);
}

TEST(Coalescing, DuplicateOfCachedRowCountsAsCacheHit) {
  auto ls = MakeStore();
  LookupEngine engine(ls->store.get());
  (void)RunLookup(*ls, engine, {50});  // warm the row cache
  const auto [pooled, trace] = RunLookup(*ls, engine, {50, 50});
  EXPECT_EQ(trace.rows_from_cache, 2u);
  EXPECT_EQ(trace.rows_from_sm, 0u);
  EXPECT_EQ(trace.rows_deduped, 1u);
}

// ---------------------------------------------------------------------------
// Block grouping and adjacent-block merging.
// ---------------------------------------------------------------------------

TEST(Coalescing, SameBlockRowsCostOneDeviceRead) {
  auto ls = MakeStore();
  LookupEngine engine(ls->store.get());
  // 24B rows: indices 10..30 all land in block 0 of the table.
  const std::vector<RowIndex> indices = {10, 15, 20, 25, 30};
  const auto [pooled, trace] = RunLookup(*ls, engine, indices);
  EXPECT_EQ(trace.rows_from_sm, 5u);
  EXPECT_EQ(trace.device_reads, 1u);
  EXPECT_EQ(DeviceReads(*ls), 1u);
  const auto ref = ReferencePooled(*ls, indices);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(Coalescing, AdjacentBlockRunsMergeWithinCap) {
  auto ls = MakeStore();
  LookupEngine engine(ls->store.get());
  // A contiguous run around the first block boundary: the spanning row
  // covers both blocks, and it and its neighbours merge into one read.
  const RowIndex spanning = FirstBoundarySpanningRow(*ls);
  std::vector<RowIndex> indices;
  for (RowIndex r = spanning - 5; r <= spanning + 5; ++r) indices.push_back(r);
  const auto [pooled, trace] = RunLookup(*ls, engine, indices);
  EXPECT_EQ(trace.rows_from_sm, indices.size());
  // One merged two-block run carries every row, the spanning one included.
  EXPECT_EQ(trace.device_reads, 1u);
  EXPECT_EQ(DeviceReads(*ls), 1u);
  const auto ref = ReferencePooled(*ls, indices);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(Coalescing, MaxCoalesceBytesSplitsAdjacentBlocks) {
  TuningConfig t = BaseTuning();
  t.max_coalesce_bytes = kBlockSize;  // forbid multi-block merges
  auto ls = MakeStore(t);
  LookupEngine engine(ls->store.get());
  const RowIndex spanning = FirstBoundarySpanningRow(*ls);
  std::vector<RowIndex> indices;
  for (RowIndex r = spanning - 5; r <= spanning + 5; ++r) indices.push_back(r);
  const auto [pooled, trace] = RunLookup(*ls, engine, indices);
  // Block-0 run, block-1 run, and the spanning row's own two-block run:
  // it exceeds the cap alone, so nothing may join it.
  EXPECT_EQ(trace.device_reads, 3u);
  const auto ref = ReferencePooled(*ls, indices);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(Coalescing, BoundarySpanningRowAloneIsOneTwoBlockRead) {
  auto ls = MakeStore();
  LookupEngine engine(ls->store.get());
  const RowIndex spanning = FirstBoundarySpanningRow(*ls);
  const auto [pooled, trace] = RunLookup(*ls, engine, {spanning});
  EXPECT_EQ(trace.rows_from_sm, 1u);
  EXPECT_EQ(trace.device_reads, 1u);
  EXPECT_EQ(DeviceReads(*ls), 1u);
  const auto ref = ReferencePooled(*ls, {spanning});
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(Coalescing, PerRowAblationFlagIssuesOneIoPerRow) {
  TuningConfig t = BaseTuning();
  t.io_batching = IoBatching::kPerRow;
  auto ls = MakeStore(t);
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> indices = {10, 15, 20, 25, 30};
  const auto [pooled, trace] = RunLookup(*ls, engine, indices);
  EXPECT_EQ(trace.device_reads, 5u);
  EXPECT_EQ(DeviceReads(*ls), 5u);
  EXPECT_EQ(trace.rows_deduped, 0u);  // dedup is part of the coalesced path
  const auto ref = ReferencePooled(*ls, indices);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

// ---------------------------------------------------------------------------
// Counter accounting.
// ---------------------------------------------------------------------------

TEST(Coalescing, CountersReportSavedReadsAndBytes) {
  // Block-read mode makes the savings exact: each per-row read would have
  // moved a whole 4KB block.
  TuningConfig t = BaseTuning();
  t.sub_block_reads = false;
  auto ls = MakeStore(t);
  LookupEngine engine(ls->store.get());
  const auto [pooled, trace] = RunLookup(*ls, engine, {10, 20, 30});

  EXPECT_EQ(trace.device_reads, 1u);
  EXPECT_EQ(trace.io_bytes_saved, 2 * kBlockSize);  // 3 block reads -> 1
  EXPECT_EQ(engine.stats().CounterValue("device_reads"), 1u);
  EXPECT_EQ(engine.stats().CounterValue("io_bytes_saved"), 2 * kBlockSize);

  const StatsRegistry& io = ls->store->io_engine(0).stats();
  EXPECT_EQ(io.CounterValue("batches"), 1u);
  EXPECT_EQ(io.CounterValue("batch_sqes"), 1u);
  EXPECT_EQ(io.CounterValue("coalesced_reads"), 2u);  // merged_reads - 1
  EXPECT_EQ(io.CounterValue("bytes_saved"), 2 * kBlockSize);
}

TEST(Coalescing, TransientErrorsRetryLikeThePerRowPath) {
  // p=0.5: roughly half of all device reads fail transiently; a coalesced
  // run must re-read once (as NVMe drivers do) instead of failing the bag
  // on the first media error.
  auto ls = MakeStore(BaseTuning(), /*read_error_probability=*/0.5);
  LookupEngine engine(ls->store.get());
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    LookupRequest req;
    req.table = MakeTableId(0);
    req.indices = {RowIndex(3 * i), RowIndex(3 * i + 1), RowIndex(3 * i + 2)};
    engine.Lookup(std::move(req),
                  [&](Status s, std::vector<float>, const LookupTrace&) { ok += s.ok(); });
    ls->loop.RunUntilIdle();
  }
  EXPECT_GT(engine.stats().CounterValue("io_retries"), 0u);
  // One retry rescues most requests: far more succeed than the ~50% a
  // no-retry path would leave.
  EXPECT_GT(ok, 25);
}

TEST(Coalescing, ErroredReadsCountOnlyTowardIoErrors) {
  auto ls = MakeStore(BaseTuning(), /*read_error_probability=*/1.0);
  LookupEngine engine(ls->store.get());
  Status status = InternalError("callback never ran");
  LookupTrace trace;
  LookupRequest req;
  req.table = MakeTableId(0);
  req.indices = {10, 20, 30};
  engine.Lookup(std::move(req), [&](Status s, std::vector<float>, const LookupTrace& t) {
    status = s;
    trace = t;
  });
  ls->loop.RunUntilIdle();
  // The bag degrades (completes Ok, rows pooled as zeros); the failed reads
  // are charged to io_errors, never to rows_sm_read.
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(trace.degraded);
  EXPECT_EQ(engine.stats().CounterValue("rows_sm_read"), 0u);
  EXPECT_GE(engine.stats().CounterValue("io_errors"), 1u);
}

TEST(Coalescing, ExhaustedRetriesDegradeGracefullyByDefault) {
  // The bag completes Ok with the failed rows pooled as zeros and surfaced
  // in the trace.
  auto ls = MakeStore(BaseTuning(), /*read_error_probability=*/1.0);
  LookupEngine engine(ls->store.get());
  Status status = InternalError("callback never ran");
  LookupTrace trace;
  std::vector<float> pooled;
  LookupRequest req;
  req.table = MakeTableId(0);
  req.indices = {10, 20, 30};
  engine.Lookup(std::move(req),
                [&](Status s, std::vector<float> out, const LookupTrace& t) {
                  status = s;
                  pooled = std::move(out);
                  trace = t;
                });
  ls->loop.RunUntilIdle();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(trace.degraded);
  EXPECT_EQ(trace.rows_failed, 3u);
  // Failed rows contribute zero to the pooled output.
  for (const float v : pooled) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(engine.stats().CounterValue("rows_sm_read"), 0u);
  EXPECT_GE(engine.stats().CounterValue("io_errors"), 1u);
  EXPECT_EQ(engine.stats().CounterValue("degraded_lookups"), 1u);
  EXPECT_EQ(engine.stats().CounterValue("rows_failed"), 3u);
}

// ---------------------------------------------------------------------------
// Buffer arena.
// ---------------------------------------------------------------------------

TEST(Coalescing, ArenaRecyclesBounceBuffers) {
  auto ls = MakeStore();
  LookupEngine engine(ls->store.get());
  (void)RunLookup(*ls, engine, {10, 20, 30});
  (void)RunLookup(*ls, engine, {400, 410, 420});
  const BufferArenaStats& stats = ls->store->buffer_arena().stats();
  EXPECT_GE(stats.acquires, 2u);
  EXPECT_GT(stats.reuses, 0u);  // second lookup reuses the first's buffer
}

TEST(BufferArena, BestFitReuseAndBounds) {
  BufferArena arena(/*max_pooled_buffers=*/1);
  const uint8_t* first_data = nullptr;
  {
    auto big = arena.Acquire(8192);
    auto small = arena.Acquire(64);
    first_data = big->data();
    EXPECT_EQ(big->size(), 8192u);
    EXPECT_EQ(small->size(), 64u);
  }
  // Pool bounded at 1: one of the two returns was discarded.
  EXPECT_EQ(arena.pooled_buffers(), 1u);
  EXPECT_EQ(arena.stats().discarded, 1u);

  auto again = arena.Acquire(16);  // served from the pooled buffer
  EXPECT_EQ(again->size(), 16u);
  EXPECT_EQ(arena.stats().reuses, 1u);
  (void)first_data;
}

// ---------------------------------------------------------------------------
// Multi-level (block cache) interaction.
// ---------------------------------------------------------------------------

TEST(Coalescing, MultiBlockRunFillsBlockCache) {
  TuningConfig t = BaseTuning();
  t.enable_block_cache = true;
  t.block_cache_fraction = 0.5;
  auto ls = MakeStore(t);
  LookupEngine engine(ls->store.get());

  // One coalesced read for two same-block rows fills the block layer.
  const auto [p0, t0] = RunLookup(*ls, engine, {10, 20});
  EXPECT_EQ(t0.device_reads, 1u);
  EXPECT_EQ(t0.rows_from_sm, 2u);

  // A neighbour row in the same block is then served from the block cache
  // without device IO.
  const auto [p1, t1] = RunLookup(*ls, engine, {30});
  EXPECT_EQ(t1.rows_from_block_cache, 1u);
  EXPECT_EQ(t1.device_reads, 0u);
}

TEST(Coalescing, StraddlingRowServedFromBlockCacheWhenBothBlocksResident) {
  TuningConfig t = BaseTuning();
  t.enable_block_cache = true;
  t.block_cache_fraction = 0.5;
  auto ls = MakeStore(t);
  LookupEngine engine(ls->store.get());
  const RowIndex spanning = FirstBoundarySpanningRow(*ls);

  // Its neighbours sit on either side of the boundary: one two-block read
  // fills both blocks the straddling row touches.
  const auto [p0, t0] = RunLookup(*ls, engine, {spanning - 1, spanning + 1});
  EXPECT_EQ(t0.device_reads, 1u);
  const uint64_t reads = DeviceReads(*ls);

  const auto [pooled, trace] = RunLookup(*ls, engine, {spanning});
  EXPECT_EQ(trace.rows_from_block_cache, 1u);
  EXPECT_EQ(trace.device_reads, 0u);
  EXPECT_EQ(DeviceReads(*ls), reads);
  const auto ref = ReferencePooled(*ls, {spanning});
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

TEST(Coalescing, StraddlingRowWithOneBlockResidentReadsTheDevice) {
  TuningConfig t = BaseTuning();
  t.enable_block_cache = true;
  t.block_cache_fraction = 0.5;
  auto ls = MakeStore(t);
  LookupEngine engine(ls->store.get());
  const RowIndex spanning = FirstBoundarySpanningRow(*ls);

  // Only the first block is resident: its half-row hit must not serve the
  // row; the device read supplies all of it.
  (void)RunLookup(*ls, engine, {spanning - 1});
  const auto [pooled, trace] = RunLookup(*ls, engine, {spanning});
  EXPECT_EQ(trace.rows_from_block_cache, 0u);
  EXPECT_EQ(trace.device_reads, 1u);
  const auto ref = ReferencePooled(*ls, {spanning});
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(pooled[i], ref[i], 1e-4f);
}

}  // namespace
}  // namespace sdm
