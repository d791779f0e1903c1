// Tests for the coalesced batch IO path: intra-request dedup, block
// grouping / adjacent-block merging, the per-row ablation flag, batched SQE
// submission, the buffer arena, coalescing-counter accounting, and per-lookup
// row conservation across every lookup configuration.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "core/sdm_store.h"
#include "dlrm/model_zoo.h"
#include "fault/fault_injector.h"
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


// ---------------------------------------------------------------------------
// Row conservation: every requested row is credited to exactly one source.
// ---------------------------------------------------------------------------

/// Summed traces (and lookup counts) of one configuration's lookup mix.
struct TraceTotals {
  uint64_t lookups = 0, pooled_hits = 0, degraded = 0;
  uint64_t requested = 0, pruned = 0, fm = 0, cache = 0, block = 0, sm = 0, failed = 0;
  uint64_t deduped = 0, prefetch_hits = 0, device_reads = 0, singleflight_hits = 0;
  uint64_t io_bytes_saved = 0, replica_reads = 0, read_repairs = 0;
  int64_t latency_ns = 0, cpu_ns = 0;

  void Add(const LookupTrace& t) {
    ++lookups;
    pooled_hits += t.pooled_cache_hit ? 1 : 0;
    degraded += t.degraded ? 1 : 0;
    requested += t.rows_requested;
    pruned += t.rows_pruned_skipped;
    fm += t.rows_from_fm_direct;
    cache += t.rows_from_cache;
    block += t.rows_from_block_cache;
    sm += t.rows_from_sm;
    failed += t.rows_failed;
    deduped += t.rows_deduped;
    prefetch_hits += t.rows_prefetch_hit;
    device_reads += t.device_reads;
    singleflight_hits += t.singleflight_hits;
    io_bytes_saved += t.io_bytes_saved;
    replica_reads += t.replica_reads;
    read_repairs += t.read_repairs;
    latency_ns += t.latency.nanos();
    cpu_ns += t.cpu_time.nanos();
  }

  /// One line per field, so a golden mismatch names the field.
  [[nodiscard]] std::string Dump() const {
    const std::pair<const char*, uint64_t> fields[] = {
        {"lookups", lookups},
        {"pooled_hits", pooled_hits},
        {"degraded", degraded},
        {"requested", requested},
        {"pruned", pruned},
        {"fm", fm},
        {"cache", cache},
        {"block", block},
        {"sm", sm},
        {"failed", failed},
        {"deduped", deduped},
        {"prefetch_hits", prefetch_hits},
        {"device_reads", device_reads},
        {"singleflight_hits", singleflight_hits},
        {"io_bytes_saved", io_bytes_saved},
        {"replica_reads", replica_reads},
        {"read_repairs", read_repairs},
        {"latency_ns", static_cast<uint64_t>(latency_ns)},
        {"cpu_ns", static_cast<uint64_t>(cpu_ns)},
    };
    std::string out;
    for (const auto& [name, value] : fields) {
      out += std::string(name) + " " + std::to_string(value) + "\n";
    }
    return out;
  }
};

enum class Scenario { kPlain, kHealthShed, kReadRepair };

struct ConservationConfig {
  const char* name;
  TuningConfig tuning;
  LoaderOptions loader;
  Scenario scenario = Scenario::kPlain;
};

/// Drives a fixed mix of lookups (bags over two SM user tables and the FM
/// item table, four in flight at a time, hot rows, in-bag duplicates,
/// out-of-domain indices and a repeated bag) through one configuration on
/// two Optane devices.
/// Checks conservation per lookup and counter = trace sum per engine.
TraceTotals RunConservationMix(const ConservationConfig& c) {
  EventLoop loop;
  const ModelConfig model = MakeTinyUniformModel(16, 2, 1, 2000);
  SdmStoreConfig cfg;
  cfg.fm_capacity = 96 * kKiB;  // the FM item table leaves caches for half the SM rows
  cfg.sm_specs = {MakeOptaneSsdSpec(), MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB, 16 * kMiB};
  cfg.tuning = c.tuning;
  std::unique_ptr<FaultInjector> injector;  // outlives the store it is installed in
  SdmStore store(cfg, &loop);
  EXPECT_TRUE(ModelLoader::Load(model, c.loader, &store).ok());
  SharedDeviceService& svc = store.device_service();

  if (c.scenario == Scenario::kHealthShed) {
    // Device 0 is condemned with no replica: its lookups shed until probe
    // successes wash it healthy.
    for (int i = 0; i < 32; ++i) svc.health().Record(0, false);
  } else if (c.scenario == Scenario::kReadRepair) {
    // Every device-0 read rots; a replica of each device-0 extent on
    // device 1 repairs them after the retry fails too.
    for (size_t t = 0; t < model.tables.size(); ++t) {
      const TableRuntime& rt = store.table(MakeTableId(t));
      if (rt.tier != MemoryTier::kSm || rt.sm_device != 0) continue;
      const auto span = svc.ExtentInfoFor(rt.extent_id);
      const auto loc = svc.AllocateReplica(rt.extent_id, /*target=*/1);
      EXPECT_TRUE(span.has_value() && loc.ok());
      EXPECT_TRUE(svc.device(1)
                      .Write(loc.value().offset,
                             svc.device(0).backing().subspan(span->offset, span->size))
                      .ok());
      svc.AddReplicaRoute(rt.extent_id, loc.value());
    }
    FaultPlan plan;
    plan.BitRot(SimTime(0), SimTime(0) + Seconds(10'000), /*probability=*/1.0, /*device=*/0);
    injector = std::make_unique<FaultInjector>(plan, &loop, /*seed=*/5);
    svc.InstallFaultInjector(injector.get());
  }

  LookupEngine engine(&store);
  TraceTotals totals;
  Rng rng(42);
  for (int batch = 0; batch < 150; ++batch) {
    for (int q = 0; q < 4; ++q) {
      LookupRequest req;
      req.table = MakeTableId(rng.NextBounded(3));
      const bool repeated = rng.NextBounded(8) == 0;  // a hit for the pooled cache
      if (repeated) req.indices = {3, 1, 4, 1, 5, 9, 2, 6};
      for (int i = 0; !repeated && i < 12; ++i) {
        const uint64_t draw = rng.NextBounded(100);
        req.indices.push_back(draw < 50   ? rng.NextBounded(48)     // hot rows
                              : draw < 97 ? rng.NextBounded(2000)  // cold rows
                                          : 2000 + draw);          // out of domain
      }
      engine.Lookup(std::move(req), [&](Status s, std::vector<float>, const LookupTrace& t) {
        EXPECT_TRUE(s.ok()) << s.ToString();
        totals.Add(t);
        if (t.pooled_cache_hit) return;
        EXPECT_EQ(t.rows_requested, t.rows_pruned_skipped + t.rows_from_fm_direct +
                                        t.rows_from_cache + t.rows_from_block_cache +
                                        t.rows_from_sm + t.rows_failed)
            << c.name;
        EXPECT_EQ(t.degraded, t.rows_failed > 0) << c.name;
      });
    }
    loop.RunUntilIdle();
  }

  const StatsRegistry& st = engine.stats();
  EXPECT_EQ(st.CounterValue("lookups"), totals.lookups) << c.name;
  EXPECT_EQ(st.CounterValue("pooled_hits"), totals.pooled_hits) << c.name;
  EXPECT_EQ(st.CounterValue("degraded_lookups"), totals.degraded) << c.name;
  EXPECT_EQ(st.CounterValue("rows_pruned"), totals.pruned) << c.name;
  EXPECT_EQ(st.CounterValue("rows_fm_read"), totals.fm) << c.name;
  EXPECT_EQ(st.CounterValue("rows_cache_hit"), totals.cache) << c.name;
  EXPECT_EQ(st.CounterValue("rows_block_hit"), totals.block) << c.name;
  EXPECT_EQ(st.CounterValue("rows_sm_read"), totals.sm) << c.name;
  EXPECT_EQ(st.CounterValue("rows_failed"), totals.failed) << c.name;
  EXPECT_EQ(st.CounterValue("rows_deduped"), totals.deduped) << c.name;
  EXPECT_EQ(st.CounterValue("prefetch_hits"), totals.prefetch_hits) << c.name;
  EXPECT_EQ(st.CounterValue("device_reads"), totals.device_reads) << c.name;
  EXPECT_EQ(st.CounterValue("singleflight_hits"), totals.singleflight_hits) << c.name;
  EXPECT_EQ(st.CounterValue("io_bytes_saved"), totals.io_bytes_saved) << c.name;
  EXPECT_EQ(st.CounterValue("replica_reads"), totals.replica_reads) << c.name;
  EXPECT_EQ(st.CounterValue("read_repairs"), totals.read_repairs) << c.name;
  EXPECT_EQ(st.CounterValue("cpu_ns"), static_cast<uint64_t>(totals.cpu_ns)) << c.name;
  return totals;
}

std::vector<ConservationConfig> ConservationConfigs() {
  std::vector<ConservationConfig> configs;
  const auto add = [&configs](const char* name, auto edit) {
    ConservationConfig c{name, BaseTuning(), LoaderOptions{}};
    edit(c);
    configs.push_back(c);
  };
  add("per_row", [](ConservationConfig& c) { c.tuning.io_batching = IoBatching::kPerRow; });
  add("per_request",
      [](ConservationConfig& c) { c.tuning.io_batching = IoBatching::kPerRequest; });
  add("cross_request", [](ConservationConfig&) {});
  add("block_cache", [](ConservationConfig& c) {
    c.tuning.enable_block_cache = true;
    c.tuning.block_cache_fraction = 0.5;
  });
  add("prefetch", [](ConservationConfig& c) { c.tuning.enable_prefetch = true; });
  add("pruned_pooled", [](ConservationConfig& c) {
    c.loader.prune_keep_fraction = 0.5;  // user tables keep half their rows
    c.tuning.enable_pooled_cache = true;
  });
  add("health_shed", [](ConservationConfig& c) {
    c.tuning.enable_health_monitor = true;
    c.tuning.health_window = 32;
    c.scenario = Scenario::kHealthShed;
  });
  add("read_repair", [](ConservationConfig& c) {
    c.tuning.enable_checksums = true;
    c.tuning.sub_block_reads = false;
    c.scenario = Scenario::kReadRepair;
  });
  return configs;
}

TEST(RowConservation, EveryLookupCreditsEachRowOnceAndTotalsArePinned) {
  // Golden totals, one line per field, for every configuration's mix.
  const std::vector<std::pair<const char*, const char*>> golden = {
      {"per_row",
       "lookups 600\npooled_hits 0\ndegraded 0\nrequested 6872\n"
       "pruned 162\nfm 2418\ncache 2351\nblock 0\nsm 1941\nfailed 0\n"
       "deduped 0\nprefetch_hits 0\ndevice_reads 1941\n"
       "singleflight_hits 0\nio_bytes_saved 0\nreplica_reads 0\n"
       "read_repairs 0\nlatency_ns 5901185\ncpu_ns 1844171\n"},
      {"per_request",
       "lookups 600\npooled_hits 0\ndegraded 0\nrequested 6872\n"
       "pruned 162\nfm 2418\ncache 2349\nblock 0\nsm 1943\nfailed 0\n"
       "deduped 264\nprefetch_hits 0\ndevice_reads 1739\n"
       "singleflight_hits 0\nio_bytes_saved 0\nreplica_reads 0\n"
       "read_repairs 0\nlatency_ns 6141088\ncpu_ns 1807739\n"},
      {"cross_request",
       "lookups 600\npooled_hits 0\ndegraded 0\nrequested 6872\n"
       "pruned 162\nfm 2418\ncache 2347\nblock 0\nsm 1945\nfailed 0\n"
       "deduped 264\nprefetch_hits 0\ndevice_reads 1727\n"
       "singleflight_hits 13\nio_bytes_saved 456\nreplica_reads 0\n"
       "read_repairs 0\nlatency_ns 6243091\ncpu_ns 1807991\n"},
      {"block_cache",
       "lookups 600\npooled_hits 0\ndegraded 0\nrequested 6872\n"
       "pruned 162\nfm 2418\ncache 1844\nblock 684\nsm 1764\n"
       "failed 0\ndeduped 264\nprefetch_hits 0\ndevice_reads 740\n"
       "singleflight_hits 133\nio_bytes_saved 2732032\n"
       "replica_reads 0\nread_repairs 0\nlatency_ns 58552758\n"
       "cpu_ns 2653136\n"},
      {"prefetch",
       "lookups 600\npooled_hits 0\ndegraded 0\nrequested 6872\n"
       "pruned 162\nfm 2418\ncache 2323\nblock 0\nsm 1969\nfailed 0\n"
       "deduped 264\nprefetch_hits 298\ndevice_reads 1627\n"
       "singleflight_hits 110\nio_bytes_saved 3264\nreplica_reads 0\n"
       "read_repairs 0\nlatency_ns 6259401\ncpu_ns 1812275\n"},
      {"pruned_pooled",
       "lookups 600\npooled_hits 75\ndegraded 0\nrequested 6872\n"
       "pruned 2202\nfm 2258\ncache 869\nblock 0\nsm 943\nfailed 0\n"
       "deduped 128\nprefetch_hits 0\ndevice_reads 854\n"
       "singleflight_hits 9\nio_bytes_saved 264\nreplica_reads 0\n"
       "read_repairs 0\nlatency_ns 4921840\ncpu_ns 1012924\n"},
      {"health_shed",
       "lookups 600\npooled_hits 0\ndegraded 45\nrequested 6872\n"
       "pruned 162\nfm 2418\ncache 2160\nblock 0\nsm 1695\n"
       "failed 437\ndeduped 264\nprefetch_hits 0\ndevice_reads 1502\n"
       "singleflight_hits 8\nio_bytes_saved 216\nreplica_reads 0\n"
       "read_repairs 0\nlatency_ns 5609789\ncpu_ns 1745747\n"},
      {"read_repair",
       "lookups 600\npooled_hits 0\ndegraded 0\nrequested 6872\n"
       "pruned 162\nfm 2418\ncache 2354\nblock 0\nsm 1938\nfailed 0\n"
       "deduped 264\nprefetch_hits 0\ndevice_reads 900\n"
       "singleflight_hits 137\nio_bytes_saved 2285568\n"
       "replica_reads 0\nread_repairs 476\nlatency_ns 139527906\n"
       "cpu_ns 1806479\n"},
  };
  const std::vector<ConservationConfig> configs = ConservationConfigs();
  ASSERT_EQ(configs.size(), golden.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    const TraceTotals totals = RunConservationMix(configs[i]);
    ASSERT_STREQ(configs[i].name, golden[i].first);
    EXPECT_EQ(totals.Dump(), golden[i].second) << configs[i].name;
  }
}

}  // namespace
}  // namespace sdm
