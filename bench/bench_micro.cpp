// Micro-benchmarks (google-benchmark) for the hot kernels and data
// structures: quantization, pooling, caches, order-invariant hashing, Zipf
// sampling, the event loop, the scheduler's single-flight lookup, and the
// end-to-end simulated lookup path.
#include <benchmark/benchmark.h>

#include "cache/cpu_optimized_cache.h"
#include "cache/memory_optimized_cache.h"
#include "cache/pooled_cache.h"
#include "common/event_loop.h"
#include "common/rng.h"
#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "device/nvme_device.h"
#include "dlrm/mlp.h"
#include "dlrm/model_zoo.h"
#include "embedding/quantization.h"
#include "io/buffer_arena.h"
#include "io/io_engine.h"
#include "obs/observability.h"
#include "sched/batch_scheduler.h"
#include "sched/in_flight_index.h"
#include "embedding/embedding_table.h"
#include "serving/cluster.h"
#include "serving/host.h"
#include "trace/trace_gen.h"

#include "common/logging.h"

namespace sdm {
namespace {

const bool g_quiet_logs = [] {
  SetLogLevel(LogLevel::kWarn);
  return true;
}();

// ---------------------------------------------------------------------------
// Quantization kernels.
// ---------------------------------------------------------------------------

void BM_QuantizeRow(benchmark::State& state) {
  const auto type = static_cast<DataType>(state.range(0));
  const auto dim = static_cast<uint32_t>(state.range(1));
  Rng rng(1);
  std::vector<float> values(dim);
  for (auto& v : values) v = static_cast<float>(rng.NextDouble(-1, 1));
  std::vector<uint8_t> stored(StoredRowBytes(type, dim));
  for (auto _ : state) {
    QuantizeRow(type, values, stored);
    benchmark::DoNotOptimize(stored.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * dim * 4);
}
BENCHMARK(BM_QuantizeRow)
    ->Args({static_cast<int>(DataType::kInt8Rowwise), 64})
    ->Args({static_cast<int>(DataType::kInt8Rowwise), 256})
    ->Args({static_cast<int>(DataType::kInt4Rowwise), 64})
    ->Args({static_cast<int>(DataType::kFp16), 64});

/// One M1-mini user table (30k rows x 120 int8): per-row value generation,
/// quantization into the image, then the content hash the loader keys
/// shared extents by. `per_element` is time per generated element.
void BM_GenerateTableImage(benchmark::State& state) {
  TableConfig cfg;
  cfg.name = "gen";
  cfg.dtype = DataType::kInt8Rowwise;
  cfg.dim = 120;
  cfg.num_rows = 30'000;
  uint64_t seed = 0;
  for (auto _ : state) {
    const auto image = EmbeddingTableImage::GenerateRandom(cfg, ++seed);
    benchmark::DoNotOptimize(image.ContentHash());
  }
  state.counters["per_element"] = benchmark::Counter(
      static_cast<double>(cfg.num_rows * cfg.dim),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GenerateTableImage)->Unit(benchmark::kMillisecond);

void BM_DequantizeAccumulate(benchmark::State& state) {
  const auto type = static_cast<DataType>(state.range(0));
  const auto dim = static_cast<uint32_t>(state.range(1));
  Rng rng(2);
  std::vector<float> values(dim);
  for (auto& v : values) v = static_cast<float>(rng.NextDouble(-1, 1));
  std::vector<uint8_t> stored(StoredRowBytes(type, dim));
  QuantizeRow(type, values, stored);
  std::vector<float> acc(dim, 0.0f);
  for (auto _ : state) {
    DequantizeAccumulate(type, stored, acc);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stored.size()));
}
BENCHMARK(BM_DequantizeAccumulate)
    ->Args({static_cast<int>(DataType::kInt8Rowwise), 64})
    ->Args({static_cast<int>(DataType::kInt8Rowwise), 256})
    ->Args({static_cast<int>(DataType::kInt4Rowwise), 128})
    ->Args({static_cast<int>(DataType::kFp32), 64});

// ---------------------------------------------------------------------------
// Row caches.
// ---------------------------------------------------------------------------

void BM_CpuOptimizedCacheLookup(benchmark::State& state) {
  CpuOptimizedCacheConfig cfg;
  cfg.capacity = 64 * kMiB;
  CpuOptimizedCache cache(cfg);
  const std::vector<uint8_t> value(72, 1);
  for (uint64_t i = 0; i < 100'000; ++i) {
    cache.Insert(RowKey{MakeTableId(0), i}, value);
  }
  Rng rng(3);
  std::vector<uint8_t> out(72);
  for (auto _ : state) {
    const RowKey key{MakeTableId(0), rng.NextBounded(100'000)};
    size_t len = 0;
    benchmark::DoNotOptimize(cache.Lookup(key, out, &len));
  }
}
BENCHMARK(BM_CpuOptimizedCacheLookup);

void BM_MemoryOptimizedCacheLookup(benchmark::State& state) {
  MemoryOptimizedCacheConfig cfg;
  cfg.capacity = 64 * kMiB;
  cfg.expected_value_bytes = 72;
  MemoryOptimizedCache cache(cfg);
  const std::vector<uint8_t> value(72, 1);
  for (uint64_t i = 0; i < 100'000; ++i) {
    cache.Insert(RowKey{MakeTableId(0), i}, value);
  }
  Rng rng(4);
  std::vector<uint8_t> out(72);
  for (auto _ : state) {
    const RowKey key{MakeTableId(0), rng.NextBounded(100'000)};
    size_t len = 0;
    benchmark::DoNotOptimize(cache.Lookup(key, out, &len));
  }
}
BENCHMARK(BM_MemoryOptimizedCacheLookup);

// m2_refresh's cache traffic on a byte-budget-bound cache: an online refresh
// erases a row and re-inserts its new bytes, a demand miss fills a row (an
// overwrite when it is already resident), and every insert into a full
// bucket evicts.
void BM_MemoryOptimizedCacheChurn(benchmark::State& state) {
  MemoryOptimizedCacheConfig cfg;
  cfg.capacity = 4 * kMiB;
  cfg.expected_value_bytes = 64;
  MemoryOptimizedCache cache(cfg);
  // Twice as many rows as fit, so about half the keys are resident.
  const uint64_t rows = 2 * cfg.capacity / (64 + cfg.per_entry_overhead);
  std::vector<uint8_t> value(64, 1);
  for (uint64_t i = 0; i < rows; ++i) cache.Insert(RowKey{MakeTableId(0), i}, value);
  Rng rng(5);
  for (auto _ : state) {
    const RowKey key{MakeTableId(0), rng.NextBounded(rows)};
    value[0] = static_cast<uint8_t>(key.row);
    switch (rng.NextBounded(3)) {
      case 0:  // refresh: invalidate, then write through
        benchmark::DoNotOptimize(cache.Erase(key));
        cache.Insert(key, value);
        break;
      case 1:  // fill or overwrite
        cache.Insert(key, value);
        break;
      default:  // invalidate only
        benchmark::DoNotOptimize(cache.Erase(key));
        break;
    }
  }
}
BENCHMARK(BM_MemoryOptimizedCacheChurn);

void BM_CacheInsertEvict(benchmark::State& state) {
  CpuOptimizedCacheConfig cfg;
  cfg.capacity = 4 * kMiB;  // small: every insert evicts at steady state
  CpuOptimizedCache cache(cfg);
  const std::vector<uint8_t> value(72, 1);
  uint64_t i = 0;
  for (auto _ : state) {
    cache.Insert(RowKey{MakeTableId(0), i++}, value);
  }
}
BENCHMARK(BM_CacheInsertEvict);

// ---------------------------------------------------------------------------
// Pooled cache / hashing.
// ---------------------------------------------------------------------------

void BM_OrderInvariantHash(benchmark::State& state) {
  const auto len = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<RowIndex> indices(len);
  for (auto& i : indices) i = rng.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(OrderInvariantHash(indices));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_OrderInvariantHash)->Arg(8)->Arg(32)->Arg(128);

void BM_PooledCacheLookup(benchmark::State& state) {
  PooledCacheConfig cfg;
  cfg.capacity = 16 * kMiB;
  cfg.len_threshold = 1;
  PooledEmbeddingCache cache(cfg);
  Rng rng(6);
  std::vector<std::vector<RowIndex>> seqs;
  for (int i = 0; i < 1000; ++i) {
    std::vector<RowIndex> seq(20);
    for (auto& s : seq) s = rng.Next();
    cache.Insert(MakeTableId(0), seq, std::vector<float>(64, 1.0f));
    seqs.push_back(std::move(seq));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(MakeTableId(0), seqs[i++ % seqs.size()]));
  }
}
BENCHMARK(BM_PooledCacheLookup);

// ---------------------------------------------------------------------------
// Sampling / simulation infrastructure.
// ---------------------------------------------------------------------------

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 0.9);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1'000)->Arg(1'000'000);

void BM_FeistelPermute(benchmark::State& state) {
  IndexPermuter perm(1'000'000, 8);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.Permute(rng.NextBounded(1'000'000)));
  }
}
BENCHMARK(BM_FeistelPermute);

/// Table 8's M1-mini: 12 user tables of 30k x 120 (pooling factor 10) and
/// 6 item tables of 2k x 120 (pooling factor 4), item batch 10.
ModelConfig M1MiniModel() {
  ModelConfig model;
  model.name = "m1-mini";
  model.item_batch_size = 10;
  for (int i = 0; i < 18; ++i) {
    TableConfig t;
    t.name = (i < 12 ? "user." : "item.") + std::to_string(i);
    t.role = i < 12 ? TableRole::kUser : TableRole::kItem;
    t.dim = 120;
    t.num_rows = i < 12 ? 30'000 : 2'000;
    t.avg_pooling_factor = i < 12 ? 10 : 4;
    model.tables.push_back(t);
  }
  return model;
}

/// ns per M1-mini query: 12 sticky user tables and 6 item tables, Zipf
/// skews drawn as the end-to-end benchmark draws them, 1,500 users, 2%
/// churn. Most draws land on memoised ranks, so this times the sampler,
/// the memo and the sticky-set bookkeeping.
void BM_QueryGeneratorNext(benchmark::State& state) {
  ModelConfig model = M1MiniModel();
  Rng alphas(0x81);
  for (size_t i = 0; i < model.tables.size(); ++i) {
    model.tables[i].zipf_alpha =
        i < 12 ? alphas.NextDouble(0.65, 0.9) : alphas.NextDouble(0.9, 1.15);
  }
  WorkloadConfig w;
  w.num_users = 1500;
  w.user_index_churn = 0.02;
  w.seed = 8;
  QueryGenerator gen(model, w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryGeneratorNext);

/// Steady-state hold model: `depth` events stay queued, and each iteration
/// runs the earliest one, whose callback schedules a successor 1-1,000 ns
/// later. Every pop and push sifts through a heap `depth` deep.
void BM_EventLoopHold(benchmark::State& state) {
  struct Hold {
    EventLoop* loop;
    Rng* rng;
    void operator()() const {
      loop->ScheduleAfter(SimDuration(1 + static_cast<int64_t>(rng->NextBounded(1000))), *this);
    }
  };
  EventLoop loop;
  Rng rng(11);
  for (int64_t i = 0; i < state.range(0); ++i) {
    loop.ScheduleAfter(SimDuration(static_cast<int64_t>(rng.NextBounded(1000))), Hold{&loop, &rng});
  }
  for (auto _ : state) loop.RunOne();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopHold)->Arg(64)->Arg(4096);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventLoop loop;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.ScheduleAt(SimTime(i * 100), [&sink] { ++sink; });
    }
    loop.RunUntilIdle();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_EventLoopHeavyCallbacks(benchmark::State& state) {
  // Callbacks with out-of-line capture state (a payload buffer, like the
  // fabric response path's): the dequeue must MOVE the std::function out of
  // the heap, not copy it — a copy clones the capture allocation per event.
  for (auto _ : state) {
    EventLoop loop;
    uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) {
      std::vector<uint8_t> payload(256, static_cast<uint8_t>(i));
      loop.ScheduleAt(SimTime(i * 100),
                      [&sink, payload = std::move(payload)] { sink += payload[0]; });
    }
    loop.RunUntilIdle();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopHeavyCallbacks);

void BM_MlpForward(benchmark::State& state) {
  const std::vector<uint32_t> widths = {64, 256, 256, 64};
  Mlp mlp(widths, LinearLayer::Activation::kRelu, 10);
  std::vector<float> in(64, 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(in));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(mlp.flops()));
}
BENCHMARK(BM_MlpForward);

// ---------------------------------------------------------------------------
// Scheduler single-flight lookup.
// ---------------------------------------------------------------------------

/// arg 0: reads in flight. Measures ns per demand enqueue that joins one of
/// them. The CI scaling gate compares /2048 with /16: a lookup that scans
/// every in-flight read grows with the arg; the block index stays flat.
void BM_SchedulerJoinInFlight(benchmark::State& state) {
  const auto reads = static_cast<uint64_t>(state.range(0));
  EventLoop loop;
  // Reads sit on every other block, so no two of them merge.
  NvmeDevice device(MakeOptaneSsdSpec(), 2 * reads * kBlockSize, &loop, 1);
  IoEngine engine(&device, &loop, IoEngineConfig{});
  BufferArena arena;
  BatchScheduler sched(&engine, &arena, &loop, BatchSchedulerConfig{});
  auto run = [](uint64_t block, Bytes lo, Bytes hi) {
    BatchScheduler::ReadRequest req;
    req.span_begin = block * kBlockSize + lo;
    req.span_end = block * kBlockSize + hi;
    req.first_block = block;
    req.last_block = block;
    req.rows = 1;
    req.per_row_bus = kBlockSize;
    req.cb = [](Status, const uint8_t*, Bytes) {};
    return req;
  };
  auto issue = [&] {
    for (uint64_t r = 0; r < reads; ++r) (void)sched.Enqueue(run(2 * r, 100, 200));
    sched.Flush();
  };
  issue();
  if (sched.in_flight_reads() != reads) {
    state.SkipWithError("reads merged or completed before the joins");
    return;
  }
  // Joins cycle over the 16 latest-issued reads: the memory they touch is
  // the same at every arg, so the arg changes only how many reads a lookup
  // could have to pass over (a scan in issue order walks nearly all of
  // them). Every round the reads land with their subscribers and are
  // issued again, which keeps subscriber lists short: 64 joins per read,
  // small enough that growing them takes no page faults in the timed loop
  // (at 1 << 14 joins per round a round took ~190 minor faults at every arg).
  constexpr uint64_t kTargets = 16;
  constexpr uint64_t kJoinsPerRound = 1 << 10;
  uint64_t i = 0;
  for (auto _ : state) {
    if (i == kJoinsPerRound) {
      state.PauseTiming();
      loop.RunUntilIdle();
      issue();
      state.ResumeTiming();
      i = 0;
    }
    const uint64_t r = reads - 1 - i % kTargets;
    benchmark::DoNotOptimize(sched.Enqueue(run(2 * r, 300, 400)));
    ++i;
  }
}
BENCHMARK(BM_SchedulerJoinInFlight)->Arg(16)->Arg(256)->Arg(2048);

/// arg 0: live reads. The scheduler's single-flight index at a fixed depth:
/// each iteration looks up a span inside a random live read's window,
/// erases the oldest read and inserts it again with a new window. Windows
/// are 1-4 blocks at random block bases in a space 4x the depth, so blocks
/// are shared. The reads are reused, so no allocation is timed.
void BM_InFlightIndexChurn(benchmark::State& state) {
  struct Window {
    Bytes base = 0;
    Bytes end = 0;
  };
  const auto depth = static_cast<size_t>(state.range(0));
  Rng rng(5);
  InFlightIndex<Window> index;
  std::vector<std::shared_ptr<Window>> live;  // a ring, oldest at `next`
  auto insert = [&](const std::shared_ptr<Window>& w) {
    w->base = rng.NextBounded(4 * depth) * kBlockSize;
    w->end = w->base + (1 + rng.NextBounded(4)) * kBlockSize;
    index.Insert(w, w->base, w->end, /*sub_block=*/false);
  };
  for (size_t i = 0; i < depth; ++i) {
    live.push_back(std::make_shared<Window>());
    insert(live.back());
  }
  size_t next = 0;
  for (auto _ : state) {
    const Window& w = *live[rng.NextBounded(depth)];
    benchmark::DoNotOptimize(index.FindCovering(w.base + 100, w.base + 200, false));
    index.Erase(live[next].get(), live[next]->base, live[next]->end);
    insert(live[next]);
    next = (next + 1) % depth;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InFlightIndexChurn)->Arg(64)->Arg(1024);

// ---------------------------------------------------------------------------
// End-to-end simulated lookup (wall-clock cost of the simulator itself).
// ---------------------------------------------------------------------------

/// arg 0: observability off (0), metrics only (1), metrics + tracing (2).
/// The CI overhead gate compares 0 vs 2 — the instrumented hot path (one
/// null check per site when off, a handful of counter bumps plus span
/// records when on) must stay within a few percent of the bare path.
void BM_SimulatedLookup(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  EventLoop loop;
  ObsConfig ocfg;
  ocfg.enable_metrics = obs_on;
  ocfg.enable_tracing = state.range(0) >= 2;
  Observability obs(ocfg);
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  if (obs_on) {
    cfg.obs = &obs;
    cfg.obs_prefix = "host0/";
  }
  SdmStore store(cfg, &loop);
  const ModelConfig model = MakeTinyUniformModel(16, 2, 1, 2000);
  auto report = ModelLoader::Load(model, {}, &store);
  if (!report.ok()) {
    state.SkipWithError("load failed");
    return;
  }
  LookupEngine engine(&store);
  Rng rng(11);
  for (auto _ : state) {
    LookupRequest req;
    req.table = MakeTableId(0);
    req.indices = {rng.NextBounded(2000), rng.NextBounded(2000), rng.NextBounded(2000)};
    bool done = false;
    engine.Lookup(std::move(req),
                  [&done](Status, std::vector<float>, const LookupTrace&) { done = true; });
    loop.RunUntilIdle();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_SimulatedLookup)->Arg(0)->Arg(1)->Arg(2);

// ---------------------------------------------------------------------------
// Cluster model load.
// ---------------------------------------------------------------------------

/// arg 0: hosts of a single-loop disaggregated cluster. Times
/// ClusterSimulation::LoadModel alone (construction and teardown paused).
/// The CI scaling gate compares /16 with /1: loading the model once per
/// host grows with the arg; building each table once and attaching every
/// other host to its extent stays near flat.
void BM_ClusterLoad(benchmark::State& state) {
  const auto hosts = static_cast<size_t>(state.range(0));
  HostSimConfig cfg;
  cfg.host = MakeHwFAO(2);
  cfg.fm_capacity = 2 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  cfg.workload.num_users = 1000;
  cfg.tuning.enable_row_cache = false;
  cfg.tuning.fabric_latency = Micros(5);
  DisaggregatedConfig dc;
  dc.enabled = true;
  const ModelConfig model = MakeTinyUniformModel(32, 3, 1, 40'000);
  for (auto _ : state) {
    state.PauseTiming();
    auto cluster =
        std::make_unique<ClusterSimulation>(hosts, cfg, RoutingPolicy::kUserSticky, dc);
    state.ResumeTiming();
    if (!cluster->LoadModel(model).ok()) {
      state.SkipWithError("load failed");
      return;
    }
    state.PauseTiming();
    cluster.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ClusterLoad)->Arg(1)->Arg(16)->Unit(benchmark::kMillisecond);

/// One M1-mini host (HW-SS, 2 x 64 MiB SM backing, 28 MiB FM; 12 user
/// tables of 30k x 120 and 6 item tables of 2k x 120, int8): construction
/// plus LoadModel, teardown paused. Set-up cost here is image generation,
/// hashing and the device writes, not the backing size.
void BM_HostLoad(benchmark::State& state) {
  HostSimConfig cfg;
  cfg.host = MakeHwSS();
  cfg.fm_capacity = 28 * kMiB;
  cfg.sm_backing_per_device = 64 * kMiB;
  cfg.workload.num_users = 1500;
  const ModelConfig model = M1MiniModel();
  for (auto _ : state) {
    auto sim = std::make_unique<HostSimulation>(cfg);
    if (!sim->LoadModel(model).ok()) {
      state.SkipWithError("load failed");
      return;
    }
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_HostLoad)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sdm
