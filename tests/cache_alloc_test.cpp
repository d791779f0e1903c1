// Heap-allocation budgets. Once warm, the memory-optimized row cache's
// lookups, inserts, overwrites, erases, residency probes and clears never
// touch the heap, recording metrics or spans adds no allocation to a
// simulated lookup, and a lookup's allocations do not grow with its runs. This binary replaces the global operator new/delete with
// counting versions, so the checks are on allocation counts, not timings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cache/memory_optimized_cache.h"
#include "common/rng.h"
#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "dlrm/model_zoo.h"
#include "fabric/fabric_attached_service.h"
#include "obs/observability.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace sdm {
namespace {

TEST(CacheAllocations, CounterSeesHeapAllocations) {
  const uint64_t before = g_allocations.load();
  void* p = ::operator new(64);  // a call, which the compiler may not elide
  ::operator delete(p);
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

TEST(CacheAllocations, WarmMemoryOptimizedCacheNeverAllocates) {
  MemoryOptimizedCacheConfig cfg;
  cfg.capacity = 256 * kKiB;
  cfg.expected_value_bytes = 64;
  MemoryOptimizedCache cache(cfg);
  const uint64_t rows = 4 * cfg.capacity / (64 + cfg.per_entry_overhead);
  std::vector<uint8_t> value(300, 0x5A);
  std::vector<uint8_t> out(300);
  // Warm-up: fill every bucket past its budget, largest value included.
  cache.Insert(RowKey{MakeTableId(0), 0}, value);
  for (uint64_t row = 0; row < rows; ++row) {
    cache.Insert(RowKey{MakeTableId(0), row}, std::span(value.data(), 64));
  }

  Rng rng(7);
  uint64_t hits = 0;
  uint64_t erased = 0;
  uint64_t resident = 0;
  const uint64_t before = g_allocations.load();
  for (int op = 0; op < 100'000; ++op) {
    const RowKey key{MakeTableId(static_cast<uint32_t>(rng.NextBounded(2))),
                     rng.NextBounded(rows)};
    const uint64_t action = rng.NextBounded(1000);
    if (action < 400) {  // insert or overwrite, 8..300 B
      const size_t len = 8 + rng.NextBounded(293);
      cache.Insert(key, std::span(value.data(), len));
    } else if (action < 750) {
      size_t len = 0;
      if (cache.Lookup(key, out, &len)) ++hits;
    } else if (action < 900) {
      if (cache.Erase(key)) ++erased;
    } else if (action < 999) {
      if (cache.Contains(key)) ++resident;
    } else {
      cache.Clear();
    }
  }
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  // The mix really exercised the warm paths.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(erased, 0u);
  EXPECT_GT(resident, 0u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

/// Heap allocations over `lookups` warm lookups of bench_micro's
/// BM_SimulatedLookup rig: obs off (0), metrics (1), metrics + tracing (2).
uint64_t SimulatedLookupAllocations(int obs_level, int lookups) {
  EventLoop loop;
  ObsConfig ocfg;
  ocfg.enable_metrics = obs_level >= 1;
  ocfg.enable_tracing = obs_level >= 2;
  Observability obs(ocfg);
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  if (obs_level >= 1) {
    cfg.obs = &obs;
    cfg.obs_prefix = "host0/";
  }
  SdmStore store(cfg, &loop);
  const ModelConfig model = MakeTinyUniformModel(16, 2, 1, 2000);
  EXPECT_TRUE(ModelLoader::Load(model, {}, &store).ok());
  LookupEngine engine(&store);
  Rng rng(11);
  int done = 0;
  uint64_t before = 0;
  for (int i = 0; i < 2'000 + lookups; ++i) {
    if (i == 2'000) before = g_allocations.load();  // the first 2k warm up
    LookupRequest req;
    req.table = MakeTableId(0);
    req.indices = {rng.NextBounded(2000), rng.NextBounded(2000), rng.NextBounded(2000)};
    engine.Lookup(std::move(req),
                  [&done](Status, std::vector<float>, const LookupTrace&) { ++done; });
    loop.RunUntilIdle();
  }
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(done, 2'000 + lookups);
  return allocations;
}

TEST(LookupAllocations, ObservabilityAddsNoAllocationPerLookup) {
  // The deterministic side of CI's obs-overhead gate: the timing gate
  // compares the same rig's wall clock, this compares its heap traffic.
  // Recording grows its window series geometrically (a handful of
  // allocations per doubling of the run) but must add none per lookup: one
  // per lookup would add kLookups. Measured: 80,822 allocations off and
  // 80,831 with metrics or tracing, ~4.04 per lookup (121,541, ~6.08 per
  // lookup, before request states and run contexts were pooled).
  constexpr int kLookups = 20'000;
  const uint64_t off = SimulatedLookupAllocations(0, kLookups);
  EXPECT_GE(off, uint64_t{kLookups});  // the rig really counts
  for (int level = 1; level <= 2; ++level) {
    SCOPED_TRACE(testing::Message() << "obs level " << level);
    const uint64_t on = SimulatedLookupAllocations(level, kLookups);
    EXPECT_GE(on, off);
    EXPECT_LT(on - off, uint64_t{kLookups / 1000});
  }
}

/// Heap allocations per iteration of a disagg16-shaped rig: two hosts on
/// one fabric-attached SM stack, row cache off, whole-block reads. Each
/// iteration host 0 looks up 8 rows in 8 non-adjacent blocks (8 runs, 8
/// device reads) and, while those reads are at the device, host 1 looks up
/// rows in the first `runs` of those blocks: `runs` runs, each riding one
/// of host 0's reads across hosts. Device reads stay at 8 whatever `runs` is, so
/// the difference between two `runs` values is the cost of runs alone.
double CrossHostAllocationsPerIteration(int runs) {
  TuningConfig tuning;
  tuning.enable_row_cache = false;
  tuning.sub_block_reads = false;
  tuning.fabric_latency = Micros(2);
  EventLoop loop;
  FabricServiceConfig fcfg;
  fcfg.device.sm_specs = {MakeOptaneSsdSpec()};
  fcfg.device.sm_backing_bytes = {16 * kMiB};
  fcfg.device.tuning = tuning;
  fcfg.link.latency = tuning.fabric_latency;
  FabricAttachedService fabric(fcfg, &loop);
  std::vector<std::unique_ptr<SdmStore>> stores;
  for (uint64_t host = 0; host < 2; ++host) {
    SdmStoreConfig cfg;
    cfg.fm_capacity = 8 * kMiB;
    cfg.tuning = tuning;
    cfg.seed = 5 + host;
    cfg.shared_device = &fabric.device_service();
    cfg.tenant_id = fabric.AttachHost();
    stores.push_back(std::make_unique<SdmStore>(cfg, &loop));
  }
  const ModelConfig model = MakeTinyUniformModel(16, 1, 0, 20'000);
  const std::vector<SdmStore*> replicas = {stores[0].get(), stores[1].get()};
  EXPECT_TRUE(ModelLoader::LoadReplicas(model, {}, replicas).ok());
  const TableId table = MakeTableId(0);
  const TableRuntime& t = stores[0]->table(table);
  EXPECT_EQ(t.tier, MemoryTier::kSm);

  // The first whole row in every other block: no two rows share or abut a
  // block, so each is a run of its own.
  const Bytes rb = t.config.row_bytes();
  const uint64_t first_block = t.offset / kBlockSize + 1;
  std::vector<RowIndex> rows;
  for (uint64_t row = 0; rows.size() < 8 && row < t.config.num_rows; ++row) {
    const Bytes off = t.offset + row * rb;
    const uint64_t block = first_block + 2 * rows.size();
    if (off >= block * kBlockSize && (off + rb - 1) / kBlockSize == block) rows.push_back(row);
  }
  EXPECT_EQ(rows.size(), 8u);

  LookupEngine host0(stores[0].get());
  LookupEngine host1(stores[1].get());
  int done = 0;
  const auto lookup = [&done](LookupEngine& engine, std::vector<RowIndex> indices) {
    LookupRequest req;
    req.table = MakeTableId(0);
    req.indices = std::move(indices);
    engine.Lookup(std::move(req),
                  [&done](Status s, std::vector<float>, const LookupTrace&) {
                    EXPECT_TRUE(s.ok());
                    ++done;
                  });
  };
  constexpr int kWarmUp = 200;
  constexpr int kIterations = 2'000;
  uint64_t before = 0;
  for (int i = 0; i < kWarmUp + kIterations; ++i) {
    if (i == kWarmUp) before = g_allocations.load();
    lookup(host0, rows);
    loop.RunUntil(loop.Now() + Micros(3));  // host 0's reads are at the device
    lookup(host1, std::vector<RowIndex>(rows.begin(), rows.begin() + runs));
    loop.RunUntilIdle();
  }
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(done, 2 * (kWarmUp + kIterations));
  // Every run of host 1 rode a read of host 0's: 8 reads per iteration.
  const TenantIoShare share = fabric.host_io_share(1);
  EXPECT_EQ(share.cross_tenant_hits, static_cast<uint64_t>(runs) * (kWarmUp + kIterations));
  EXPECT_EQ(fabric.host_io_share(0).demand_reads, 8u * (kWarmUp + kIterations));
  return static_cast<double>(allocations) / kIterations;
}

TEST(LookupAllocations, CrossHostRunsAddNoAllocation) {
  // The run path — run context, planner output, its rows, the throttle
  // waiter, the scheduler completion and its subscriber slot — allocates
  // nothing once warm, so host 1 riding 8 reads costs what riding 4 does.
  // Measured per iteration (2 lookups, 8 device reads): 84.0 with 4 runs
  // and 84.0 with 8. Before request states and run contexts were pooled:
  // 152.0 and 170.0, 4.5 allocations per run. The bound leaves a little
  // room for other standard libraries and fails the old run path.
  const double four = CrossHostAllocationsPerIteration(4);
  const double eight = CrossHostAllocationsPerIteration(8);
  EXPECT_LT(eight - four, 0.05);
  EXPECT_LE(eight, 90.0);
}

}  // namespace
}  // namespace sdm
