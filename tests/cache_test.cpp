// Tests for src/cache: both row-cache designs, the dual router, and the
// pooled-embedding cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cpu_optimized_cache.h"
#include "cache/dual_cache.h"
#include "cache/memory_optimized_cache.h"
#include "cache/pooled_cache.h"
#include "common/rng.h"
#include "reference_memory_optimized_cache.h"

namespace sdm {
namespace {

std::vector<uint8_t> Value(size_t len, uint8_t fill) {
  return std::vector<uint8_t>(len, fill);
}

RowKey Key(uint32_t table, RowIndex row) { return RowKey{MakeTableId(table), row}; }

// ---------------------------------------------------------------------------
// Shared behaviour of both designs (typed tests).
// ---------------------------------------------------------------------------

template <typename T>
std::unique_ptr<RowCache> MakeCache(Bytes capacity);

template <>
std::unique_ptr<RowCache> MakeCache<CpuOptimizedCache>(Bytes capacity) {
  CpuOptimizedCacheConfig cfg;
  cfg.capacity = capacity;
  cfg.shards = 4;
  return std::make_unique<CpuOptimizedCache>(cfg);
}

template <>
std::unique_ptr<RowCache> MakeCache<MemoryOptimizedCache>(Bytes capacity) {
  MemoryOptimizedCacheConfig cfg;
  cfg.capacity = capacity;
  cfg.expected_value_bytes = 64;
  return std::make_unique<MemoryOptimizedCache>(cfg);
}

template <typename T>
class RowCacheTypedTest : public ::testing::Test {
 protected:
  std::unique_ptr<RowCache> NewCache(Bytes capacity = 1 * kMiB) {
    return MakeCache<T>(capacity);
  }
};

using CacheTypes = ::testing::Types<CpuOptimizedCache, MemoryOptimizedCache>;
TYPED_TEST_SUITE(RowCacheTypedTest, CacheTypes);

TYPED_TEST(RowCacheTypedTest, MissOnEmpty) {
  auto cache = this->NewCache();
  std::vector<uint8_t> out(64);
  size_t len = 0;
  EXPECT_FALSE(cache->Lookup(Key(0, 1), out, &len));
  EXPECT_EQ(cache->stats().misses, 1u);
}

TYPED_TEST(RowCacheTypedTest, InsertThenHitReturnsValue) {
  auto cache = this->NewCache();
  cache->Insert(Key(0, 1), Value(64, 0xAA));
  std::vector<uint8_t> out(64);
  size_t len = 0;
  ASSERT_TRUE(cache->Lookup(Key(0, 1), out, &len));
  EXPECT_EQ(len, 64u);
  for (const uint8_t b : out) EXPECT_EQ(b, 0xAA);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TYPED_TEST(RowCacheTypedTest, DistinctKeysDoNotCollide) {
  auto cache = this->NewCache();
  cache->Insert(Key(0, 1), Value(8, 1));
  cache->Insert(Key(0, 2), Value(8, 2));
  cache->Insert(Key(1, 1), Value(8, 3));
  std::vector<uint8_t> out(8);
  size_t len = 0;
  ASSERT_TRUE(cache->Lookup(Key(0, 1), out, &len));
  EXPECT_EQ(out[0], 1);
  ASSERT_TRUE(cache->Lookup(Key(0, 2), out, &len));
  EXPECT_EQ(out[0], 2);
  ASSERT_TRUE(cache->Lookup(Key(1, 1), out, &len));
  EXPECT_EQ(out[0], 3);
}

TYPED_TEST(RowCacheTypedTest, OverwriteReplacesValue) {
  auto cache = this->NewCache();
  cache->Insert(Key(0, 7), Value(16, 1));
  cache->Insert(Key(0, 7), Value(16, 9));
  std::vector<uint8_t> out(16);
  size_t len = 0;
  ASSERT_TRUE(cache->Lookup(Key(0, 7), out, &len));
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(cache->entry_count(), 1u);
}

TYPED_TEST(RowCacheTypedTest, EraseRemoves) {
  auto cache = this->NewCache();
  cache->Insert(Key(0, 7), Value(16, 1));
  EXPECT_TRUE(cache->Erase(Key(0, 7)));
  EXPECT_FALSE(cache->Erase(Key(0, 7)));
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(cache->Lookup(Key(0, 7), out, nullptr));
  EXPECT_EQ(cache->entry_count(), 0u);
}

TYPED_TEST(RowCacheTypedTest, CapacityBoundedUnderPressure) {
  auto cache = this->NewCache(16 * kKiB);
  for (uint64_t i = 0; i < 4000; ++i) {
    cache->Insert(Key(0, i), Value(64, static_cast<uint8_t>(i)));
  }
  EXPECT_LE(cache->memory_used(), 16 * kKiB + 4096);  // small slack per shard/bucket
  EXPECT_GT(cache->stats().evictions, 0u);
}

TYPED_TEST(RowCacheTypedTest, ClearEmptiesEverything) {
  auto cache = this->NewCache();
  for (uint64_t i = 0; i < 100; ++i) cache->Insert(Key(0, i), Value(32, 1));
  cache->Clear();
  EXPECT_EQ(cache->entry_count(), 0u);
  EXPECT_EQ(cache->memory_used(), 0u);
}

TYPED_TEST(RowCacheTypedTest, ReferencedKeysOutliveUnreferencedOnes) {
  // LRU (exact) and CLOCK (second chance) both privilege re-referenced keys
  // over untouched ones under scan pressure. Compare survival of a hot set
  // (touched every round) against a cold control set (inserted once).
  auto cache = this->NewCache(64 * kKiB);
  const uint64_t kSetSize = 32;
  for (uint64_t h = 0; h < kSetSize; ++h) cache->Insert(Key(9, h), Value(64, 7));
  for (uint64_t c = 0; c < kSetSize; ++c) cache->Insert(Key(8, c), Value(64, 3));
  std::vector<uint8_t> out(64);
  for (int round = 0; round < 50; ++round) {
    for (uint64_t h = 0; h < kSetSize; ++h) (void)cache->Lookup(Key(9, h), out, nullptr);
    for (uint64_t i = 0; i < 20; ++i) {
      cache->Insert(Key(0, static_cast<uint64_t>(round) * 100 + i), Value(64, 1));
    }
  }
  int hot_survivors = 0;
  int cold_survivors = 0;
  for (uint64_t h = 0; h < kSetSize; ++h) {
    if (cache->Lookup(Key(9, h), out, nullptr)) ++hot_survivors;
  }
  for (uint64_t c = 0; c < kSetSize; ++c) {
    if (cache->Lookup(Key(8, c), out, nullptr)) ++cold_survivors;
  }
  EXPECT_GT(hot_survivors, cold_survivors);
  EXPECT_GE(hot_survivors, static_cast<int>(kSetSize) / 4);
}

TYPED_TEST(RowCacheTypedTest, VariableValueSizes) {
  auto cache = this->NewCache();
  cache->Insert(Key(0, 1), Value(24, 3));
  cache->Insert(Key(0, 2), Value(300, 4));
  std::vector<uint8_t> out(300);
  size_t len = 0;
  ASSERT_TRUE(cache->Lookup(Key(0, 1), out, &len));
  EXPECT_EQ(len, 24u);
  ASSERT_TRUE(cache->Lookup(Key(0, 2), out, &len));
  EXPECT_EQ(len, 300u);
}

// ---------------------------------------------------------------------------
// Design-specific properties.
// ---------------------------------------------------------------------------

TEST(CacheOverheads, MemoryOptimizedHasLowerOverheadHigherCpu) {
  MemoryOptimizedCacheConfig mcfg;
  CpuOptimizedCacheConfig ccfg;
  EXPECT_LT(mcfg.per_entry_overhead, ccfg.per_entry_overhead);
  EXPECT_GT(mcfg.lookup_cpu, ccfg.lookup_cpu);
}

TEST(CacheOverheads, SameBudgetHoldsMoreSmallRowsInMemoryOptimized) {
  const Bytes budget = 256 * kKiB;
  auto mem = MakeCache<MemoryOptimizedCache>(budget);
  auto cpu = MakeCache<CpuOptimizedCache>(budget);
  for (uint64_t i = 0; i < 100'000; ++i) {
    mem->Insert(Key(0, i), Value(64, 1));
    cpu->Insert(Key(0, i), Value(64, 1));
  }
  // 16B vs 56B metadata per 64B value: the memory-optimized design fits
  // meaningfully more entries into the same budget.
  EXPECT_GT(mem->entry_count(), cpu->entry_count());
  EXPECT_GT(static_cast<double>(mem->entry_count()),
            1.2 * static_cast<double>(cpu->entry_count()));
}

TEST(CpuOptimized, ExactLruEviction) {
  CpuOptimizedCacheConfig cfg;
  cfg.capacity = (64 + 56) * 4;  // exactly 4 entries
  cfg.shards = 1;
  CpuOptimizedCache cache(cfg);
  for (uint64_t i = 0; i < 4; ++i) cache.Insert(Key(0, i), Value(64, 1));
  std::vector<uint8_t> out(64);
  // Touch 0 so 1 becomes LRU.
  ASSERT_TRUE(cache.Lookup(Key(0, 0), out, nullptr));
  cache.Insert(Key(0, 99), Value(64, 1));  // evicts key 1
  EXPECT_TRUE(cache.Lookup(Key(0, 0), out, nullptr));
  EXPECT_FALSE(cache.Lookup(Key(0, 1), out, nullptr));
}

TEST(MemoryOptimized, BucketCountScalesWithCapacity) {
  MemoryOptimizedCacheConfig small;
  small.capacity = 64 * kKiB;
  MemoryOptimizedCacheConfig big;
  big.capacity = 1 * kMiB;
  EXPECT_GT(MemoryOptimizedCache(big).bucket_count(),
            MemoryOptimizedCache(small).bucket_count());
}

// ---------------------------------------------------------------------------
// Flat MemoryOptimizedCache vs the node-based reference it replaced.
// ---------------------------------------------------------------------------

struct FlatCacheGeometry {
  Bytes capacity;
  Bytes expected_value_bytes;
  int bucket_entries;
};

// Drives both caches with one seeded mix of insert / overwrite / lookup /
// erase / contains / clear and requires identical observable behaviour after
// every operation: return values, copied bytes, stats and accounting.
void ExpectMatchesReference(const FlatCacheGeometry& g, uint64_t seed, int ops) {
  MemoryOptimizedCacheConfig cfg;
  cfg.capacity = g.capacity;
  cfg.expected_value_bytes = g.expected_value_bytes;
  cfg.bucket_entries = g.bucket_entries;
  MemoryOptimizedCache flat(cfg);
  ReferenceMemoryOptimizedCache ref(cfg);
  ASSERT_EQ(flat.bucket_count(), ref.bucket_count());

  // Four tables of about as many rows as fit: 4x more keys than room.
  const uint64_t rows =
      std::max<uint64_t>(16, g.capacity / (g.expected_value_bytes + cfg.per_entry_overhead));
  Rng rng(seed);
  RowKey last_inserted = Key(0, 0);
  std::vector<uint8_t> value;
  std::vector<uint8_t> flat_out(512);
  std::vector<uint8_t> ref_out(512);
  for (int op = 0; op < ops; ++op) {
    const uint64_t action = rng.NextBounded(100);
    const RowKey key = action < 10 ? last_inserted
                                   : Key(static_cast<uint32_t>(rng.NextBounded(4)),
                                         rng.NextBounded(rows));
    if (action < 45) {  // insert; the first 10% overwrite the last key
      // Mostly row-sized values, a quarter up to 300 B (above small budgets).
      const size_t len = 8 + rng.NextBounded(rng.NextBounded(4) == 0 ? 293 : 57);
      value.resize(len);
      for (size_t j = 0; j < len; ++j) value[j] = static_cast<uint8_t>(op * 31 + j);
      flat.Insert(key, value);
      ref.Insert(key, value);
      last_inserted = key;
    } else if (action < 80) {
      std::fill(flat_out.begin(), flat_out.end(), 0xEE);
      std::fill(ref_out.begin(), ref_out.end(), 0xEE);
      size_t flat_len = 0;
      size_t ref_len = 0;
      const bool flat_hit = flat.Lookup(key, flat_out, &flat_len);
      ASSERT_EQ(flat_hit, ref.Lookup(key, ref_out, &ref_len)) << "op " << op;
      ASSERT_EQ(flat_len, ref_len) << "op " << op;
      ASSERT_EQ(flat_out, ref_out) << "op " << op;
    } else if (action < 90) {
      ASSERT_EQ(flat.Erase(key), ref.Erase(key)) << "op " << op;
    } else if (action < 99 || rng.NextBounded(200) != 0) {
      ASSERT_EQ(flat.Contains(key), ref.Contains(key)) << "op " << op;
    } else {
      flat.Clear();
      ref.Clear();
    }
    ASSERT_EQ(flat.stats().hits, ref.stats().hits) << "op " << op;
    ASSERT_EQ(flat.stats().misses, ref.stats().misses) << "op " << op;
    ASSERT_EQ(flat.stats().inserts, ref.stats().inserts) << "op " << op;
    ASSERT_EQ(flat.stats().evictions, ref.stats().evictions) << "op " << op;
    ASSERT_EQ(flat.entry_count(), ref.entry_count()) << "op " << op;
    ASSERT_EQ(flat.memory_used(), ref.memory_used()) << "op " << op;
  }
  // The run must have exercised eviction, not just filled an idle cache.
  EXPECT_GT(ref.stats().evictions, 0u);
  EXPECT_GT(ref.stats().hits, 0u);
}

class FlatCacheDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatCacheDifferential, MatchesNodeBasedReferenceOpByOp) {
  const FlatCacheGeometry geometries[] = {
      {16 * kKiB, 64, 8},   // the default associativity
      {4 * kKiB, 32, 1},    // direct-mapped; most values exceed the budget
      {64 * kKiB, 128, 4},  // fewer, larger slots
      {2 * kKiB, 256, 16},  // one bucket holding everything
  };
  for (const FlatCacheGeometry& g : geometries) {
    SCOPED_TRACE(::testing::Message() << "capacity " << g.capacity << " expected "
                                      << g.expected_value_bytes << " ways "
                                      << g.bucket_entries);
    ExpectMatchesReference(g, GetParam(), 100'000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatCacheDifferential, ::testing::Values(1, 2, 3));

TEST(MemoryOptimized, LoneValueAboveBudgetIsCachedWhole) {
  MemoryOptimizedCacheConfig cfg;
  cfg.capacity = 4 * kKiB;
  cfg.expected_value_bytes = 32;
  cfg.bucket_entries = 1;  // 48 B budget per bucket
  MemoryOptimizedCache cache(cfg);
  std::vector<uint8_t> big(300);
  for (size_t j = 0; j < big.size(); ++j) big[j] = static_cast<uint8_t>(j);
  cache.Insert(Key(0, 1), big);
  std::vector<uint8_t> out(300);
  size_t len = 0;
  ASSERT_TRUE(cache.Lookup(Key(0, 1), out, &len));
  EXPECT_EQ(len, 300u);
  EXPECT_EQ(out, big);
  EXPECT_EQ(cache.memory_used(), 300 + cfg.per_entry_overhead);
}

// ---------------------------------------------------------------------------
// DualRowCache.
// ---------------------------------------------------------------------------

DualCacheConfig SmallDualConfig() {
  DualCacheConfig cfg;
  cfg.capacity = 1 * kMiB;
  cfg.memory_optimized_fraction = 0.5;
  cfg.routing_threshold = 255;
  return cfg;
}

TEST(DualCache, RoutesByRowSize) {
  DualRowCache cache(SmallDualConfig());
  cache.RegisterTable(MakeTableId(0), 64);    // small -> memory optimized
  cache.RegisterTable(MakeTableId(1), 512);   // big -> cpu optimized
  cache.RegisterTable(MakeTableId(2), 255);   // boundary -> memory optimized
  cache.RegisterTable(MakeTableId(3), 256);   // just above -> cpu optimized
  EXPECT_TRUE(cache.IsMemoryOptimizedRoute(MakeTableId(0)));
  EXPECT_FALSE(cache.IsMemoryOptimizedRoute(MakeTableId(1)));
  EXPECT_TRUE(cache.IsMemoryOptimizedRoute(MakeTableId(2)));
  EXPECT_FALSE(cache.IsMemoryOptimizedRoute(MakeTableId(3)));
}

TEST(DualCache, TrafficLandsInRoutedPartition) {
  DualRowCache cache(SmallDualConfig());
  cache.RegisterTable(MakeTableId(0), 64);
  cache.RegisterTable(MakeTableId(1), 512);
  cache.Insert(Key(0, 1), Value(64, 1));
  cache.Insert(Key(1, 1), Value(512, 2));
  EXPECT_EQ(cache.memory_optimized().entry_count(), 1u);
  EXPECT_EQ(cache.cpu_optimized().entry_count(), 1u);
  std::vector<uint8_t> out(512);
  size_t len = 0;
  EXPECT_TRUE(cache.Lookup(Key(0, 1), out, &len));
  EXPECT_TRUE(cache.Lookup(Key(1, 1), out, &len));
}

TEST(DualCache, CombinedStatsAggregate) {
  DualRowCache cache(SmallDualConfig());
  cache.RegisterTable(MakeTableId(0), 64);
  cache.RegisterTable(MakeTableId(1), 512);
  std::vector<uint8_t> out(512);
  (void)cache.Lookup(Key(0, 1), out, nullptr);  // miss in mem partition
  (void)cache.Lookup(Key(1, 1), out, nullptr);  // miss in cpu partition
  EXPECT_EQ(cache.stats().misses, 2u);
  cache.Insert(Key(0, 1), Value(64, 1));
  (void)cache.Lookup(Key(0, 1), out, nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(DualCache, RouteCpuCostDiffers) {
  DualRowCache cache(SmallDualConfig());
  cache.RegisterTable(MakeTableId(0), 64);
  cache.RegisterTable(MakeTableId(1), 512);
  EXPECT_GT(cache.RouteCpuCost(MakeTableId(0)).nanos(),
            cache.RouteCpuCost(MakeTableId(1)).nanos());
}

TEST(DualCache, CapacitySplitRespectsFraction) {
  DualCacheConfig cfg = SmallDualConfig();
  cfg.memory_optimized_fraction = 0.25;
  DualRowCache cache(cfg);
  EXPECT_NEAR(static_cast<double>(cache.memory_optimized().capacity()),
              0.25 * static_cast<double>(cfg.capacity),
              static_cast<double>(cfg.capacity) * 0.05);
}

TEST(DualCache, ClearBothPartitions) {
  DualRowCache cache(SmallDualConfig());
  cache.RegisterTable(MakeTableId(0), 64);
  cache.RegisterTable(MakeTableId(1), 512);
  cache.Insert(Key(0, 1), Value(64, 1));
  cache.Insert(Key(1, 1), Value(512, 1));
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
}

// ---------------------------------------------------------------------------
// OrderInvariantHash.
// ---------------------------------------------------------------------------

TEST(OrderInvariantHash, PermutationInvariant) {
  const std::vector<RowIndex> a = {5, 9, 200, 7};
  const std::vector<RowIndex> b = {200, 7, 5, 9};
  EXPECT_EQ(OrderInvariantHash(a), OrderInvariantHash(b));
}

TEST(OrderInvariantHash, DistinguishesMultiplicity) {
  const std::vector<RowIndex> a = {5};
  const std::vector<RowIndex> b = {5, 5};
  EXPECT_NE(OrderInvariantHash(a), OrderInvariantHash(b));
}

TEST(OrderInvariantHash, DistinguishesDifferentSets) {
  const std::vector<RowIndex> a = {1, 2, 3};
  const std::vector<RowIndex> b = {1, 2, 4};
  EXPECT_NE(OrderInvariantHash(a), OrderInvariantHash(b));
}

TEST(OrderInvariantHash, EmptyIsStable) {
  EXPECT_EQ(OrderInvariantHash({}), OrderInvariantHash({}));
}

// ---------------------------------------------------------------------------
// PooledEmbeddingCache.
// ---------------------------------------------------------------------------

PooledCacheConfig PooledConfig(size_t len_threshold = 4, Bytes capacity = 64 * kKiB) {
  PooledCacheConfig cfg;
  cfg.capacity = capacity;
  cfg.len_threshold = len_threshold;
  return cfg;
}

TEST(PooledCache, HitAfterInsert) {
  PooledEmbeddingCache cache(PooledConfig());
  const std::vector<RowIndex> seq = {1, 2, 3, 4, 5};
  cache.Insert(MakeTableId(0), seq, std::vector<float>{1.0f, 2.0f});
  const auto* hit = cache.Lookup(MakeTableId(0), seq);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[1], 2.0f);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PooledCache, PermutedSequenceHits) {
  PooledEmbeddingCache cache(PooledConfig());
  cache.Insert(MakeTableId(0), std::vector<RowIndex>{1, 2, 3, 4},
               std::vector<float>{7.0f});
  const auto* hit = cache.Lookup(MakeTableId(0), std::vector<RowIndex>{4, 3, 2, 1});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 7.0f);
}

TEST(PooledCache, BelowThresholdUncacheable) {
  PooledEmbeddingCache cache(PooledConfig(4));
  const std::vector<RowIndex> shortseq = {1, 2, 3};
  cache.Insert(MakeTableId(0), shortseq, std::vector<float>{1.0f});
  EXPECT_EQ(cache.Lookup(MakeTableId(0), shortseq), nullptr);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().uncacheable, 1u);
}

TEST(PooledCache, TablesAreIsolated) {
  PooledEmbeddingCache cache(PooledConfig());
  const std::vector<RowIndex> seq = {1, 2, 3, 4};
  cache.Insert(MakeTableId(0), seq, std::vector<float>{1.0f});
  EXPECT_EQ(cache.Lookup(MakeTableId(1), seq), nullptr);
}

TEST(PooledCache, EvictsAtCapacity) {
  PooledEmbeddingCache cache(PooledConfig(4, 4 * kKiB));
  for (uint64_t i = 0; i < 200; ++i) {
    cache.Insert(MakeTableId(0), std::vector<RowIndex>{i, i + 1, i + 2, i + 3},
                 std::vector<float>(64, 1.0f));
  }
  EXPECT_LE(cache.memory_used(), 4 * kKiB);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(PooledCache, InvalidateTableDropsOnlyThatTable) {
  PooledEmbeddingCache cache(PooledConfig());
  const std::vector<RowIndex> seq = {1, 2, 3, 4};
  cache.Insert(MakeTableId(0), seq, std::vector<float>{1.0f});
  cache.Insert(MakeTableId(1), seq, std::vector<float>{2.0f});
  cache.InvalidateTable(MakeTableId(0));
  EXPECT_EQ(cache.Lookup(MakeTableId(0), seq), nullptr);
  EXPECT_NE(cache.Lookup(MakeTableId(1), seq), nullptr);
}

TEST(PooledCache, HitStatsTrackLength) {
  PooledEmbeddingCache cache(PooledConfig(2));
  cache.Insert(MakeTableId(0), std::vector<RowIndex>{1, 2, 3, 4, 5, 6},
               std::vector<float>{1.0f});
  (void)cache.Lookup(MakeTableId(0), std::vector<RowIndex>{1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(cache.stats().AvgHitLength(), 6.0);
}

TEST(PooledCache, LenThresholdSweepChangesAdmissions) {
  // Table 4's knob: higher threshold -> fewer cacheable requests but longer
  // average hit length.
  for (const size_t threshold : {size_t{1}, size_t{8}, size_t{32}}) {
    PooledEmbeddingCache cache(PooledConfig(threshold, 1 * kMiB));
    Rng rng(5);
    uint64_t cacheable = 0;
    for (int i = 0; i < 1000; ++i) {
      const size_t len = 1 + rng.NextBounded(40);
      std::vector<RowIndex> seq(len);
      for (auto& s : seq) s = rng.NextBounded(1000);
      if (len >= threshold) ++cacheable;
      cache.Insert(MakeTableId(0), seq, std::vector<float>{1.0f});
    }
    EXPECT_EQ(cache.stats().inserts, cacheable);
  }
}

TEST(PooledCache, LruEvictionKeepsRecent) {
  PooledCacheConfig cfg;
  // Fits ~4 entries of 64 floats (256B + 64 overhead).
  cfg.capacity = 4 * (256 + 64);
  cfg.len_threshold = 2;
  PooledEmbeddingCache cache(cfg);
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Insert(MakeTableId(0), std::vector<RowIndex>{i, i + 100},
                 std::vector<float>(64, static_cast<float>(i)));
  }
  // The most recent insert must still be there.
  EXPECT_NE(cache.Lookup(MakeTableId(0), std::vector<RowIndex>{7, 107}), nullptr);
  // The oldest must be gone.
  EXPECT_EQ(cache.Lookup(MakeTableId(0), std::vector<RowIndex>{0, 100}), nullptr);
}

}  // namespace
}  // namespace sdm
