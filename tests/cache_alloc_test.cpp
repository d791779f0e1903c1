// Heap-allocation budget of the memory-optimized row cache: once warm, its
// lookups, inserts, overwrites, erases, residency probes and clears never
// touch the heap. This binary replaces the global operator new/delete with
// counting versions, so the check is on allocation counts, not timings.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cache/memory_optimized_cache.h"
#include "common/rng.h"

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

}  // namespace
}  // namespace sdm
