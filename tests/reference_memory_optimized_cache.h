// Test-only reference: the node-based MemoryOptimizedCache that the flat
// implementation in src/cache replaced. Each bucket is a std::vector of
// entries and each value its own heap vector. Kept verbatim so the
// differential test in cache_test.cpp can pin the flat cache's return
// values, bytes, stats and accounting to it operation by operation.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "cache/memory_optimized_cache.h"

namespace sdm {

class ReferenceMemoryOptimizedCache final : public RowCache {
 public:
  explicit ReferenceMemoryOptimizedCache(MemoryOptimizedCacheConfig config);

  bool Lookup(const RowKey& key, std::span<uint8_t> out, size_t* out_len) override;
  void Insert(const RowKey& key, std::span<const uint8_t> value) override;
  bool Erase(const RowKey& key) override;
  [[nodiscard]] bool Contains(const RowKey& key) const override;

  [[nodiscard]] const RowCacheStats& stats() const override { return stats_; }
  [[nodiscard]] size_t entry_count() const override { return entry_count_; }
  [[nodiscard]] Bytes memory_used() const override { return used_; }
  [[nodiscard]] Bytes capacity() const override { return config_.capacity; }
  [[nodiscard]] SimDuration LookupCpuCost() const override { return config_.lookup_cpu; }
  void Clear() override;

  [[nodiscard]] size_t bucket_count() const { return buckets_.size(); }

 private:
  struct Entry {
    RowKey key;
    std::vector<uint8_t> value;
    bool referenced = false;  // CLOCK second-chance bit
  };

  struct Bucket {
    std::vector<Entry> entries;
    Bytes used = 0;
    size_t clock_hand = 0;
  };

  [[nodiscard]] Bucket& BucketFor(const RowKey& key);
  void EvictFrom(Bucket& bucket);
  [[nodiscard]] Bytes EntryFootprint(const Entry& e) const {
    return e.value.size() + config_.per_entry_overhead;
  }

  MemoryOptimizedCacheConfig config_;
  Bytes bucket_budget_ = 0;
  std::vector<Bucket> buckets_;
  RowCacheStats stats_;
  size_t entry_count_ = 0;
  Bytes used_ = 0;
};

inline ReferenceMemoryOptimizedCache::ReferenceMemoryOptimizedCache(
    MemoryOptimizedCacheConfig config)
    : config_(config) {
  assert(config_.bucket_entries >= 1);
  const Bytes per_entry = config_.expected_value_bytes + config_.per_entry_overhead;
  const Bytes per_bucket = per_entry * static_cast<Bytes>(config_.bucket_entries);
  const size_t n = std::max<size_t>(1, config_.capacity / std::max<Bytes>(per_bucket, 1));
  buckets_.resize(n);
  bucket_budget_ = config_.capacity / n;
}

inline ReferenceMemoryOptimizedCache::Bucket& ReferenceMemoryOptimizedCache::BucketFor(
    const RowKey& key) {
  return buckets_[HashRowKey(key) % buckets_.size()];
}

inline bool ReferenceMemoryOptimizedCache::Lookup(const RowKey& key, std::span<uint8_t> out,
                                          size_t* out_len) {
  Bucket& bucket = BucketFor(key);
  for (Entry& e : bucket.entries) {
    if (e.key == key) {
      e.referenced = true;
      assert(out.size() >= e.value.size());
      std::memcpy(out.data(), e.value.data(), e.value.size());
      if (out_len != nullptr) *out_len = e.value.size();
      ++stats_.hits;
      return true;
    }
  }
  ++stats_.misses;
  return false;
}

inline void ReferenceMemoryOptimizedCache::Insert(const RowKey& key,
                                          std::span<const uint8_t> value) {
  Bucket& bucket = BucketFor(key);
  ++stats_.inserts;

  for (Entry& e : bucket.entries) {
    if (e.key == key) {
      used_ -= EntryFootprint(e);
      bucket.used -= EntryFootprint(e);
      e.value.assign(value.begin(), value.end());
      e.referenced = true;
      used_ += EntryFootprint(e);
      bucket.used += EntryFootprint(e);
      EvictFrom(bucket);
      return;
    }
  }

  Entry e;
  e.key = key;
  e.value.assign(value.begin(), value.end());
  e.referenced = true;
  bucket.used += EntryFootprint(e);
  used_ += EntryFootprint(e);
  bucket.entries.push_back(std::move(e));
  ++entry_count_;
  EvictFrom(bucket);
}

inline void ReferenceMemoryOptimizedCache::EvictFrom(Bucket& bucket) {
  // Evict while the bucket exceeds its byte budget or its associativity.
  while ((bucket.used > bucket_budget_ ||
          bucket.entries.size() > static_cast<size_t>(config_.bucket_entries)) &&
         bucket.entries.size() > 1) {
    // CLOCK: advance the hand, clearing ref bits, until an unreferenced
    // victim is found (bounded by 2 sweeps).
    size_t inspected = 0;
    const size_t limit = 2 * bucket.entries.size();
    while (inspected < limit) {
      if (bucket.clock_hand >= bucket.entries.size()) bucket.clock_hand = 0;
      Entry& candidate = bucket.entries[bucket.clock_hand];
      if (candidate.referenced) {
        candidate.referenced = false;
        ++bucket.clock_hand;
        ++inspected;
        continue;
      }
      // Evict: swap-with-last to keep the vector dense.
      used_ -= EntryFootprint(candidate);
      bucket.used -= EntryFootprint(candidate);
      std::swap(candidate, bucket.entries.back());
      bucket.entries.pop_back();
      --entry_count_;
      ++stats_.evictions;
      break;
    }
    if (inspected >= limit) {
      // Pathological: everything referenced twice; force-evict the hand.
      if (bucket.clock_hand >= bucket.entries.size()) bucket.clock_hand = 0;
      Entry& victim = bucket.entries[bucket.clock_hand];
      used_ -= EntryFootprint(victim);
      bucket.used -= EntryFootprint(victim);
      std::swap(victim, bucket.entries.back());
      bucket.entries.pop_back();
      --entry_count_;
      ++stats_.evictions;
    }
  }
}

inline bool ReferenceMemoryOptimizedCache::Erase(const RowKey& key) {
  Bucket& bucket = BucketFor(key);
  for (size_t i = 0; i < bucket.entries.size(); ++i) {
    if (bucket.entries[i].key == key) {
      used_ -= EntryFootprint(bucket.entries[i]);
      bucket.used -= EntryFootprint(bucket.entries[i]);
      std::swap(bucket.entries[i], bucket.entries.back());
      bucket.entries.pop_back();
      --entry_count_;
      return true;
    }
  }
  return false;
}

inline bool ReferenceMemoryOptimizedCache::Contains(const RowKey& key) const {
  const Bucket& bucket = buckets_[HashRowKey(key) % buckets_.size()];
  for (const Entry& e : bucket.entries) {
    if (e.key == key) return true;
  }
  return false;
}

inline void ReferenceMemoryOptimizedCache::Clear() {
  for (auto& b : buckets_) {
    b.entries.clear();
    b.used = 0;
    b.clock_hand = 0;
  }
  entry_count_ = 0;
  used_ = 0;
}
}  // namespace sdm
