// Memory-optimized row cache: set-associative buckets with CLOCK eviction.
//
// The "less overhead per key-value pair, but requires search in a bucket"
// design of paper §4.3, laid out flat like CacheLib's compact cache:
//   - `HashRowKey(key) % bucket_count()` picks a bucket;
//   - each bucket owns a fixed block of one metadata array: a 16 B header
//     (live count, CLOCK hand, value bytes in use) followed by
//     `bucket_entries + 1` slots (key, value length, value offset, CLOCK
//     ref bit: 24 B each);
//   - each bucket owns a fixed region of one value slab, holding its live
//     values back to back.
// A lookup is a linear probe of the bucket's block, which starts on the
// header's cache line, and one copy out of its region; no operation
// allocates except a re-layout of the slab when a lone value larger than
// any region so far arrives.
//
// Each bucket evicts locally (no global LRU list) while it is over its byte
// budget (capacity / bucket_count()) or its associativity, but never below
// one entry, so a lone oversize value is still cached. An incoming value is
// staged from the caller's span while victims are chosen, so a region never
// holds more than the bucket's budget (or its one lone value); removing a
// value compacts the region with one memmove.
//
// Accounting: every entry is charged its value bytes plus
// `per_entry_overhead` (16 B by default: a packed key + length + ref bit).
// The real metadata cost is the block, 16 + 24 * (bucket_entries + 1)
// bytes per bucket: 29 B per entry for full buckets at the default 8-way
// associativity. The slab regions add nothing beyond the budget they hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cache/row_cache.h"
#include "common/zeroed_buffer.h"

namespace sdm {

struct MemoryOptimizedCacheConfig {
  Bytes capacity = 64 * kMiB;
  /// Expected stored-row size; sizes the bucket array at construction.
  Bytes expected_value_bytes = 64;
  /// Target entries per bucket (associativity).
  int bucket_entries = 8;
  /// Accounted metadata per entry (key + length + ref bit, packed).
  Bytes per_entry_overhead = 16;
  /// Modeled CPU per lookup (hash + bucket scan).
  SimDuration lookup_cpu = Nanos(250);
};

class MemoryOptimizedCache final : public RowCache {
 public:
  explicit MemoryOptimizedCache(MemoryOptimizedCacheConfig config);

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

  [[nodiscard]] size_t bucket_count() const { return bucket_count_; }

 private:
  /// One entry's metadata; its value sits at `offset` in the bucket's region.
  struct Slot {
    RowIndex row;
    uint32_t table;
    uint32_t offset;
    uint32_t len;
    bool referenced;  // CLOCK second-chance bit
  };

  struct BucketHeader {
    uint32_t count = 0;  // live slots, dense from index 0
    uint32_t hand = 0;   // CLOCK hand (a slot index, normalized on use)
    Bytes fill = 0;      // value bytes in use at the front of the region
  };

  /// Marks "no staged slot" during an insert's eviction pass.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  [[nodiscard]] size_t BucketFor(const RowKey& key) const {
    return HashRowKey(key) % bucket_count_;
  }
  /// Bucket `bucket`'s block: its header, then its slots.
  [[nodiscard]] std::byte* BlockOf(size_t bucket) {
    return reinterpret_cast<std::byte*>(blocks_.data()) + bucket * block_bytes_;
  }
  [[nodiscard]] const std::byte* BlockOf(size_t bucket) const {
    return reinterpret_cast<const std::byte*>(blocks_.data()) + bucket * block_bytes_;
  }
  [[nodiscard]] BucketHeader& HeaderOf(size_t bucket) {
    return *reinterpret_cast<BucketHeader*>(BlockOf(bucket));
  }
  [[nodiscard]] const BucketHeader& HeaderOf(size_t bucket) const {
    return *reinterpret_cast<const BucketHeader*>(BlockOf(bucket));
  }
  [[nodiscard]] Slot* SlotsOf(size_t bucket) {
    return reinterpret_cast<Slot*>(BlockOf(bucket) + sizeof(BucketHeader));
  }
  [[nodiscard]] const Slot* SlotsOf(size_t bucket) const {
    return reinterpret_cast<const Slot*>(BlockOf(bucket) + sizeof(BucketHeader));
  }
  [[nodiscard]] uint8_t* RegionOf(size_t bucket) { return slab_.get() + bucket * stride_; }
  /// Index of `key`'s slot in `bucket`, or kNoSlot.
  [[nodiscard]] uint32_t Find(size_t bucket, const RowKey& key) const;
  [[nodiscard]] Bytes Footprint(Bytes len) const { return len + config_.per_entry_overhead; }

  /// CLOCK-evicts from `bucket` until it fits its budget and associativity.
  /// `staged` is the slot whose `staged_len`-byte value is not in the region
  /// yet; returns its index after the evictions' swaps, or kNoSlot if it
  /// was itself evicted.
  uint32_t EvictFrom(size_t bucket, uint32_t staged, Bytes staged_len);
  /// Cuts slot `victim`'s value out of the region (one memmove) and shifts
  /// the offsets behind it. A staged slot's offset is rewritten on landing,
  /// so shifting it too is harmless.
  void CutValue(size_t bucket, uint32_t victim);
  /// Drops slot `victim` by moving the bucket's last slot into its place.
  /// Returns where `staged` now lives.
  uint32_t DropSlot(size_t bucket, uint32_t victim, uint32_t staged);
  /// Re-lays the slab out with `stride`-byte regions (a new largest value).
  void GrowStride(Bytes stride);

  MemoryOptimizedCacheConfig config_;
  size_t bucket_count_ = 0;
  Bytes bucket_budget_ = 0;
  size_t block_bytes_ = 0;  // header + (bucket_entries + 1) slots
  Bytes stride_ = 0;        // bytes per region: max(budget, largest value seen)
  /// Per-bucket blocks; the byte array implicitly creates the headers and
  /// slots placed in it. Zero bytes read as an empty bucket, so a block's
  /// page is committed only when its bucket is first written.
  ZeroedBuffer blocks_;
  std::unique_ptr<uint8_t[]> slab_;
  RowCacheStats stats_;
  size_t entry_count_ = 0;
  Bytes used_ = 0;
};

}  // namespace sdm
