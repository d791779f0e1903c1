#include "cache/memory_optimized_cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>

namespace sdm {
namespace {

size_t BucketCount(const MemoryOptimizedCacheConfig& c) {
  const Bytes per_entry = c.expected_value_bytes + c.per_entry_overhead;
  const Bytes per_bucket = per_entry * static_cast<Bytes>(c.bucket_entries);
  return std::max<size_t>(1, c.capacity / std::max<Bytes>(per_bucket, 1));
}

}  // namespace

MemoryOptimizedCache::MemoryOptimizedCache(MemoryOptimizedCacheConfig config)
    : config_(config),
      bucket_count_(BucketCount(config)),
      bucket_budget_(config.capacity / bucket_count_),
      block_bytes_(sizeof(BucketHeader) +
                   (static_cast<size_t>(config.bucket_entries) + 1) * sizeof(Slot)),
      stride_(bucket_budget_),
      blocks_(bucket_count_ * block_bytes_) {
  assert(config_.bucket_entries >= 1);
  static_assert(sizeof(BucketHeader) % alignof(Slot) == 0);
  // The blocks start zeroed, and zero bytes are an empty bucket: nothing is
  // written up front. Slots and values are never read before they are
  // written.
  using HeaderBytes = std::array<uint8_t, sizeof(BucketHeader)>;
  static_assert(std::bit_cast<HeaderBytes>(BucketHeader{}) == HeaderBytes{},
                "an all-zero block must read as an empty bucket");
  assert(stride_ <= UINT32_MAX);
  slab_ = std::make_unique_for_overwrite<uint8_t[]>(bucket_count_ * stride_);
}

uint32_t MemoryOptimizedCache::Find(size_t bucket, const RowKey& key) const {
  const Slot* slots = SlotsOf(bucket);
  const uint32_t count = HeaderOf(bucket).count;
  for (uint32_t i = 0; i < count; ++i) {
    if (slots[i].row == key.row && slots[i].table == Raw(key.table)) return i;
  }
  return kNoSlot;
}

bool MemoryOptimizedCache::Lookup(const RowKey& key, std::span<uint8_t> out,
                                  size_t* out_len) {
  const size_t b = BucketFor(key);
  const uint32_t i = Find(b, key);
  if (i == kNoSlot) {
    ++stats_.misses;
    return false;
  }
  Slot& slot = SlotsOf(b)[i];
  slot.referenced = true;
  assert(out.size() >= slot.len);
  std::memcpy(out.data(), RegionOf(b) + slot.offset, slot.len);
  if (out_len != nullptr) *out_len = slot.len;
  ++stats_.hits;
  return true;
}

void MemoryOptimizedCache::Insert(const RowKey& key, std::span<const uint8_t> value) {
  ++stats_.inserts;
  if (value.size() > stride_) GrowStride(value.size());
  const size_t b = BucketFor(key);
  BucketHeader& header = HeaderOf(b);
  Slot* slots = SlotsOf(b);
  const auto len = static_cast<uint32_t>(value.size());

  uint32_t staged = Find(b, key);
  if (staged != kNoSlot) {
    // Overwrite in place in slot order; the old bytes leave the region now
    // and the new ones are staged like a fresh insert's.
    used_ -= Footprint(slots[staged].len);
    CutValue(b, staged);
    slots[staged].len = len;
    slots[staged].referenced = true;
  } else {
    staged = header.count++;
    slots[staged] = Slot{key.row, Raw(key.table), /*offset=*/0, len, /*referenced=*/true};
    ++entry_count_;
  }
  used_ += Footprint(len);

  staged = EvictFrom(b, staged, len);
  if (staged == kNoSlot) return;
  assert(header.fill + len <= stride_);
  slots[staged].offset = static_cast<uint32_t>(header.fill);
  std::memcpy(RegionOf(b) + header.fill, value.data(), len);
  header.fill += len;
}

uint32_t MemoryOptimizedCache::EvictFrom(size_t b, uint32_t staged, Bytes staged_len) {
  BucketHeader& header = HeaderOf(b);
  Slot* slots = SlotsOf(b);
  const auto max_entries = static_cast<uint32_t>(config_.bucket_entries);
  auto bucket_used = [&] {
    return header.fill + (staged == kNoSlot ? 0 : staged_len) +
           header.count * config_.per_entry_overhead;
  };
  // Evict while the bucket exceeds its byte budget or its associativity.
  while ((bucket_used() > bucket_budget_ || header.count > max_entries) && header.count > 1) {
    // CLOCK: advance the hand, clearing ref bits, until an unreferenced
    // victim turns up (within one sweep, as the sweep clears every bit).
    for (;;) {
      if (header.hand >= header.count) header.hand = 0;
      Slot& candidate = slots[header.hand];
      if (!candidate.referenced) break;
      candidate.referenced = false;
      ++header.hand;
    }
    const uint32_t victim = header.hand;
    used_ -= Footprint(slots[victim].len);
    --entry_count_;
    ++stats_.evictions;
    if (victim == staged) {
      staged = DropSlot(b, victim, kNoSlot);
    } else {
      CutValue(b, victim);
      staged = DropSlot(b, victim, staged);
    }
  }
  return staged;
}

void MemoryOptimizedCache::CutValue(size_t b, uint32_t victim) {
  BucketHeader& header = HeaderOf(b);
  Slot* slots = SlotsOf(b);
  const uint32_t off = slots[victim].offset;
  const uint32_t len = slots[victim].len;
  uint8_t* region = RegionOf(b);
  std::memmove(region + off, region + off + len, header.fill - off - len);
  header.fill -= len;
  for (uint32_t i = 0; i < header.count; ++i) {
    if (slots[i].offset > off) slots[i].offset -= len;
  }
}

uint32_t MemoryOptimizedCache::DropSlot(size_t b, uint32_t victim, uint32_t staged) {
  BucketHeader& header = HeaderOf(b);
  Slot* slots = SlotsOf(b);
  const uint32_t last = --header.count;
  slots[victim] = slots[last];
  return staged == last ? victim : staged;
}

void MemoryOptimizedCache::GrowStride(Bytes stride) {
  assert(stride <= UINT32_MAX);
  auto slab = std::make_unique_for_overwrite<uint8_t[]>(bucket_count_ * stride);
  for (size_t b = 0; b < bucket_count_; ++b) {
    std::memcpy(slab.get() + b * stride, RegionOf(b), HeaderOf(b).fill);
  }
  slab_ = std::move(slab);
  stride_ = stride;
}

bool MemoryOptimizedCache::Erase(const RowKey& key) {
  const size_t b = BucketFor(key);
  const uint32_t i = Find(b, key);
  if (i == kNoSlot) return false;
  used_ -= Footprint(SlotsOf(b)[i].len);
  CutValue(b, i);
  (void)DropSlot(b, i, kNoSlot);
  --entry_count_;
  return true;
}

bool MemoryOptimizedCache::Contains(const RowKey& key) const {
  return Find(BucketFor(key), key) != kNoSlot;
}

void MemoryOptimizedCache::Clear() {
  for (size_t b = 0; b < bucket_count_; ++b) HeaderOf(b) = BucketHeader{};
  entry_count_ = 0;
  used_ = 0;
}

}  // namespace sdm
