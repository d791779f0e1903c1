// Flat block indexes behind BatchScheduler's two per-run lookups.
//
// BlockTable maps a block number to a small value with open addressing:
// linear probing over a power-of-two slot array, a multiplicative
// (Fibonacci) hash taking the product's top bits, and growth at half full.
// Erase uses backward-shift deletion: each later slot of the probe cluster
// that may legally sit earlier moves into the hole, so a probe still stops
// at the first empty slot and no tombstones build up. The table is only
// probed, never iterated, so slot order cannot reach any result.
//
// InFlightIndex — the single-flight lookup on reads already at the device.
// Each live read registers under every 4 KiB block its buffer window
// [base, end) touches. A block's slot holds the head and tail of a singly
// linked list, threaded through one pooled entry array, of the reads
// touching it in issue order: Insert appends at the tail, Erase unlinks and
// keeps the order of the rest, and freed entries are reused, so a read's
// Insert and Erase allocate nothing in steady state. A window that covers a
// span [begin, end) contains byte `begin`, so every candidate sits in the
// list of block begin / kBlockSize, and the first match there is the
// earliest-issued covering read — exactly the read a first-match scan over
// all live reads in issue order returns. A lookup therefore costs one probe
// plus a walk of the reads touching one block, however many reads are in
// flight.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace sdm {

template <typename Value>
class BlockTable {
 public:
  /// The value stored for `block`, or nullptr. Valid until the next
  /// FindOrInsert or Erase.
  [[nodiscard]] Value* Find(uint64_t block) {
    const size_t i = SlotOf(block);
    return i == kMissing ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const Value* Find(uint64_t block) const {
    const size_t i = SlotOf(block);
    return i == kMissing ? nullptr : &slots_[i].value;
  }

  /// The value stored for `block`, inserted as Value{} when absent.
  Value& FindOrInsert(uint64_t block) {
    assert(block != kEmpty);
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = Home(block);
    for (; slots_[i].block != kEmpty; i = (i + 1) & mask) {
      if (slots_[i].block == block) return slots_[i].value;
    }
    slots_[i] = Slot{block, Value{}};
    ++size_;
    return slots_[i].value;
  }

  /// Removes `block`, which must be present.
  void Erase(uint64_t block) {
    const size_t mask = slots_.size() - 1;
    size_t hole = SlotOf(block);
    assert(hole != kMissing);
    for (size_t j = (hole + 1) & mask; slots_[j].block != kEmpty; j = (j + 1) & mask) {
      // Slot j may fill the hole unless its home lies in (hole, j]: then its
      // probe would start past the hole and never look there.
      if (((j - Home(slots_[j].block)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].block = kEmpty;
    --size_;
  }

  /// Blocks stored.
  [[nodiscard]] size_t size() const { return size_; }

  /// The slot a probe for `block` starts at in a table of `capacity` (a
  /// power of two, at least kMinCapacity) slots. Tests use it to build keys
  /// that collide.
  [[nodiscard]] static size_t HomeSlot(uint64_t block, size_t capacity) {
    return static_cast<size_t>((block * kGolden) >> ShiftFor(capacity));
  }
  static constexpr size_t kMinCapacity = 16;

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  struct Slot {
    uint64_t block = kEmpty;
    Value value{};
  };

  static constexpr size_t kMissing = ~size_t{0};

  /// 64 - log2(capacity): the product's top log2(capacity) bits index it.
  [[nodiscard]] static int ShiftFor(size_t capacity) {
    int shift = 64;
    for (size_t c = capacity; c > 1; c /= 2) --shift;
    return shift;
  }

  [[nodiscard]] size_t Home(uint64_t block) const {
    return static_cast<size_t>((block * kGolden) >> shift_);
  }

  /// The slot holding `block`, or kMissing.
  [[nodiscard]] size_t SlotOf(uint64_t block) const {
    if (size_ == 0) return kMissing;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(block);; i = (i + 1) & mask) {
      if (slots_[i].block == block) return i;
      if (slots_[i].block == kEmpty) return kMissing;
    }
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    old.swap(slots_);
    shift_ = ShiftFor(slots_.size());
    size_ = 0;
    for (const Slot& s : old) {
      if (s.block != kEmpty) FindOrInsert(s.block) = s.value;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;  ///< ShiftFor(slots_.size())
  size_t size_ = 0;
};

template <typename Read>
class InFlightIndex {
 public:
  /// Registers `read`, whose buffer lands device bytes [base, end), as the
  /// latest-issued live read. The index co-owns it until Erase: a read
  /// whose completion a fabric drop discarded may have no other owner.
  void Insert(std::shared_ptr<Read> read, Bytes base, Bytes end, bool sub_block) {
    for (uint64_t b = FirstBlock(base); b < EndBlock(end); ++b) {
      const uint32_t e = NewEntry();
      Entry& entry = entries_[e];
      entry.base = base;
      entry.end = end;
      entry.read = read.get();
      entry.sub_block = sub_block;
      // The first block's entry holds the reference.
      if (b == FirstBlock(base)) entry.owner = read;
      List& list = blocks_.FindOrInsert(b);
      if (list.head == kNone) {
        list.head = e;
      } else {
        entries_[list.tail].next = e;
      }
      list.tail = e;
    }
    ++size_;
  }

  /// Unregisters `read`, inserted with the same window [base, end).
  void Erase(const Read* read, Bytes base, Bytes end) {
    for (uint64_t b = FirstBlock(base); b < EndBlock(end); ++b) {
      List* list = blocks_.Find(b);
      assert(list != nullptr);
      uint32_t prev = kNone;
      uint32_t e = list->head;
      while (entries_[e].read != read) {
        prev = e;
        e = entries_[e].next;
        assert(e != kNone);
      }
      const uint32_t next = entries_[e].next;
      if (prev == kNone) {
        list->head = next;
      } else {
        entries_[prev].next = next;
      }
      if (list->tail == e) list->tail = prev;
      if (list->head == kNone) blocks_.Erase(b);
      entries_[e].owner.reset();
      entries_[e].read = nullptr;
      entries_[e].next = free_;
      free_ = e;
    }
    assert(size_ > 0);
    --size_;
  }

  /// The earliest-issued live read of mode `sub_block` whose window covers
  /// the non-empty span [begin, end), or nullptr when none does.
  [[nodiscard]] Read* FindCovering(Bytes begin, Bytes end, bool sub_block) const {
    assert(begin < end);
    const List* list = blocks_.Find(begin / kBlockSize);
    if (list == nullptr) return nullptr;
    for (uint32_t e = list->head; e != kNone; e = entries_[e].next) {
      const Entry& entry = entries_[e];
      if (entry.sub_block == sub_block && begin >= entry.base && end <= entry.end) {
        return entry.read;
      }
    }
    return nullptr;
  }

  /// Live reads registered.
  [[nodiscard]] size_t size() const { return size_; }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// One read's registration under one block.
  struct Entry {
    Bytes base = 0;
    Bytes end = 0;
    Read* read = nullptr;
    std::shared_ptr<Read> owner;  ///< set in the window's first block only
    uint32_t next = kNone;        ///< later-issued read of the block, or free entry
    bool sub_block = false;
  };
  /// A block's reads, oldest first.
  struct List {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };

  [[nodiscard]] static uint64_t FirstBlock(Bytes base) { return base / kBlockSize; }
  /// One past the last block an [.., end) window touches.
  [[nodiscard]] static uint64_t EndBlock(Bytes end) {
    return (end + kBlockSize - 1) / kBlockSize;
  }

  uint32_t NewEntry() {
    if (free_ == kNone) {
      entries_.emplace_back();
      return static_cast<uint32_t>(entries_.size() - 1);
    }
    const uint32_t e = free_;
    free_ = entries_[e].next;
    entries_[e].next = kNone;
    return e;
  }

  BlockTable<List> blocks_;
  /// Every entry ever made: live ones on their block's list, the rest on
  /// the free list through `next`. Bounded by the most registrations ever
  /// live at once.
  std::vector<Entry> entries_;
  uint32_t free_ = kNone;
  size_t size_ = 0;
};

}  // namespace sdm
