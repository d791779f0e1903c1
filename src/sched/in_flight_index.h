// InFlightIndex — the block index behind BatchScheduler's single-flight
// lookup on reads already at the device.
//
// Each live read registers under every 4 KiB block its buffer window
// [base, end) touches, and each block's bucket keeps its reads in issue
// order: Insert appends, Erase keeps the order of the rest. A window that
// covers a span [begin, end) contains byte `begin`, so every candidate sits
// in the bucket of block begin / kBlockSize, and the first match there is
// the earliest-issued covering read — exactly the read a first-match scan
// over all live reads in issue order returns. A lookup therefore costs one
// hash probe plus a walk of the reads touching one block, however many
// reads are in flight.
//
// The map is only probed, never iterated, so its hash order cannot reach
// any result.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace sdm {

template <typename Read>
class InFlightIndex {
 public:
  /// Registers `read`, whose buffer lands device bytes [base, end), as the
  /// latest-issued live read. The index co-owns it until Erase: a read
  /// whose completion a fabric drop discarded may have no other owner.
  void Insert(std::shared_ptr<Read> read, Bytes base, Bytes end, bool sub_block) {
    for (uint64_t b = FirstBlock(base); b < EndBlock(end); ++b) {
      auto it = buckets_.find(b);
      if (it == buckets_.end()) {
        if (spare_.empty()) {
          it = buckets_.try_emplace(b).first;
        } else {
          spare_.back().key() = b;
          it = buckets_.insert(std::move(spare_.back())).position;
          spare_.pop_back();
        }
      }
      it->second.push_back(Entry{base, end, sub_block, read});
    }
    ++size_;
  }

  /// Unregisters `read`, inserted with the same window [base, end).
  void Erase(const Read* read, Bytes base, Bytes end) {
    for (uint64_t b = FirstBlock(base); b < EndBlock(end); ++b) {
      auto it = buckets_.find(b);
      assert(it != buckets_.end());
      std::vector<Entry>& bucket = it->second;
      for (auto e = bucket.begin(); e != bucket.end(); ++e) {
        if (e->read.get() == read) {
          bucket.erase(e);
          break;
        }
      }
      if (bucket.empty()) spare_.push_back(buckets_.extract(it));
    }
    assert(size_ > 0);
    --size_;
  }

  /// The earliest-issued live read of mode `sub_block` whose window covers
  /// the non-empty span [begin, end), or nullptr when none does.
  [[nodiscard]] Read* FindCovering(Bytes begin, Bytes end, bool sub_block) const {
    assert(begin < end);
    const auto it = buckets_.find(begin / kBlockSize);
    if (it == buckets_.end()) return nullptr;
    for (const Entry& e : it->second) {
      if (e.sub_block == sub_block && begin >= e.base && end <= e.end) {
        return e.read.get();
      }
    }
    return nullptr;
  }

  /// Live reads registered.
  [[nodiscard]] size_t size() const { return size_; }

 private:
  struct Entry {
    Bytes base = 0;
    Bytes end = 0;
    bool sub_block = false;
    std::shared_ptr<Read> read;
  };

  [[nodiscard]] static uint64_t FirstBlock(Bytes base) { return base / kBlockSize; }
  /// One past the last block an [.., end) window touches.
  [[nodiscard]] static uint64_t EndBlock(Bytes end) {
    return (end + kBlockSize - 1) / kBlockSize;
  }

  using Buckets = std::unordered_map<uint64_t, std::vector<Entry>>;
  Buckets buckets_;
  /// Emptied buckets, map node and vector capacity kept for reuse, so a
  /// read's Insert and Erase allocate nothing in steady state. Bounded by
  /// the most blocks ever live at once.
  std::vector<typename Buckets::node_type> spare_;
  size_t size_ = 0;
};

}  // namespace sdm
