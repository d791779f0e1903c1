// Test-only reference: IndexPermuter before it memoised hot ranks, every
// call a fresh Feistel cycle walk. Kept verbatim (class renamed, the .cpp
// bodies inlined) so trace_test.cpp can pin the memoised permuter in
// src/trace to it rank for rank, on cold calls and on memo hits.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "common/rng.h"

namespace sdm {

/// Bijective pseudo-random permutation of [0, n) (4-round Feistel with
/// cycle-walking). Used to decouple popularity rank from index value.
class ReferenceIndexPermuter {
 public:
  ReferenceIndexPermuter(uint64_t n, uint64_t seed) : n_(std::max<uint64_t>(n, 1)) {
    // Smallest even-bit domain 2^(2h) >= n, h >= 1.
    half_bits_ = 1;
    while ((uint64_t{1} << (2 * half_bits_)) < n_) ++half_bits_;
    uint64_t s = seed;
    for (auto& k : keys_) k = Mix64(s++);
  }

  [[nodiscard]] uint64_t Permute(uint64_t x) const {
    assert(x < n_);
    if (n_ == 1) return 0;
    // Cycle-walk until we land back inside [0, n).
    uint64_t y = FeistelOnce(x);
    while (y >= n_) y = FeistelOnce(y);
    return y;
  }
  [[nodiscard]] uint64_t n() const { return n_; }

 private:
  [[nodiscard]] uint64_t FeistelOnce(uint64_t x) const {
    const uint64_t mask = (uint64_t{1} << half_bits_) - 1;
    uint64_t left = x >> half_bits_;
    uint64_t right = x & mask;
    for (const uint64_t key : keys_) {
      const uint64_t f = Mix64(right ^ key) & mask;
      const uint64_t new_left = right;
      right = left ^ f;
      left = new_left;
    }
    return (left << half_bits_) | right;
  }

  uint64_t n_;
  int half_bits_;
  uint64_t keys_[4];
};

}  // namespace sdm
