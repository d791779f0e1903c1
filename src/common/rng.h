// Deterministic pseudo-random generation for the simulator.
//
// - Rng: splitmix64/xoshiro256** engine. Every component takes an explicit
//   seed so experiments are reproducible run-to-run (no global RNG state).
// - ZipfSampler: power-law index sampler using Hörmann's rejection-inversion
//   method — O(1) per sample, no O(N) tables — used to model the temporal
//   locality the paper observes for embedding accesses (Fig. 4).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace sdm {

/// splitmix64's output function: a bijective 64-bit hash. Seed derivations
/// (per host, per table, per Feistel round) and Rng seeding all use it.
[[nodiscard]] inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG seeded via splitmix64. Not cryptographic; fast and
/// statistically solid for simulation workloads.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  [[nodiscard]] uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire rejection to
  /// avoid modulo bias.
  [[nodiscard]] uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  [[nodiscard]] double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double NextDouble(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  /// True with probability p (p clamped to [0,1]).
  [[nodiscard]] bool NextBernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0). Used for
  /// Poisson arrival processes in the serving simulator.
  [[nodiscard]] double NextExponential(double mean);

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double NextGaussian();

  /// Log-normal with the given median and sigma of the underlying normal.
  /// Models long-tail device latency (Nand flash p99 spikes).
  [[nodiscard]] double NextLogNormal(double median, double sigma);

  /// Derives an independent child generator (stable given call order).
  [[nodiscard]] Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

/// Samples ranks in [0, n) with probability proportional to 1/(rank+1)^alpha.
/// alpha == 0 degenerates to uniform. Rank 0 is the hottest item.
///
/// Callers typically compose this with a per-table random permutation so the
/// hot rows are not the low indices (see trace/trace_gen.h).
class ZipfSampler {
 public:
  /// n must be >= 1; alpha must be >= 0.
  ZipfSampler(uint64_t n, double alpha);

  [[nodiscard]] uint64_t Sample(Rng& rng) const;

  [[nodiscard]] uint64_t n() const { return n_; }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// Probability mass of a single rank (for analytical assertions in tests).
  [[nodiscard]] double Pmf(uint64_t rank) const;

  /// Fraction of total mass in the top `k` ranks. O(k).
  [[nodiscard]] double TopMass(uint64_t k) const;

 private:
  [[nodiscard]] double H(double x) const;     // integral of x^-alpha
  [[nodiscard]] double HInv(double x) const;  // inverse of H

  uint64_t n_;
  double alpha_;
  double h_x1_;          // H(1.5) - 1
  double h_n_;           // H(n + 0.5)
  double s_;             // 2 - HInv(H(2.5) - 2^-alpha)
  mutable double harmonic_ = 0;  // generalized harmonic number (lazy, for Pmf)
};

/// Fisher-Yates permutation of [0, n). Deterministic given the seed.
[[nodiscard]] std::vector<uint64_t> RandomPermutation(uint64_t n, Rng& rng);

}  // namespace sdm
