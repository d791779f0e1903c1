// Log-bucketed latency histogram with percentile queries.
//
// HDR-histogram style: values are bucketed with bounded relative error
// (~3% by default), so p50/p95/p99 queries over millions of samples are O(1)
// memory. Used for every latency metric in the serving simulator — the paper
// reports p95/p99 SLAs (§2.3).
//
// Like a Counter (common/stats.h), a histogram can be tapped into a
// windowed series (src/obs): every Record then lands in both, at the
// clock's Now().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace sdm {

class EventLoop;
class WindowedHistogram;

class Histogram {
 public:
  /// Tracks values in [1, max_value] nanoseconds-equivalents with the given
  /// number of sub-buckets per power of two (higher = finer resolution).
  explicit Histogram(int64_t max_value = int64_t{1} << 40, int sub_buckets_per_pow2 = 32);

  void Record(int64_t value);
  void Record(SimDuration d) { Record(d.nanos()); }

  /// Forwards every later Record to `series`, stamped with `clock`'s Now().
  /// A null series (observability off) attaches nothing.
  void Tap(WindowedHistogram* series, const EventLoop* clock) {
    tap_ = series;
    clock_ = clock;
  }

  /// Merges another histogram's samples into this one (same geometry only).
  void Merge(const Histogram& other);

  void Reset();

  [[nodiscard]] uint64_t count() const { return count_; }
  [[nodiscard]] int64_t min() const;
  [[nodiscard]] int64_t max() const { return observed_max_; }
  [[nodiscard]] double mean() const;

  /// Value at quantile q in [0, 1]. Returns 0 for an empty histogram.
  [[nodiscard]] int64_t ValueAtQuantile(double q) const;

  [[nodiscard]] int64_t P50() const { return ValueAtQuantile(0.50); }
  [[nodiscard]] int64_t P95() const { return ValueAtQuantile(0.95); }
  [[nodiscard]] int64_t P99() const { return ValueAtQuantile(0.99); }

  /// "count=.. mean=..us p50=..us p95=..us p99=..us max=..us"
  [[nodiscard]] std::string SummaryString(const std::string& unit = "us") const;

 private:
  [[nodiscard]] size_t BucketFor(int64_t value) const;
  [[nodiscard]] int64_t BucketUpperBound(size_t bucket) const;

  int sub_bucket_bits_;
  int64_t max_value_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  int64_t observed_min_ = 0;
  int64_t observed_max_ = 0;
  WindowedHistogram* tap_ = nullptr;
  const EventLoop* clock_ = nullptr;
};

}  // namespace sdm
