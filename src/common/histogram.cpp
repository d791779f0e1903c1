#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/event_loop.h"
#include "obs/metrics.h"

namespace sdm {

namespace {

int Log2Floor(uint64_t v) { return 63 - std::countl_zero(v | 1); }

}  // namespace

Histogram::Histogram(int64_t max_value, int sub_buckets_per_pow2)
    : max_value_(max_value) {
  assert(max_value > 0);
  assert(sub_buckets_per_pow2 >= 1);
  sub_bucket_bits_ = Log2Floor(static_cast<uint64_t>(sub_buckets_per_pow2));
  const int max_pow2 = Log2Floor(static_cast<uint64_t>(max_value)) + 1;
  buckets_.assign(static_cast<size_t>(max_pow2 + 1) << sub_bucket_bits_, 0);
  observed_min_ = std::numeric_limits<int64_t>::max();
}

size_t Histogram::BucketFor(int64_t value) const {
  if (value < 1) value = 1;
  if (value > max_value_) value = max_value_;
  const auto v = static_cast<uint64_t>(value);
  const int pow2 = Log2Floor(v);
  // Index of the sub-bucket within this power-of-two range.
  const int shift = pow2 > sub_bucket_bits_ ? pow2 - sub_bucket_bits_ : 0;
  const uint64_t sub = (v >> shift) & ((uint64_t{1} << sub_bucket_bits_) - 1);
  const size_t idx = (static_cast<size_t>(pow2) << sub_bucket_bits_) + static_cast<size_t>(sub);
  return std::min(idx, buckets_.size() - 1);
}

int64_t Histogram::BucketUpperBound(size_t bucket) const {
  const auto pow2 = static_cast<int>(bucket >> sub_bucket_bits_);
  const auto sub = static_cast<uint64_t>(bucket & ((uint64_t{1} << sub_bucket_bits_) - 1));
  uint64_t value;
  if (pow2 < sub_bucket_bits_) {
    // Sub-bucket width is 1 in this range and `sub` encodes the exact value.
    value = sub;
  } else {
    // Values in this bucket are [(2^bits + sub) << shift, (2^bits + sub + 1) << shift).
    const int shift = pow2 - sub_bucket_bits_;
    value = (((uint64_t{1} << sub_bucket_bits_) + sub + 1) << shift) - 1;
  }
  return static_cast<int64_t>(std::min<uint64_t>(value, static_cast<uint64_t>(max_value_)));
}

void Histogram::Record(int64_t value) {
  if (tap_ != nullptr) tap_->Record(clock_->Now(), value);
  // Clamp into the tracked domain [1, max_value] BEFORE touching the summary
  // stats, not just the bucket index — otherwise a negative or oversized
  // sample corrupts mean()/min()/max() (and quantiles, which are capped at
  // observed_max_) while the bucket counts stay clamped.
  value = std::clamp<int64_t>(value, 1, max_value_);
  buckets_[BucketFor(value)]++;
  count_++;
  sum_ += static_cast<double>(value);
  observed_min_ = std::min(observed_min_, value);
  observed_max_ = std::max(observed_max_, value);
}

void Histogram::Merge(const Histogram& other) {
  assert(buckets_.size() == other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    observed_min_ = std::min(observed_min_, other.observed_min_);
    observed_max_ = std::max(observed_max_, other.observed_max_);
  }
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  observed_min_ = std::numeric_limits<int64_t>::max();
  observed_max_ = 0;
}

int64_t Histogram::min() const {
  return count_ == 0 ? 0 : observed_min_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

int64_t Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  uint64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i];
    if (running >= target && buckets_[i] > 0) {
      return std::min(BucketUpperBound(i), observed_max_);
    }
  }
  return observed_max_;
}

std::string Histogram::SummaryString(const std::string& unit) const {
  const double div = unit == "ns" ? 1.0 : unit == "us" ? 1e3 : unit == "ms" ? 1e6 : 1e3;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f%s p50=%.1f%s p95=%.1f%s p99=%.1f%s max=%.1f%s",
                static_cast<unsigned long long>(count_), mean() / div, unit.c_str(),
                static_cast<double>(P50()) / div, unit.c_str(),
                static_cast<double>(P95()) / div, unit.c_str(),
                static_cast<double>(P99()) / div, unit.c_str(),
                static_cast<double>(max()) / div, unit.c_str());
  return buf;
}

}  // namespace sdm
