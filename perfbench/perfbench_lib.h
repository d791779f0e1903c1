// Support code for the sdm end-to-end benchmark (perfbench/main.cpp).
//
// Everything here is wall-clock or verification machinery that must stay
// outside src/ (sdm_lint bans clocks there):
//   - robust statistics (median, Python-compatible quartiles);
//   - the drift-normalised segment estimator: a timed phase is split into
//     equal segments, a fixed reference kernel runs between segments, and
//     each segment's time is rescaled by nominal/measured kernel time
//     before taking the median across segments;
//   - the reference kernel itself (sort + heap + hash + pointer chase);
//   - a cache-bypassing reference pooled sum read straight from the
//     store's backing bytes, the oracle for LookupEngine outputs;
//   - an in-memory span recorder with per-layer self time.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sdm_store.h"

namespace perfbench {

/// Monotonic wall clock in seconds.
[[nodiscard]] double NowSeconds();

/// Median (mean of the two middle values for even sizes); 0 when empty.
[[nodiscard]] double Median(std::vector<double> values);

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
  /// (q3 - q1) / q2, the run-to-run spread measure; 0 when q2 == 0.
  [[nodiscard]] double Spread() const { return q2 == 0 ? 0 : (q3 - q1) / q2; }
};

/// Quartiles computed exactly like Python's statistics.quantiles(values,
/// n=4) (the default "exclusive" method). Needs at least two values; a
/// single value yields q1 == q2 == q3.
[[nodiscard]] Quartiles QuartilesOf(std::vector<double> values);

/// One timed segment plus the reference-kernel times measured right
/// before and right after it.
struct Segment {
  double seconds = 0;
  double kernel_before_s = 0;
  double kernel_after_s = 0;
};

/// How segment times are rescaled for machine-speed drift: each segment's
/// time is multiplied by nominal_kernel_s / k, where k is the median of the
/// before and after kernel samples of the segment and of half_window
/// neighbours on each side. A window
/// tracks drift over seconds while damping the noise of single kernel runs;
/// half_window = 0 uses the mean of the segment's own two samples.
struct Normalizer {
  double nominal_kernel_s = 0.008;
  size_t half_window = 2;
};

/// The kernel time k each segment is normalised by (see Normalizer).
[[nodiscard]] std::vector<double> SegmentKernels(std::span<const Segment> segments,
                                                 size_t half_window);

struct RateEstimate {
  double median = 0;      ///< median of the per-segment normalised rates
  double raw_median = 0;  ///< the same without normalisation (for reporting)
  double spread = 0;      ///< IQR / median of the normalised rates
  double raw_spread = 0;  ///< IQR / median of the raw rates
  size_t segments = 0;
};

/// Per-segment rate (work / normalised seconds), median across segments.
/// `work` holds each segment's amount of work (e.g. queries), parallel to
/// `segments`.
[[nodiscard]] RateEstimate EstimateRate(std::span<const Segment> segments,
                                        std::span<const double> work, const Normalizer& norm);

/// For a quantity timed inside each segment (e.g. seconds spent generating
/// queries): median across segments of the normalised cost per unit.
[[nodiscard]] double NormalizedMedianCost(std::span<const Segment> segments,
                                          std::span<const double> cost_seconds,
                                          std::span<const double> units,
                                          const Normalizer& norm);

/// Fixed std-only workload used as the machine-speed yardstick. It owns a
/// pointer-chase ring of `chase_bytes`; Run() sorts, heapifies and hashes
/// a fixed pseudo-random array and walks a fixed number of ring steps.
class ReferenceKernel {
 public:
  explicit ReferenceKernel(size_t chase_bytes = size_t{32} << 20);

  /// Runs the kernel twice and returns the wall time of the second pass
  /// in seconds.
  double Run();

  /// Resident bytes the kernel owns (subtracted from peak RSS).
  [[nodiscard]] size_t footprint_bytes() const;

 private:
  double Pass();

  std::vector<uint32_t> ring_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> scratch_;
  uint32_t cursor_ = 0;
  uint64_t sink_ = 0;
};

/// Sum-pooled embedding of `indices` computed straight from the store's
/// backing bytes (FM arena view or NvmeDevice::backing()), bypassing every
/// cache and the IO path. Out-of-domain and pruned indices contribute
/// nothing, matching LookupEngine. Rows accumulate in index order through
/// DequantizeAccumulate.
[[nodiscard]] std::vector<float> ReferencePooledSum(sdm::SdmStore& store, sdm::TableId table,
                                                    std::span<const sdm::RowIndex> indices);

/// Stored bytes of one row, read from the backing store (empty span when
/// the row is out of range).
[[nodiscard]] std::span<const uint8_t> BackingRow(sdm::SdmStore& store, sdm::TableId table,
                                                  sdm::RowIndex row);

/// Largest relative difference |a-b| / max(1, |b|) over two vectors;
/// infinity when their sizes differ or either holds a NaN.
[[nodiscard]] double MaxRelDiff(std::span<const float> a, std::span<const float> b);

/// Current and peak resident set size in bytes (/proc/self/status).
[[nodiscard]] size_t CurrentRssBytes();
[[nodiscard]] size_t PeakRssBytes();

/// In-memory spans: name, start, end, parent span and query id. Begin()
/// returns an id; End() closes it, innermost first. A span's parent is the
/// innermost span open when it began.
class SpanLog {
 public:
  static constexpr int32_t kNoParent = -1;
  struct Span {
    const char* name = "";
    double start = 0;
    double end = 0;
    int32_t parent = kNoParent;
    int64_t query = -1;
  };

  int32_t Begin(const char* name, int64_t query = -1);
  void End(int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the part covered by direct
  /// children, summed over every span of that name. Sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> SelfSeconds() const;

  /// Chrome trace-event JSON ("X" events, microseconds from the first span).
  [[nodiscard]] bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench
