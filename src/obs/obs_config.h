// Observability knobs (src/obs).
//
// Everything here defaults OFF and byte-inert: with the knobs at their
// defaults no Observability object is created and no subsystem records
// anything. When enabled, observation is *timing-inert* — metrics and spans
// are pure functions of the virtual-time event stream and never schedule
// loop work, draw randomness, or touch serving state, so serving
// results stay byte-identical with observability on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace sdm {

/// Declarative SLO rule evaluated against closed metric windows: "stat of
/// `metric` is `op` `threshold` for `for_windows` consecutive windows".
struct SloRule {
  /// Which statistic of the window to evaluate. kValue reads a counter's
  /// per-window delta or a gauge's last value; the rest apply to histograms.
  enum class Stat : uint8_t { kValue, kCount, kMean, kP50, kP95, kP99, kMax };
  enum class Op : uint8_t { kAbove, kBelow };

  std::string name;    ///< Event label, e.g. "p99-slo".
  std::string metric;  ///< Full metric name including source prefix.
  Stat stat = Stat::kValue;
  Op op = Op::kAbove;
  double threshold = 0;
  /// Breaches must persist this many consecutive windows before firing
  /// (debounce; 1 = fire on the first breaching window).
  int for_windows = 1;
};

struct ObsConfig {
  /// Windowed time-series metrics (QPS, latency percentiles, lane occupancy,
  /// cache hit rates, ... per metrics_interval of virtual time).
  bool enable_metrics = false;
  SimDuration metrics_interval = Millis(1);

  /// Query-lifecycle span tracing into bounded ring buffers, exportable as
  /// Chrome trace-event JSON (chrome://tracing / Perfetto).
  bool enable_tracing = false;
  /// Every Nth submitted query gets a full lifecycle trace (1 = all).
  uint32_t trace_sample_every = 1;
  /// Ring-buffer bound per recorder; new events beyond it are dropped
  /// (and counted) rather than evicting old ones.
  size_t trace_max_spans = size_t{1} << 16;

  /// Watchdog rules; evaluated only when enable_metrics is set.
  std::vector<SloRule> slo_rules;

  [[nodiscard]] bool enabled() const { return enable_metrics || enable_tracing; }
};

}  // namespace sdm
