// Windowed time-series metrics (src/obs).
//
// A MetricsRegistry holds named windowed counters/gauges/histograms. Unlike
// the cumulative StatsRegistry (src/common/stats.h), every metric here is
// bucketed into fixed virtual-time windows and emits one series point per
// *active* window — the in-run time series the end-of-run reports cannot
// express (when did p99 spike, when did the hedges fire).
//
// Most series are fed by a tapped cumulative Counter or Histogram
// (Counter::Tap, Histogram::Tap), so an event is recorded once and a
// series' points always sum to its twin's total; several counters may feed
// one series. Series with no cumulative twin are updated directly.
//
// Windows close lazily at update time, not on a scheduled sampler tick: a
// self-rescheduling loop event would keep RunUntilIdle from terminating and
// would add events to the loop being measured. Closing on the next update
// (or at Finalize) makes every window a pure function of the timestamped
// update stream, so exports are bit-identical across runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"

namespace sdm {

class MetricsRegistry;

/// One closed window of any metric. Counters/gauges fill `value`; histograms
/// fill count/mean/percentiles/max and leave `value` at 0.
struct WindowSample {
  int64_t window_start_ns = 0;
  double value = 0;
  uint64_t count = 0;
  double mean = 0;
  int64_t p50 = 0;
  int64_t p95 = 0;
  int64_t p99 = 0;
  int64_t max = 0;
};

/// Per-window delta counter. Sparse: windows with no nonzero Add emit no point.
class WindowedCounter {
 public:
  void Add(SimTime now, uint64_t delta = 1);

  [[nodiscard]] const std::vector<WindowSample>& series() const { return series_; }

 private:
  friend class MetricsRegistry;
  WindowedCounter(MetricsRegistry* owner, std::string name)
      : owner_(owner), name_(std::move(name)) {}
  void Flush();

  MetricsRegistry* owner_;
  std::string name_;
  bool open_ = false;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;  ///< exclusive; in-window updates skip the divide
  uint64_t value_ = 0;
  std::vector<WindowSample> series_;
};

/// Last-write-wins per-window gauge (queue depth, parked bytes, ...).
class WindowedGauge {
 public:
  void Set(SimTime now, double value);

  [[nodiscard]] const std::vector<WindowSample>& series() const { return series_; }

 private:
  friend class MetricsRegistry;
  WindowedGauge(MetricsRegistry* owner, std::string name)
      : owner_(owner), name_(std::move(name)) {}
  void Flush();

  MetricsRegistry* owner_;
  std::string name_;
  bool open_ = false;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
  double value_ = 0;
  std::vector<WindowSample> series_;
};

/// Per-window latency distribution; the histogram resets at every window
/// close, so each point is that window's own p50/p95/p99, not a cumulative.
class WindowedHistogram {
 public:
  void Record(SimTime now, int64_t value);
  void Record(SimTime now, SimDuration d) { Record(now, d.nanos()); }

  [[nodiscard]] const std::vector<WindowSample>& series() const { return series_; }

 private:
  friend class MetricsRegistry;
  WindowedHistogram(MetricsRegistry* owner, std::string name)
      : owner_(owner), name_(std::move(name)) {}
  void Flush();

  MetricsRegistry* owner_;
  std::string name_;
  bool open_ = false;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
  Histogram hist_;
  std::vector<WindowSample> series_;
};

/// Owns windowed metrics by name. Handles are stable pointers resolved once
/// at component construction; hot paths pay one comparison + add per event.
class MetricsRegistry {
 public:
  using WindowListener =
      std::function<void(const std::string& name, const WindowSample&)>;

  explicit MetricsRegistry(SimDuration interval);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] WindowedCounter* Counter(const std::string& name);
  [[nodiscard]] WindowedGauge* Gauge(const std::string& name);
  [[nodiscard]] WindowedHistogram* Hist(const std::string& name);

  /// Closes every open window. Call once after the run, before export;
  /// idempotent (a second call with no new updates flushes nothing).
  void Finalize();

  /// Invoked on every window close, in close order (deterministic: closes
  /// happen at update time). The SLO watchdog subscribes here.
  void SetWindowListener(WindowListener listener) { listener_ = std::move(listener); }

  [[nodiscard]] int64_t interval_ns() const { return interval_ns_; }

  /// A view of one metric's closed windows, for export.
  struct SeriesRef {
    const std::string* name;
    const char* kind;  ///< "counter" | "gauge" | "hist"
    const std::vector<WindowSample>* series;
  };

  /// Appends every non-empty series to `out`, counters first, then gauges,
  /// then histograms (each kind in name order). The exporter sorts the list
  /// by name.
  void CollectSeries(std::vector<SeriesRef>* out) const;

  /// Writes one series as a JSON object {"name":..,"kind":..,"points":[..]}.
  static void AppendSeriesJson(std::string* out, const SeriesRef& ref);

 private:
  friend class WindowedCounter;
  friend class WindowedGauge;
  friend class WindowedHistogram;

  [[nodiscard]] int64_t WindowStart(SimTime now) const {
    return now.nanos() / interval_ns_ * interval_ns_;
  }
  void NotifyWindow(const std::string& name, const WindowSample& w) {
    if (listener_) listener_(name, w);
  }

  int64_t interval_ns_;
  WindowListener listener_;
  std::map<std::string, std::unique_ptr<WindowedCounter>> counters_;
  std::map<std::string, std::unique_ptr<WindowedGauge>> gauges_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> hists_;
};

namespace obs_internal {
/// Deterministic JSON number: integral values print as integers, the rest
/// round-trip via %.17g — byte-stable across runs.
void AppendJsonNumber(std::string* out, double v);
}  // namespace obs_internal

}  // namespace sdm
