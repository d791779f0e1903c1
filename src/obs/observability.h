// Observability owner (src/obs): one instance per event loop.
//
// Owns the metrics registry, span recorder, and SLO watchdog for everything
// running on one EventLoop. A host or a whole disaggregated cluster holds
// exactly one; its components record under source-prefixed names ("svc/",
// "host<i>/") so they share the registry without colliding.
//
// Components hold `Observability*` that is nullptr when the subsystem is
// off; every accessor below is also null-safe to keep call sites one-liners.
//
// One recording path: an event with a cumulative twin (a StatsRegistry
// Counter or a component Histogram) is recorded only there, and the
// component taps that twin into its windowed series once, at set-up:
//   `x_->Tap(ObsCounter(obs, prefix + "group/metric"), loop_)`.
// With obs off the tap is null and Add/Record pay one null check. Only
// series with no cumulative twin (query depth and latency, the scheduler's
// in-flight gauge, fabric and prefetch stats) are recorded explicitly.
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/slo_watchdog.h"
#include "obs/span_recorder.h"

namespace sdm {

class Observability {
 public:
  explicit Observability(const ObsConfig& config);

  /// Null when metrics are off.
  [[nodiscard]] MetricsRegistry* metrics() const { return metrics_.get(); }
  /// Null when tracing is off.
  [[nodiscard]] SpanRecorder* spans() const { return spans_.get(); }
  /// Null when metrics are off or no rules were configured.
  [[nodiscard]] SloWatchdog* slo() const { return slo_.get(); }

  /// Closes open metric windows. Call once after the run, before export.
  void Finalize();

  [[nodiscard]] std::string MetricsJson() const;
  [[nodiscard]] std::string TraceJson() const;
  [[nodiscard]] std::string SloJson() const;

 private:
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<SpanRecorder> spans_;
  std::unique_ptr<SloWatchdog> slo_;
};

// ---------------------------------------------------------------------------
// Null-safe handle resolution for instrumented components. Each returns the
// metric handle when that part of observability is on, else nullptr. Most
// handles go straight into a Counter/Histogram tap; a component keeps one
// only for a series with no cumulative twin, and guards its updates with
// one branch (`if (x_ != nullptr) x_->Set(...)`).
// ---------------------------------------------------------------------------

[[nodiscard]] inline WindowedCounter* ObsCounter(Observability* obs,
                                                 const std::string& name) {
  return obs != nullptr && obs->metrics() != nullptr ? obs->metrics()->Counter(name)
                                                     : nullptr;
}

[[nodiscard]] inline WindowedGauge* ObsGauge(Observability* obs,
                                             const std::string& name) {
  return obs != nullptr && obs->metrics() != nullptr ? obs->metrics()->Gauge(name)
                                                     : nullptr;
}

[[nodiscard]] inline WindowedHistogram* ObsHist(Observability* obs,
                                                const std::string& name) {
  return obs != nullptr && obs->metrics() != nullptr ? obs->metrics()->Hist(name)
                                                     : nullptr;
}

[[nodiscard]] inline SpanRecorder* ObsSpans(Observability* obs) {
  return obs != nullptr ? obs->spans() : nullptr;
}

}  // namespace sdm
