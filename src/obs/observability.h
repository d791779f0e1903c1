// Observability owner (src/obs): one instance per event loop.
//
// Owns the metrics registry, span recorder, and SLO watchdog for everything
// running on one EventLoop. A host or a whole disaggregated cluster holds
// exactly one; its components record under source-prefixed names ("svc/",
// "host<i>/") so they share the registry without colliding.
//
// Components hold `Observability*` that is nullptr when the subsystem is
// off; every accessor below is also null-safe to keep call sites one-liners.
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
// metric handle when that part of observability is on, else nullptr; the
// component stores the pointer and guards each hot-path update with one
// branch (`if (x_ != nullptr) x_->Add(...)`).
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
