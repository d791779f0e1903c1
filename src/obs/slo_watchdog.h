// Declarative SLO watchdogs over windowed metrics (src/obs).
//
// Rules ("p99 above X for K consecutive windows", "availability below Y")
// are evaluated synchronously as metric windows close, so verdicts are a
// pure function of the metric stream — deterministic across runs. A rule
// fires once when its breach streak reaches for_windows and clears once on
// the first non-breaching window; both edges emit a structured SloEvent and
// a WARN log record (routed through the pluggable log sink).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs_config.h"

namespace sdm {

/// One fire or clear edge of a rule.
struct SloEvent {
  int64_t t_ns = 0;  ///< Start of the window that produced the edge.
  std::string rule;
  double value = 0;      ///< Observed stat in that window.
  double threshold = 0;
  int consecutive = 0;   ///< Breach streak length at the edge.
  bool fired = false;    ///< true = fired, false = cleared.
};

class SloWatchdog {
 public:
  explicit SloWatchdog(std::vector<SloRule> rules);

  /// Feed one closed window; wire this as the MetricsRegistry's listener.
  void OnWindow(const std::string& metric, const WindowSample& w);

  [[nodiscard]] const std::vector<SloEvent>& events() const { return events_; }

  /// Number of rules currently in the firing state.
  [[nodiscard]] size_t firing() const;

  /// Appends events as JSON objects, comma-separated.
  static void AppendEventJson(std::string* out, const SloEvent& e);

 private:
  struct RuleState {
    SloRule rule;
    int consecutive = 0;
    bool firing = false;
  };

  std::vector<RuleState> rules_;
  std::vector<SloEvent> events_;
};

}  // namespace sdm
