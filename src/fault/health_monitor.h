// HealthMonitor — per-endpoint IO health scoring with probe-driven recovery.
//
// Each endpoint (an SM device of a SharedDeviceService, which for a
// disaggregated cluster means a device behind the fabric and its link)
// keeps a sliding window of recent IO outcomes. When the error fraction of
// a sufficiently-populated window crosses the sick threshold, the endpoint
// is SICK: lookup engines consult Sick() before their IO phase and shed SM
// reads to degraded mode instead of queueing onto a failing device — on a
// disaggregated host, whose SM lives entirely behind the fabric, shedding
// IS the local-path failover (FM-resident rows and caches still serve).
//
// Recovery is probe-driven: while sick, AdmitProbe() passes every Nth
// lookup through to the device; probe successes wash the errors out of the
// window and the endpoint turns healthy when the fault window closes.
// Deterministic (a counter, not a timer), so replays are exact.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/event_loop.h"
#include "common/stats.h"
#include "obs/observability.h"

namespace sdm {

struct HealthMonitorConfig {
  bool enabled = false;
  /// Error fraction of the window at which the endpoint is sick.
  double sick_threshold = 0.5;
  /// Outcomes retained per endpoint; sickness needs >= window/2 samples.
  int window = 64;
  /// While sick, every Nth AdmitProbe() call is admitted.
  int probe_interval = 16;
};

class HealthMonitor {
 public:
  HealthMonitor(HealthMonitorConfig config, size_t endpoints);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Records one IO outcome on `endpoint`.
  void Record(size_t endpoint, bool ok);

  /// True when `endpoint`'s recent error fraction crosses the threshold.
  /// Always false when the monitor is disabled.
  [[nodiscard]] bool Sick(size_t endpoint) const;

  /// While sick, admits every Nth call as a recovery probe (first call
  /// after turning sick is admitted). Callers shed when Sick() &&
  /// !AdmitProbe().
  [[nodiscard]] bool AdmitProbe(size_t endpoint);

  /// Called synchronously from Record() on every healthy->sick edge with
  /// the endpoint index — the trigger the ReplicationManager (src/fault)
  /// re-replicates on. At most one listener; never invoked when disabled.
  void SetSickTransitionListener(std::function<void(size_t)> listener) {
    sick_listener_ = std::move(listener);
  }

  [[nodiscard]] const HealthMonitorConfig& config() const { return config_; }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }

  /// Observability (src/obs): taps the counters into windowed series under
  /// `<name>health/` and records sick/recovered trace instants. The monitor
  /// has no clock of its own, so the caller lends it `loop` for timestamps.
  /// Does NOT use the (single) sick-transition listener slot — that belongs
  /// to the ReplicationManager.
  void set_obs(Observability* obs, EventLoop* loop, const std::string& name);

 private:
  struct Endpoint {
    std::vector<uint8_t> outcomes;  ///< ring buffer, 1 = error
    size_t next = 0;                ///< ring write cursor
    size_t samples = 0;             ///< min(total recorded, window)
    size_t errors = 0;              ///< errors currently in the window
    uint64_t probe_clock = 0;       ///< AdmitProbe calls while sick
  };

  HealthMonitorConfig config_;
  std::vector<Endpoint> endpoints_;
  StatsRegistry stats_;
  Counter* sick_transitions_ = nullptr;
  Counter* probes_admitted_ = nullptr;
  Counter* sheds_ = nullptr;
  std::vector<uint8_t> was_sick_;  ///< per-endpoint edge detector
  std::function<void(size_t)> sick_listener_;

  // ---- Observability (src/obs): the counters feed their series through
  // taps; spans are null when off ----
  EventLoop* obs_loop_ = nullptr;  ///< stamps the trace instants
  SpanRecorder* obs_spans_ = nullptr;
  SpanRecorder::TrackId obs_track_ = 0;
};

}  // namespace sdm
