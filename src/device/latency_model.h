// Loaded-latency model for simulated devices.
//
// Reproduces the load/latency behaviour of Fig. 3: per-device channels
// service IOs FIFO; queueing delay grows as offered IOPS approach the
// device ceiling; Nand additionally shows stochastic long-tail service
// times (GC / media retries) which dominate p99 under load.
//
// The model is intentionally closed-form and event-driven (no Monte Carlo
// convergence issues): an IO's completion time is derived from the earliest
// available channel plus its own service + bus-transfer time.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "device/device_spec.h"

namespace sdm {

class FaultInjector;

class LatencyModel {
 public:
  LatencyModel(const DeviceSpec& spec, uint64_t seed);

  /// Installs (or clears, with nullptr) a fault injector: active fail-slow
  /// windows multiply this model's service time. A null injector consumes
  /// no extra RNG and is byte-identical to today.
  void set_fault_injector(FaultInjector* injector, int device_index) {
    injector_ = injector;
    device_index_ = device_index;
  }

  /// Computes the completion time for a read arriving at `now` that moves
  /// `bus_bytes` over the device bus. Mutates internal channel bookkeeping,
  /// so calls must be made in non-decreasing `now` order (the EventLoop
  /// guarantees this).
  [[nodiscard]] SimTime CompleteRead(SimTime now, Bytes bus_bytes);

  /// Queueing delay the *next* arrival at `now` would see (for tests and for
  /// admission-control heuristics). Does not mutate state.
  [[nodiscard]] SimDuration EstimatedQueueDelay(SimTime now) const;

  /// Number of IOs currently queued or in service at time `now`.
  [[nodiscard]] int InFlight(SimTime now) const;

 private:
  DeviceSpec spec_;
  Rng rng_;
  FaultInjector* injector_ = nullptr;
  int device_index_ = -1;
  SimDuration service_time_;  // channels / max_iops
  // Earliest time each channel is free. Small fixed vector; min-scan is
  // cheap at the channel counts in Table 1 (<= 64).
  std::vector<SimTime> channel_free_at_;
};

}  // namespace sdm
