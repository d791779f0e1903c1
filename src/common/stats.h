// Named cumulative counters.
//
// Components expose operational counters (IOs issued, cache hits, bytes over
// the bus, ...) through a StatsRegistry owned by the enclosing system object
// — no global mutable state (Core Guidelines I.2). Counter handles are
// stable pointers, so hot paths pay one pointer bump per event.
//
// A counter is also the one recording point for its windowed time series
// (src/obs): when observability is on, the owner taps it into a
// WindowedCounter once, and every Add lands in both. An event site records
// once, so a series always sums to its counter.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sdm {

class EventLoop;
class WindowedCounter;

/// Monotonic event counter with an optional windowed tap.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_ += delta;
    if (tap_ != nullptr) Forward(delta);
  }
  [[nodiscard]] uint64_t value() const { return value_; }

  /// Forwards every later Add to `series`, stamped with `clock`'s Now().
  /// A null series (observability off) attaches nothing. Several counters
  /// may feed one series; it then sums them.
  void Tap(WindowedCounter* series, const EventLoop* clock) {
    tap_ = series;
    clock_ = clock;
  }

 private:
  void Forward(uint64_t delta);

  uint64_t value_ = 0;
  WindowedCounter* tap_ = nullptr;
  const EventLoop* clock_ = nullptr;
};

/// Owns counters by name. Lookup is O(log n); intended to be done once at
/// construction of the component, not per event.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  /// The returned pointer remains valid for the registry's lifetime.
  [[nodiscard]] Counter* GetCounter(const std::string& name);

  /// Value of a counter, 0 if never registered (convenient in tests).
  [[nodiscard]] uint64_t CounterValue(const std::string& name) const;

  /// Snapshot of all counters, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, uint64_t>> Counters() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace sdm
