// Deterministic discrete-event simulator core.
//
// Every latency-bearing component (NVMe device, IO engine, inference engine,
// cluster) schedules callbacks on one EventLoop. Virtual time only advances
// when the loop dequeues the next event, so a whole end-to-end serving
// experiment is exactly reproducible — crucial for the several hundred tests
// that assert latency distributions.
//
// Single-threaded by design: determinism beats parallelism for simulation
// correctness. A whole cluster — every host and the shared device stack —
// runs on one loop.
//
// The event queue is a binary heap over a plain vector (the exact
// make/push/pop_heap algorithm std::priority_queue specifies, so ordering is
// bit-for-bit identical to the previous std::priority_queue implementation)
// rather than std::priority_queue itself, because top() is const there and
// dequeuing had to COPY the event's std::function — one heap allocation per
// event on the hottest loop in the codebase. pop_heap moves the top to the
// back of the vector, where it can be moved out legally.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace sdm {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= Now()). Events at equal
  /// times run in scheduling order (stable FIFO tie-break).
  void ScheduleAt(SimTime at, Callback fn);

  /// Schedules `fn` to run `delay` from now.
  void ScheduleAfter(SimDuration delay, Callback fn);

  /// Runs events until the queue is empty. Returns the number of events run.
  uint64_t RunUntilIdle();

  /// Runs events with time <= deadline; leaves later events queued. Virtual
  /// time ends at min(deadline, last event time processed... ) — precisely,
  /// Now() advances to each processed event and finally to `deadline`.
  uint64_t RunUntil(SimTime deadline);

  /// Runs exactly one event if any is pending. Returns whether one ran.
  bool RunOne();

  [[nodiscard]] size_t pending_events() const { return heap_.size(); }

  /// Total events executed since construction.
  [[nodiscard]] uint64_t events_run() const { return events_run_; }

 private:
  struct Event {
    SimTime at;
    uint64_t seq;  // FIFO tie-break for equal timestamps
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Moves the earliest event out of the heap. Pre: !heap_.empty().
  [[nodiscard]] Event PopEarliest();

  SimTime now_{0};
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  std::vector<Event> heap_;  // binary heap ordered by Later
};

}  // namespace sdm
