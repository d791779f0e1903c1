// Test-only reference: the EventLoop whose queue was a binary heap of
// whole events (time, sequence number and std::function together), ordered
// by the make/push/pop_heap algorithm std::priority_queue specifies. Kept
// verbatim (class renamed, the .cpp bodies inlined) so the differential
// fuzzer in event_loop_fuzz_test.cpp can pin the indexed 4-ary heap in
// src/common to it operation by operation: callback order, Now(),
// events_run() and pending_events().
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace sdm {

class ReferenceEventLoop {
 public:
  using Callback = std::function<void()>;

  ReferenceEventLoop() = default;
  ReferenceEventLoop(const ReferenceEventLoop&) = delete;
  ReferenceEventLoop& operator=(const ReferenceEventLoop&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= Now()). Events at equal
  /// times run in scheduling order (stable FIFO tie-break).
  void ScheduleAt(SimTime at, Callback fn) {
    assert(fn);
    // Clamp to now: scheduling "in the past" runs as-soon-as-possible rather
    // than corrupting the clock. This happens legitimately when a zero-latency
    // model rounds down.
    if (at < now_) at = now_;
    heap_.push_back(Event{at, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedules `fn` to run `delay` from now.
  void ScheduleAfter(SimDuration delay, Callback fn) {
    assert(delay >= SimDuration(0));
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue is empty. Returns the number of events run.
  uint64_t RunUntilIdle() {
    uint64_t n = 0;
    while (RunOne()) ++n;
    return n;
  }

  /// Runs events with time <= deadline; leaves later events queued. Virtual
  /// time ends at min(deadline, last event time processed... ) — precisely,
  /// Now() advances to each processed event and finally to `deadline`.
  uint64_t RunUntil(SimTime deadline) {
    uint64_t n = 0;
    while (!heap_.empty() && heap_.front().at <= deadline) {
      RunOne();
      ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  /// Runs exactly one event if any is pending. Returns whether one ran.
  bool RunOne() {
    if (heap_.empty()) return false;
    Event ev = PopEarliest();
    assert(ev.at >= now_);
    now_ = ev.at;
    ++events_run_;
    ev.fn();
    return true;
  }

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
  [[nodiscard]] Event PopEarliest() {
    // pop_heap moves the earliest event to the back, where — unlike
    // std::priority_queue::top() — it is mutable and can be MOVED out instead
    // of copying the std::function (one heap allocation per event saved).
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

  SimTime now_{0};
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  std::vector<Event> heap_;  // binary heap ordered by Later
};

}  // namespace sdm
