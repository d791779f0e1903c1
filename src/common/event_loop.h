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
// Events are ordered by (time, sequence number). Sequence numbers are
// unique, so this is a strict total order: at every step exactly one pending
// event is the earliest, and any correct priority queue pops the same event
// sequence, with equal-time events in scheduling (FIFO) order. The queue is
// therefore free to be an indexed 4-ary heap of 24-byte keys (time, seq,
// slot) whose callbacks live apart in a free-listed slot array: sifting
// moves small keys instead of std::functions, and a 4-ary heap is half as
// deep as a binary one.
#pragma once

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

  /// Runs every event with time <= deadline, including those scheduled
  /// meanwhile, and leaves later events queued. Now() advances to each event
  /// as it runs, then to `deadline` if it is still earlier. Returns the
  /// number of events run.
  uint64_t RunUntil(SimTime deadline);

  /// Runs exactly one event if any is pending. Returns whether one ran.
  bool RunOne();

  [[nodiscard]] size_t pending_events() const { return heap_.size(); }

  /// Total events executed since construction.
  [[nodiscard]] uint64_t events_run() const { return events_run_; }

 private:
  /// A pending event: when it runs, its FIFO tie-break and the index of its
  /// callback in `slots_`.
  struct Key {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };
  /// (at, seq) as one 128-bit number. `at` is never negative (ScheduleAt
  /// clamps it to Now() >= 0), so this orders by time, then FIFO, and
  /// compiles to a branch-free compare.
  static unsigned __int128 Order(const Key& k) {
    return (static_cast<unsigned __int128>(k.at.nanos()) << 64) | k.seq;
  }
  static bool Earlier(const Key& a, const Key& b) { return Order(a) < Order(b); }

  /// Places `key` at index `hole` or above, moving later parents down.
  void SiftUp(size_t hole, Key key);
  /// Refills the hole at index `hole` with `key`, moving earlier children up.
  void SiftDown(size_t hole, Key key);

  SimTime now_{0};
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  std::vector<Key> heap_;            // 4-ary min-heap by Earlier; children of i: 4i+1..4i+4
  std::vector<Callback> slots_;      // pending callbacks, indexed by Key::slot
  std::vector<uint32_t> free_slots_; // empty entries of slots_, reused last-freed first
};

}  // namespace sdm
