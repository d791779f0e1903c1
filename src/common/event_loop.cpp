#include "common/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sdm {

void EventLoop::ScheduleAt(SimTime at, Callback fn) {
  assert(fn);
  // Clamp to now: scheduling "in the past" runs as-soon-as-possible rather
  // than corrupting the clock. This happens legitimately when a zero-latency
  // model rounds down.
  if (at < now_) at = now_;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Key{at, next_seq_++, slot});
}

void EventLoop::ScheduleAfter(SimDuration delay, Callback fn) {
  assert(delay >= SimDuration(0));
  ScheduleAt(now_ + delay, std::move(fn));
}

void EventLoop::SiftUp(size_t hole, Key key) {
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (!Earlier(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventLoop::SiftDown(size_t hole, Key key) {
  // Bottom-up: walk the hole down the path of earliest children to a leaf
  // without comparing against `key`, then sift `key` up from there. `key`
  // is the heap's last element and usually belongs near the bottom, so
  // this saves a comparison per level over stopping on the way down.
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = 4 * hole + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t end = std::min(first + 4, n);
    for (size_t c = first + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  SiftUp(hole, key);
}

uint64_t EventLoop::RunUntilIdle() {
  uint64_t n = 0;
  while (RunOne()) ++n;
  return n;
}

uint64_t EventLoop::RunUntil(SimTime deadline) {
  uint64_t n = 0;
  while (!heap_.empty() && heap_.front().at <= deadline) {
    RunOne();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool EventLoop::RunOne() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
  // Move the callback out and free its slot before invoking it: the
  // callback may schedule events, which can reuse the slot or reallocate
  // `slots_`. `fn` dies when RunOne returns, so its captures are released
  // before the next event runs.
  Callback fn = std::move(slots_[top.slot]);
  free_slots_.push_back(top.slot);
  assert(top.at >= now_);
  now_ = top.at;
  ++events_run_;
  fn();
  return true;
}

}  // namespace sdm
