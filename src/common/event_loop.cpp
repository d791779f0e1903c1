#include "common/event_loop.h"

#include <cassert>
#include <utility>

namespace sdm {

void EventLoop::ScheduleAt(SimTime at, Callback fn) {
  assert(fn);
  // Clamp to now: scheduling "in the past" runs as-soon-as-possible rather
  // than corrupting the clock. This happens legitimately when a zero-latency
  // model rounds down.
  if (at < now_) at = now_;
  heap_.push_back(Event{at, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::ScheduleAfter(SimDuration delay, Callback fn) {
  assert(delay >= SimDuration(0));
  ScheduleAt(now_ + delay, std::move(fn));
}

EventLoop::Event EventLoop::PopEarliest() {
  // pop_heap moves the earliest event to the back, where — unlike
  // std::priority_queue::top() — it is mutable and can be MOVED out instead
  // of copying the std::function (one heap allocation per event saved).
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
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
  Event ev = PopEarliest();
  assert(ev.at >= now_);
  now_ = ev.at;
  ++events_run_;
  ev.fn();
  return true;
}

}  // namespace sdm
