// Differential fuzzer for EventLoop.
//
// Two rigs run the same seeded operation sequence: one on the indexed 4-ary
// heap in src/common, the other on the binary-heap loop it replaced, kept
// verbatim in tests/reference_event_loop.h. Operations schedule events in
// the past (clamped to now), at now and a few ns ahead (so equal-time ties
// are common), run one event (also on an empty loop), run until a deadline
// (often one an event sits exactly at) or until idle. A callback's action
// is fixed by its id, so both rigs' callbacks act alike: do nothing,
// schedule 1-3 more events, or run a nested event from inside the callback.
// After every operation the rigs must agree on the callbacks run (id and
// virtual time, in order), the operation's return value, Now(),
// events_run() and pending_events().
//
// Every callback captures a token whose destructor is observed. A callback
// must find the captures of every event that ran before it and has
// returned already destroyed, and its own captures intact until it
// returns, however many events it schedules or runs meanwhile.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/event_loop.h"
#include "common/rng.h"
#include "reference_event_loop.h"

namespace sdm {
namespace {

constexpr int kEpisodesPerSeed = 20;
constexpr int kStepsPerEpisode = 5000;
/// Nested RunOne calls stop at this many callbacks on the stack.
constexpr size_t kMaxNesting = 4;

/// One loop plus what its callbacks observed.
template <typename Loop>
class Rig {
 public:
  explicit Rig(uint64_t seed) : seed_(seed) {}

  Loop& loop() { return loop_; }
  /// (id, Now()) of every callback run, in run order.
  [[nodiscard]] const std::vector<std::pair<uint64_t, int64_t>>& runs() const { return runs_; }
  /// Callbacks that ran inside another callback's nested RunOne.
  [[nodiscard]] uint64_t nested_runs() const { return nested_runs_; }
  /// Capture-lifetime violations, one line each.
  [[nodiscard]] const std::vector<std::string>& violations() const { return violations_; }

  void ScheduleAt(SimTime at) { loop_.ScheduleAt(at, MakeCallback()); }
  void ScheduleAfter(SimDuration delay) { loop_.ScheduleAfter(delay, MakeCallback()); }

 private:
  /// A capture whose destruction the rig observes.
  class Token {
   public:
    Token(Rig* rig, uint64_t id) : rig_(rig), id_(id) {}
    Token(const Token&) = delete;
    Token& operator=(const Token&) = delete;
    ~Token() { rig_->OnDestroyed(id_); }

   private:
    Rig* rig_;
    uint64_t id_;
  };

  typename Loop::Callback MakeCallback() {
    const uint64_t id = next_id_++;
    auto token = std::make_shared<Token>(this, id);
    // Run takes copies: a loop that destroys this callback while it runs
    // must show up as a violation, not as a read of freed captures.
    return [this, id, token] { Run(id); };
  }

  void Run(uint64_t id) {
    runs_.emplace_back(id, loop_.Now().nanos());
    for (const uint64_t earlier : returned_alive_) {
      violations_.push_back("captures of event " + std::to_string(earlier) +
                            " still alive when event " + std::to_string(id) + " ran");
    }
    returned_alive_.clear();
    if (!running_.empty()) ++nested_runs_;
    running_.push_back(id);
    const uint64_t action = Mix64(seed_ ^ (id * 0x9e3779b97f4a7c15ULL));
    switch (action % 8) {
      case 4:
      case 5:
        for (uint64_t k = 0; k <= (action >> 8) % 3; ++k) {
          const auto offset = static_cast<int64_t>((action >> (12 + 4 * k)) % 6) - 2;
          ScheduleAt(SimTime(loop_.Now().nanos() + offset));
        }
        break;
      case 6:
        if (running_.size() < kMaxNesting) loop_.RunOne();
        break;
      case 7:
        ScheduleAt(loop_.Now());
        if (running_.size() < kMaxNesting) loop_.RunOne();
        break;
      default:
        break;
    }
    if (destroyed_while_running_ == id) {
      violations_.push_back("captures of event " + std::to_string(id) +
                            " destroyed while it ran");
    }
    running_.pop_back();
    returned_alive_.push_back(id);
  }

  void OnDestroyed(uint64_t id) {
    if (std::find(running_.begin(), running_.end(), id) != running_.end()) {
      destroyed_while_running_ = id;
      return;
    }
    returned_alive_.erase(std::remove(returned_alive_.begin(), returned_alive_.end(), id),
                          returned_alive_.end());
  }

  uint64_t seed_;
  uint64_t next_id_ = 0;
  uint64_t nested_runs_ = 0;
  std::vector<std::pair<uint64_t, int64_t>> runs_;
  std::vector<std::string> violations_;
  std::vector<uint64_t> running_;         ///< ids of the callbacks on the stack
  std::vector<uint64_t> returned_alive_;  ///< returned, captures not yet destroyed
  uint64_t destroyed_while_running_ = UINT64_MAX;
  // Last, so pending callbacks die before the state their tokens report to.
  Loop loop_;
};

/// How often each case came up, so the test can insist on all of them.
struct Coverage {
  uint64_t past_schedules = 0;
  uint64_t empty_run_ones = 0;
  uint64_t ran_at_deadline = 0;
  uint64_t at_now = 0;  ///< scheduled at Now() (or clamped to it): ties with events due now
  uint64_t nested_runs = 0;
};

class EventLoopFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventLoopFuzz, MatchesTheBinaryHeapLoopOpByOp) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Coverage cov;
  for (int episode = 0; episode < kEpisodesPerSeed; ++episode) {
    Rig<EventLoop> rig(seed * 1000 + static_cast<uint64_t>(episode));
    Rig<ReferenceEventLoop> ref(seed * 1000 + static_cast<uint64_t>(episode));
    // Rarer runs let the queue grow deep before it drains.
    const uint64_t run_pct = 30 + rng.NextBounded(30);
    size_t checked = 0;
    for (int step = 0; step < kStepsPerEpisode; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " episode " + std::to_string(episode) +
                   " step " + std::to_string(step));
      const int64_t now = rig.loop().Now().nanos();
      const uint64_t roll = rng.NextBounded(100);
      uint64_t got = 0;
      uint64_t want = 0;
      if (roll < run_pct) {
        const uint64_t kind = rng.NextBounded(10);
        if (kind < 6) {
          if (rig.loop().pending_events() == 0) ++cov.empty_run_ones;
          got = rig.loop().RunOne();
          want = ref.loop().RunOne();
        } else if (kind < 9) {
          // Half the time an event sits exactly at the deadline.
          const SimTime deadline(now + static_cast<int64_t>(rng.NextBounded(5)));
          if (rng.NextBounded(2) == 0) {
            rig.ScheduleAt(deadline);
            ref.ScheduleAt(deadline);
          }
          const size_t before = rig.runs().size();
          got = rig.loop().RunUntil(deadline);
          want = ref.loop().RunUntil(deadline);
          for (size_t i = before; i < rig.runs().size(); ++i) {
            if (rig.runs()[i].second == deadline.nanos()) ++cov.ran_at_deadline;
          }
        } else if (rig.loop().pending_events() < 64) {
          got = rig.loop().RunUntilIdle();
          want = ref.loop().RunUntilIdle();
        }
      } else {
        const auto offset = static_cast<int64_t>(rng.NextBounded(10)) - 3;
        if (offset < 0) ++cov.past_schedules;
        if (offset <= 0) ++cov.at_now;
        if (offset >= 0 && rng.NextBounded(3) == 0) {
          rig.ScheduleAfter(SimDuration(offset));
          ref.ScheduleAfter(SimDuration(offset));
        } else {
          rig.ScheduleAt(SimTime(now + offset));
          ref.ScheduleAt(SimTime(now + offset));
        }
      }
      ASSERT_EQ(got, want);
      ASSERT_EQ(rig.runs().size(), ref.runs().size());
      for (; checked < rig.runs().size(); ++checked) {
        ASSERT_EQ(rig.runs()[checked], ref.runs()[checked]) << "run #" << checked;
      }
      ASSERT_EQ(rig.loop().Now(), ref.loop().Now());
      ASSERT_EQ(rig.loop().events_run(), ref.loop().events_run());
      ASSERT_EQ(rig.loop().pending_events(), ref.loop().pending_events());
      ASSERT_TRUE(rig.violations().empty()) << rig.violations().front();
    }
    cov.nested_runs += rig.nested_runs();
  }
  EXPECT_GT(cov.past_schedules, 0u);
  EXPECT_GT(cov.empty_run_ones, 0u);
  EXPECT_GT(cov.ran_at_deadline, 0u);
  EXPECT_GT(cov.at_now, 0u);
  EXPECT_GT(cov.nested_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventLoopFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace sdm
