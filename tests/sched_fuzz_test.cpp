// Differential fuzzer for BatchScheduler.
//
// Two rigs — each an EventLoop, an NvmeDevice with a FaultInjector, an
// IoEngine, a healthy replica device and engine, and a BufferArena over the
// same device image — run the same seeded operation sequence. One drives
// the BatchScheduler in src/sched, the other the two-list scheduler it
// replaced, kept verbatim in tests/reference_batch_scheduler.h with the
// unordered_map block index of tests/reference_in_flight_index.h, so the
// flat index is checked too. After every operation the rigs must
// agree on each admission, each subscriber callback (id, status, virtual
// time, and the bytes of its span), the stats snapshot and every
// counter, each tenant's fair-share ledger, every pending, parked, budget
// and in-flight accessor, and the engine, device and arena counters (the
// replica's included).
//
// Each seed runs a series of episodes; each episode draws a scheduler
// config (cross-request on or off, batch size and delay, merge cap and gap,
// lane budgets of 1-4 blocks so runs drop and park, IO deadlines, hedging,
// and whether hedges of even-block spans go to the replica),
// an engine queue depth, a fault plan with an error burst, a fail-slow
// window and a stall, and how often steps flush or run the loop. Block and
// sub-block runs start in the first 6, 16 or 64 blocks of a 64-block
// device, so spans overlap often. A failed subscriber may re-enqueue from
// inside its callback. At the end of an episode both rigs drain, and the
// src/sched scheduler must have called every non-dropped subscriber exactly
// once with the device image's bytes over its span, with both lane budgets,
// the pending set, the parked queue and the in-flight set empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault_injector.h"
#include "reference_batch_scheduler.h"
#include "sched/batch_scheduler.h"

namespace sdm {
namespace {

constexpr uint64_t kDeviceBlocks = 64;
constexpr Bytes kDeviceBytes = kDeviceBlocks * kBlockSize;
constexpr int kEpisodesPerSeed = 50;
constexpr int kStepsPerEpisode = 2000;
/// Where the replica device holds the primary's bytes (a whole number of
/// blocks, as a placed extent replica is).
constexpr int64_t kReplicaShift = 4 * static_cast<int64_t>(kBlockSize);

using Kind = BatchScheduler::ReadRequest::Kind;

/// Everything one episode draws before its first operation.
struct Episode {
  BatchSchedulerConfig sched;
  IoEngineConfig engine;
  FaultPlan faults;
  /// Runs start in the first `hot_blocks` blocks; fewer blocks, more overlap.
  uint64_t hot_blocks = kDeviceBlocks;
  /// Percent of operations that flush, and that run the event loop. Rarer
  /// flushes and loop runs let more SQEs pile up in every section.
  uint64_t flush_pct = 10;
  uint64_t run_pct = 15;
  /// With hedging on: hedges of spans starting in an even block go to a
  /// healthy replica device (at kReplicaShift) instead of the primary.
  bool replica = false;
};

/// One operation, drawn once and applied to both rigs.
struct Op {
  enum class Type : uint8_t { kEnqueue, kFlush, kRunUntil };
  Type type = Type::kEnqueue;
  Bytes begin = 0;
  Bytes end = 0;
  bool sub_block = false;
  Kind kind = Kind::kDemand;
  uint32_t tenant = 0;
  uint32_t rows = 0;
  Bytes per_row_bus = 0;
  bool service_local = false;
  /// A failed subscriber re-enqueues its run once from inside its callback
  /// (rows = 0), as a lookup's retry does.
  bool retry_on_error = false;
  SimDuration advance{0};
};

/// What one subscriber heard, or (admission >= 0) what a retry enqueued
/// from inside a callback was told.
struct Delivery {
  uint64_t id = 0;
  StatusCode code = StatusCode::kOk;
  int64_t at_ns = 0;
  uint64_t bytes = 0;  ///< 0 if the span matched the device image
  int admission = -1;
  bool operator==(const Delivery&) const = default;
};

uint64_t Fnv1a(const uint8_t* data, Bytes n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (Bytes i = 0; i < n; ++i) h = (h ^ data[i]) * 0x100000001b3ULL;
  return h;
}

SimDuration Us(uint64_t us) { return Micros(static_cast<int64_t>(us)); }

Episode DrawEpisode(Rng& rng) {
  Episode ep;
  BatchSchedulerConfig& c = ep.sched;
  c.cross_request = rng.NextBounded(4) != 0;
  constexpr std::array<int, 4> kBatchSqes = {1, 2, 4, 64};
  c.max_batch_sqes = kBatchSqes[rng.NextBounded(kBatchSqes.size())];
  c.max_batch_delay = rng.NextBounded(2) == 0 ? SimDuration(0) : Us(1 + rng.NextBounded(5));
  constexpr std::array<Bytes, 4> kCaps = {kBlockSize, 2 * kBlockSize, 4 * kBlockSize,
                                          8 * kBlockSize};
  c.max_coalesce_bytes = kCaps[rng.NextBounded(kCaps.size())];
  constexpr std::array<Bytes, 4> kGaps = {0, 64, 512, 4096};
  c.coalesce_gap_bytes = kGaps[rng.NextBounded(kGaps.size())];
  c.prefetch_max_inflight_bytes = (1 + rng.NextBounded(4)) * kBlockSize;
  c.background_max_inflight_bytes = (1 + rng.NextBounded(4)) * kBlockSize;
  c.prefetch_flush_delay = Us(1 + rng.NextBounded(30));
  c.background_flush_delay = Us(1 + rng.NextBounded(30));
  c.io_deadline = rng.NextBounded(2) == 0 ? SimDuration(0) : Us(50 + rng.NextBounded(500));
  if (rng.NextBounded(2) == 0) {
    c.hedge_latency_factor = rng.NextDouble(1.0, 3.0);
    c.hedge_min_samples = 2 + rng.NextBounded(8);
  }
  ep.engine.queue_depth =
      rng.NextBounded(3) == 0 ? static_cast<int>(2 + rng.NextBounded(4)) : 256;
  constexpr std::array<uint64_t, 3> kHotBlocks = {6, 16, kDeviceBlocks};
  ep.hot_blocks = kHotBlocks[rng.NextBounded(kHotBlocks.size())];
  ep.flush_pct = rng.NextBounded(2) == 0 ? 2 : 10;
  ep.run_pct = rng.NextBounded(2) == 0 ? 5 : 15;

  // One window of each kind somewhere in the episode's expected span of
  // virtual time (about 3us per step).
  const uint64_t horizon_us = 3 * kStepsPerEpisode;
  auto window = [&](uint64_t min_us, uint64_t max_us) {
    const SimTime begin = SimTime(0) + Us(rng.NextBounded(horizon_us));
    return std::pair{begin, begin + Us(min_us + rng.NextBounded(max_us - min_us))};
  };
  const auto [eb, ee] = window(50, 500);
  ep.faults.ErrorBurst(eb, ee, rng.NextDouble(0.2, 0.8));
  const auto [sb, se] = window(100, 1000);
  ep.faults.FailSlow(sb, se, rng.NextDouble(3, 40));
  const auto [tb, te] = window(20, 300);
  ep.faults.Stall(tb, te);
  ep.replica = c.hedge_latency_factor > 0 && rng.NextBounded(2) == 0;
  return ep;
}

Op DrawOp(Rng& rng, const Episode& ep) {
  Op op;
  const uint64_t r = rng.NextBounded(100);
  if (r < ep.flush_pct) {
    op.type = Op::Type::kFlush;
    return op;
  }
  if (r < ep.flush_pct + ep.run_pct) {
    op.type = Op::Type::kRunUntil;
    op.advance = SimDuration(static_cast<int64_t>(rng.NextBounded(40'000)));
    return op;
  }
  const uint64_t k = rng.NextBounded(100);
  op.kind = k < 50 ? Kind::kDemand : k < 75 ? Kind::kBackground : Kind::kPrefetch;
  // The prefetch lane exists only with cross-request batching.
  if (!ep.sched.cross_request && op.kind == Kind::kPrefetch) op.kind = Kind::kDemand;
  op.sub_block = rng.NextBounded(4) == 0;
  if (op.sub_block) {
    op.begin = rng.NextBounded(ep.hot_blocks * kBlockSize);
    op.end = op.begin + 1 + rng.NextBounded(std::min<Bytes>(600, kDeviceBytes - op.begin));
  } else {
    const uint64_t first = rng.NextBounded(ep.hot_blocks);
    const uint64_t last = std::min(kDeviceBlocks - 1, first + rng.NextBounded(3));
    op.begin = first * kBlockSize + rng.NextBounded(kBlockSize);
    op.end = last * kBlockSize + 1 + rng.NextBounded(kBlockSize);
    if (op.end <= op.begin) {
      op.end = op.begin + 1 + rng.NextBounded(kBlockSize - op.begin % kBlockSize);
    }
  }
  op.tenant = static_cast<uint32_t>(rng.NextBounded(4));
  op.rows = static_cast<uint32_t>(rng.NextBounded(4));
  op.per_row_bus = op.rows * (op.sub_block ? op.end - op.begin : kBlockSize);
  op.service_local = rng.NextBounded(8) == 0;
  op.retry_on_error = rng.NextBounded(2) == 0;
  return op;
}

template <typename Scheduler>
struct Rig {
  Rig(const Episode& ep, const std::vector<uint8_t>& image_bytes, uint64_t seed)
      : device(MakeOptaneSsdSpec(), kDeviceBytes, &loop, seed),
        injector(ep.faults, &loop, seed ^ 0xfa17),
        engine(&device, &loop, ep.engine),
        replica_device(MakeOptaneSsdSpec(), kDeviceBytes + kReplicaShift, &loop, seed ^ 0x4e91),
        replica_engine(&replica_device, &loop, ep.engine),
        sched(&engine, &arena, &loop, ep.sched),
        image(&image_bytes) {
    device.set_fault_injector(&injector, 0);
    EXPECT_TRUE(device.Write(0, image_bytes).ok());
    EXPECT_TRUE(replica_device.Write(kReplicaShift, image_bytes).ok());
    if (ep.replica) {
      sched.set_replica_peer([this](Bytes begin, Bytes) {
        using Peer = typename Scheduler::ReplicaPeer;
        return (begin / kBlockSize) % 2 == 0
                   ? std::optional<Peer>(Peer{&replica_engine, kReplicaShift})
                   : std::nullopt;
      });
    }
    const StatsRegistry* const registries[] = {&sched.stats(), &engine.stats(), &device.stats(),
                                               &replica_engine.stats(),
                                               &replica_device.stats()};
    for (const StatsRegistry* r : registries) {
      for (const auto& [name, value] : r->Counters()) {
        counter_names.push_back(name);
        // GetCounter on a registered name only looks it up; the handle makes
        // the per-step comparison a load instead of a map walk.
        counters.push_back(const_cast<StatsRegistry*>(r)->GetCounter(name));
      }
    }
  }

  typename Scheduler::Admission Enqueue(const Op& op) {
    const uint64_t id = calls.size();
    calls.push_back(0);
    expected.push_back(true);
    typename Scheduler::ReadRequest req;
    req.span_begin = op.begin;
    req.span_end = op.end;
    req.first_block = op.begin / kBlockSize;
    req.last_block = (op.end - 1) / kBlockSize;
    req.sub_block = op.sub_block;
    req.kind = static_cast<typename Scheduler::ReadRequest::Kind>(op.kind);
    req.tenant = op.tenant;
    req.rows = op.rows;
    req.per_row_bus = op.per_row_bus;
    req.service_local = op.service_local;
    req.cb = [this, id, op](Status s, const uint8_t* data, Bytes base) {
      ++calls[id];
      Delivery d{id, s.code(), loop.Now().nanos(), 0, -1};
      if (s.ok()) {
        // 0 when the span holds the image's bytes, else their hash.
        const uint8_t* span = data + (op.begin - base);
        if (std::memcmp(span, image->data() + op.begin, op.end - op.begin) != 0) {
          d.bytes = Fnv1a(span, op.end - op.begin);
          ++wrong_bytes;
        }
      }
      log.push_back(d);
      if (!s.ok() && op.retry_on_error) {
        Op retry = op;
        retry.rows = 0;
        retry.per_row_bus = 0;
        retry.retry_on_error = false;
        const uint64_t retry_id = calls.size();
        const int admission = static_cast<int>(Enqueue(retry));
        log.push_back({retry_id, StatusCode::kOk, loop.Now().nanos(), 0, admission});
      }
    };
    const auto admission = sched.Enqueue(std::move(req));
    if (admission == Scheduler::Admission::kDropped) expected[id] = false;
    return admission;
  }

  bool WouldShare(const Op& op) const {
    return sched.WouldShare(op.begin, op.end, op.begin / kBlockSize, (op.end - 1) / kBlockSize,
                            op.sub_block);
  }

  [[nodiscard]] bool Idle() const {
    return sched.pending_sqes() == 0 && sched.background_pending_sqes() == 0 &&
           sched.prefetch_pending_sqes() == 0 && sched.background_parked_runs() == 0 &&
           sched.in_flight_reads() == 0 && loop.pending_events() == 0;
  }

  EventLoop loop;
  NvmeDevice device;
  FaultInjector injector;
  IoEngine engine;
  NvmeDevice replica_device;  ///< healthy: no fault injector
  IoEngine replica_engine;
  BufferArena arena;
  Scheduler sched;
  const std::vector<uint8_t>* image;  ///< the device's bytes, for checking deliveries
  std::vector<Delivery> log;
  std::vector<int> calls;      ///< callbacks heard, per subscriber id
  std::vector<bool> expected;  ///< false once the run was dropped
  /// Every scheduler, engine and device counter, in registry order.
  std::vector<std::string> counter_names;
  std::vector<const Counter*> counters;
  uint64_t wrong_bytes = 0;    ///< OK deliveries that differ from the image
};

std::array<uint64_t, 14> Fields(const CrossRequestIoStats& s) {
  return {s.device_reads,       s.cross_request_merges, s.singleflight_hits,
          s.singleflight_bytes_saved, s.flushes,       s.prefetch_reads,
          s.prefetch_dropped,   s.prefetch_promoted,    s.background_reads,
          s.background_parked,  s.background_promoted,  s.deadline_expired,
          s.hedges_issued,      s.hedges_won};
}

std::array<uint64_t, 8> Fields(const TenantIoShare& t) {
  return {t.demand_reads,      t.demand_bytes,      t.background_reads,
          t.background_bytes,  t.prefetch_bytes,    t.singleflight_hits,
          t.cross_tenant_hits, t.cross_tenant_bytes_saved};
}

/// The first field on which the two rigs disagree, or "" when they agree.
/// Log entries before `*checked` were compared by an earlier call.
template <typename A, typename B>
std::string Diff(const A& ref, const B& live, size_t* checked) {
#define SDM_FUZZ_SAME(expr)                                      \
  if (!((ref.expr) == (live.expr))) return std::string(#expr);
  SDM_FUZZ_SAME(loop.Now());
  SDM_FUZZ_SAME(loop.pending_events());
  SDM_FUZZ_SAME(log.size());
  for (; *checked < ref.log.size(); ++*checked) {
    if (!(ref.log[*checked] == live.log[*checked])) {
      return "log[" + std::to_string(*checked) + "]";
    }
  }
  SDM_FUZZ_SAME(sched.pending_sqes());
  SDM_FUZZ_SAME(sched.background_pending_sqes());
  SDM_FUZZ_SAME(sched.background_parked_runs());
  SDM_FUZZ_SAME(sched.background_budget_used());
  SDM_FUZZ_SAME(sched.prefetch_pending_sqes());
  SDM_FUZZ_SAME(sched.prefetch_budget_used());
  SDM_FUZZ_SAME(sched.in_flight_reads());
  SDM_FUZZ_SAME(sched.demand_latency_samples());
  SDM_FUZZ_SAME(sched.tenant_span());
  SDM_FUZZ_SAME(engine.outstanding());
  SDM_FUZZ_SAME(engine.queued());
  SDM_FUZZ_SAME(replica_engine.outstanding());
  SDM_FUZZ_SAME(replica_engine.queued());
  SDM_FUZZ_SAME(arena.stats().acquires);
  SDM_FUZZ_SAME(arena.stats().allocations);
  SDM_FUZZ_SAME(arena.pooled_buffers());
#undef SDM_FUZZ_SAME
  for (size_t c = 0; c < ref.counters.size(); ++c) {
    if (ref.counters[c]->value() != live.counters[c]->value()) return ref.counter_names[c];
  }
  if (Fields(ref.sched.Snapshot()) != Fields(live.sched.Snapshot())) return "Snapshot()";
  for (uint32_t t = 0; t < ref.sched.tenant_span(); ++t) {
    if (Fields(ref.sched.tenant_share(t)) != Fields(live.sched.tenant_share(t))) {
      return "tenant_share(" + std::to_string(t) + ")";
    }
  }
  return "";
}

class SchedFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedFuzz, MatchesTheTwoListSchedulerOpByOp) {
  Rng rng(GetParam());
  uint64_t steps = 0;
  CrossRequestIoStats seen;  // what the live scheduler did, over all episodes
  uint64_t lane_joins = 0;
  uint64_t replica_wins = 0;
  for (int e = 0; e < kEpisodesPerSeed; ++e) {
    const Episode ep = DrawEpisode(rng);
    std::vector<uint8_t> image(kDeviceBytes);
    for (uint8_t& b : image) b = static_cast<uint8_t>(rng.Next());
    const uint64_t device_seed = rng.Next();
    Rig<ReferenceBatchScheduler> ref(ep, image, device_seed);
    Rig<BatchScheduler> live(ep, image, device_seed);
    ASSERT_EQ(ref.counter_names, live.counter_names);
    size_t checked = 0;
    const auto where = [&](int step) {
      std::ostringstream s;
      s << "seed " << GetParam() << " episode " << e << " step " << step;
      return s.str();
    };

    for (int step = 0; step < kStepsPerEpisode; ++step, ++steps) {
      const Op op = DrawOp(rng, ep);
      switch (op.type) {
        case Op::Type::kEnqueue: {
          ASSERT_EQ(ref.WouldShare(op), live.WouldShare(op)) << where(step);
          const int a = static_cast<int>(ref.Enqueue(op));
          const int b = static_cast<int>(live.Enqueue(op));
          ASSERT_EQ(a, b) << where(step) << " admission";
          break;
        }
        case Op::Type::kFlush:
          ref.sched.Flush();
          live.sched.Flush();
          break;
        case Op::Type::kRunUntil:
          ref.loop.RunUntil(ref.loop.Now() + op.advance);
          live.loop.RunUntil(live.loop.Now() + op.advance);
          break;
      }
      ASSERT_EQ(Diff(ref, live, &checked), "") << where(step);
    }

    // Drain: the lane timers and parked-run admission empty both rigs.
    for (int round = 0; round < 100 && !live.Idle(); ++round) {
      ref.sched.Flush();
      live.sched.Flush();
      ref.loop.RunUntilIdle();
      live.loop.RunUntilIdle();
      ASSERT_EQ(Diff(ref, live, &checked), "") << where(kStepsPerEpisode) << " drain";
    }
    ASSERT_TRUE(live.Idle()) << where(kStepsPerEpisode);
    EXPECT_EQ(live.sched.background_budget_used(), 0u) << where(kStepsPerEpisode);
    EXPECT_EQ(live.sched.prefetch_budget_used(), 0u) << where(kStepsPerEpisode);
    EXPECT_EQ(live.wrong_bytes, 0u) << where(kStepsPerEpisode);
    for (size_t id = 0; id < live.calls.size(); ++id) {
      ASSERT_EQ(live.calls[id], live.expected[id] ? 1 : 0)
          << where(kStepsPerEpisode) << " subscriber " << id;
    }
    seen += live.sched.Snapshot();
    lane_joins += live.sched.stats().CounterValue("background_singleflight") +
                  live.sched.stats().CounterValue("prefetch_singleflight");
    replica_wins += live.sched.stats().CounterValue("replica_hedge_wins");
  }
  EXPECT_GE(steps, 100'000u);
  // Every path the comparison is meant to cover was taken.
  for (const uint64_t count : Fields(seen)) EXPECT_GT(count, 0u);
  EXPECT_GT(lane_joins, 0u);
  // A replica-served hedge settled its read (and unindexed it) first.
  EXPECT_GT(replica_wins, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedFuzz, ::testing::Values(1, 2, 3));
// More seeds than a tier-1 run can afford. Disabled, so ctest skips them;
// run them with --gtest_also_run_disabled_tests (CI does, under ASan).
INSTANTIATE_TEST_SUITE_P(DISABLED_LongSeeds, SchedFuzz, ::testing::Range<uint64_t>(4, 20));

}  // namespace
}  // namespace sdm
