// Tests for the src/sched subsystem: IoPlanner (pure planning), the
// cross-request BatchScheduler (single-flight, merging, flush triggers,
// starvation/deadline behavior), its InFlightIndex (differentially, against
// a first-match scan), and the LookupEngine integration —
// including the property that scattered rows are byte-identical across the
// three io_batching modes (per-row, per-request, cross-request).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "core/sdm_store.h"
#include "dlrm/model_zoo.h"
#include "fault/fault_injector.h"
#include "sched/batch_scheduler.h"
#include "sched/in_flight_index.h"
#include "sched/io_planner.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// IoPlanner: pure unit tests, no event loop.
// ---------------------------------------------------------------------------

PlannerConfig BlockPlanner(Bytes row_bytes = 24) {
  PlannerConfig c;
  c.row_bytes = row_bytes;
  c.sub_block = false;
  return c;
}

/// A planned run with the slot handles of its rows, read out of the miss
/// array Plan sorted.
struct SlotRun : PlannedRun {
  std::vector<uint32_t> slot_indices;
};

std::vector<SlotRun> PlanRuns(std::vector<IoPlanner::Miss> misses, const PlannerConfig& cfg) {
  std::vector<PlannedRun> planned;
  IoPlanner::Plan(misses, cfg, &planned);
  std::vector<SlotRun> runs;
  for (const PlannedRun& p : planned) {
    SlotRun r{p, {}};
    for (uint32_t k = p.first_miss; k < p.end_miss; ++k) r.slot_indices.push_back(misses[k].slot);
    runs.push_back(r);
  }
  return runs;
}

TEST(IoPlanner, EmptyInputPlansNothing) {
  const std::vector<SlotRun> runs = PlanRuns({}, BlockPlanner());
  EXPECT_TRUE(runs.empty());
}

TEST(IoPlanner, SameBlockMissesFormOneRun) {
  // Three 24B rows inside block 0.
  const std::vector<SlotRun> runs =
      PlanRuns({{0, 24}, {1, 240}, {2, 2400}}, BlockPlanner());
  ASSERT_EQ(runs.size(), 1u);
  const SlotRun& r = runs[0];
  EXPECT_EQ(r.first_block, 0u);
  EXPECT_EQ(r.last_block, 0u);
  EXPECT_EQ(r.span_begin, 24u);
  EXPECT_EQ(r.span_end, 2424u);
  EXPECT_EQ(r.slot_indices, (std::vector<uint32_t>{0, 1, 2}));
  // Block mode: each per-row read would have moved one whole block.
  EXPECT_EQ(r.per_row_bus, 3 * kBlockSize);
}

TEST(IoPlanner, UnsortedMissesAreSortedByOffset) {
  const std::vector<SlotRun> runs =
      PlanRuns({{7, 2400}, {3, 24}, {5, 240}}, BlockPlanner());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].slot_indices, (std::vector<uint32_t>{3, 5, 7}));
}

TEST(IoPlanner, AdjacentBlocksMergeUpToCap) {
  PlannerConfig cfg = BlockPlanner(/*row_bytes=*/64);
  cfg.max_coalesce_bytes = 2 * kBlockSize;
  // One aligned row per block in blocks 0,1,2: the cap allows two blocks per
  // run, so blocks 0+1 merge and block 2 starts a new run.
  const std::vector<SlotRun> runs = PlanRuns(
      {{0, 0}, {1, kBlockSize}, {2, 2 * kBlockSize}}, cfg);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].first_block, 0u);
  EXPECT_EQ(runs[0].last_block, 1u);
  EXPECT_EQ(runs[1].first_block, 2u);
}

TEST(IoPlanner, NonAdjacentBlocksDoNotMerge) {
  const std::vector<SlotRun> runs =
      PlanRuns({{0, 0}, {1, 2 * kBlockSize}}, BlockPlanner(/*row_bytes=*/64));
  EXPECT_EQ(runs.size(), 2u);
}

TEST(IoPlanner, SubBlockGapBoundSplitsScatteredRows) {
  PlannerConfig cfg;
  cfg.row_bytes = 24;
  cfg.sub_block = true;
  cfg.coalesce_gap_bytes = 64;
  // Same block, but 1000B of dead gap between the rows: a merge would drag
  // the gap across the bus, so the planner splits.
  const std::vector<SlotRun> runs = PlanRuns({{0, 0}, {1, 1024}}, cfg);
  EXPECT_EQ(runs.size(), 2u);

  cfg.coalesce_gap_bytes = 2048;  // now the gap is acceptable
  const std::vector<SlotRun> merged = PlanRuns({{0, 0}, {1, 1024}}, cfg);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].span_end, 1048u);
}

TEST(IoPlanner, LoneStraddlingRowIsOneTwoBlockRun) {
  // A 24B row at 4088 straddles blocks 0 and 1.
  const std::vector<SlotRun> runs = PlanRuns({{5, 4088}}, BlockPlanner());
  ASSERT_EQ(runs.size(), 1u);
  const SlotRun& r = runs[0];
  EXPECT_EQ(r.first_block, 0u);
  EXPECT_EQ(r.last_block, 1u);
  EXPECT_EQ(r.span_begin, 4088u);
  EXPECT_EQ(r.span_end, 4112u);
  EXPECT_EQ(r.slot_indices, (std::vector<uint32_t>{5}));
  EXPECT_EQ(r.per_row_bus, 2 * kBlockSize);  // both blocks cross the bus
}

TEST(IoPlanner, StraddlingRowMergesWithSameAndNextBlockNeighbours) {
  // Block 0 row, then a 0|1 straddler (same block as the run's last), a
  // block 1 row, and a 1|2 straddler: one run over blocks 0..2.
  const std::vector<SlotRun> runs = PlanRuns({{0, 100}, {1, 4088}, {2, 4200}, {3, 8184}},
                                      BlockPlanner());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first_block, 0u);
  EXPECT_EQ(runs[0].last_block, 2u);
  EXPECT_EQ(runs[0].span_end, 8208u);
  EXPECT_EQ(runs[0].slot_indices, (std::vector<uint32_t>{0, 1, 2, 3}));

  // A straddler starting in the block after the run's last joins it too.
  const std::vector<SlotRun> next = PlanRuns({{0, 100}, {1, 8184}}, BlockPlanner());
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].first_block, 0u);
  EXPECT_EQ(next[0].last_block, 2u);
}

TEST(IoPlanner, StraddlingRowOverTheCapIsKeptWholeAndSplitsNeighbours) {
  PlannerConfig cfg = BlockPlanner();
  cfg.max_coalesce_bytes = kBlockSize;
  // The straddler alone spans two blocks, over the one-block cap: it is
  // still emitted as its own run, and neither neighbour may join it.
  const std::vector<SlotRun> runs = PlanRuns({{0, 100}, {1, 4088}, {2, 4200}}, cfg);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].slot_indices, (std::vector<uint32_t>{0}));
  EXPECT_EQ(runs[1].first_block, 0u);
  EXPECT_EQ(runs[1].last_block, 1u);
  EXPECT_EQ(runs[1].slot_indices, (std::vector<uint32_t>{1}));
  EXPECT_EQ(runs[2].first_block, 1u);
  EXPECT_EQ(runs[2].slot_indices, (std::vector<uint32_t>{2}));
}

TEST(IoPlanner, MergeOffPlansOneRunPerMiss) {
  PlannerConfig cfg = BlockPlanner();
  cfg.merge = false;
  // Same-block rows and a duplicate offset: every miss keeps its own run.
  const std::vector<SlotRun> runs = PlanRuns({{0, 24}, {1, 240}, {2, 240}}, cfg);
  ASSERT_EQ(runs.size(), 3u);
  for (const SlotRun& r : runs) {
    EXPECT_EQ(r.slot_indices.size(), 1u);
    EXPECT_EQ(r.per_row_bus, kBlockSize);
  }
}

// ---------------------------------------------------------------------------
// BatchScheduler: driven directly against a device with known bytes.
// ---------------------------------------------------------------------------

struct SchedulerRig {
  EventLoop loop;
  std::unique_ptr<NvmeDevice> device;
  std::unique_ptr<IoEngine> engine;
  BufferArena arena;
  std::unique_ptr<BatchScheduler> sched;

  explicit SchedulerRig(BatchSchedulerConfig cfg, DeviceSpec spec = MakeOptaneSsdSpec()) {
    device = std::make_unique<NvmeDevice>(spec, 64 * kKiB, &loop, 1);
    std::vector<uint8_t> image(64 * kKiB);
    for (size_t i = 0; i < image.size(); ++i) {
      image[i] = static_cast<uint8_t>((i * 7 + 3) & 0xFF);
    }
    EXPECT_TRUE(device->Write(0, image).ok());
    engine = std::make_unique<IoEngine>(device.get(), &loop, IoEngineConfig{});
    sched = std::make_unique<BatchScheduler>(engine.get(), &arena, &loop, cfg);
  }

  /// Request for [begin, end); on success verifies the delivered bytes
  /// against the written pattern and bumps `*ok`.
  BatchScheduler::ReadRequest Request(Bytes begin, Bytes end, int* ok,
                                      bool sub_block = false) {
    BatchScheduler::ReadRequest req;
    req.span_begin = begin;
    req.span_end = end;
    req.first_block = begin / kBlockSize;
    req.last_block = (end - 1) / kBlockSize;
    req.sub_block = sub_block;
    req.rows = 1;
    req.per_row_bus = sub_block ? end - begin : kBlockSize;
    req.cb = [begin, end, ok](Status s, const uint8_t* data, Bytes base) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_NE(data, nullptr);
      for (Bytes o = begin; o < end; ++o) {
        ASSERT_EQ(data[o - base], static_cast<uint8_t>((o * 7 + 3) & 0xFF));
      }
      ++*ok;
    };
    return req;
  }

  [[nodiscard]] uint64_t DeviceReads() const {
    return device->stats().CounterValue("reads");
  }
};

TEST(BatchScheduler, PendingSingleFlightSharesOneRead) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = Micros(5);
  SchedulerRig rig(cfg);
  int ok = 0;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(100, 200, &ok)),
            BatchScheduler::Admission::kNewRead);
  // Same block, disjoint byte range: covered by the pending block read.
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(300, 400, &ok)),
            BatchScheduler::Admission::kJoinedPending);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rig.DeviceReads(), 1u);
  EXPECT_EQ(rig.sched->stats().CounterValue("singleflight_hits"), 1u);
  EXPECT_EQ(rig.sched->stats().CounterValue("device_reads"), 1u);
}

TEST(BatchScheduler, AdjacentSpansMergeAcrossRequests) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = Micros(5);
  SchedulerRig cross(cfg);
  int ok = 0;
  EXPECT_EQ(cross.sched->Enqueue(cross.Request(100, 200, &ok)),
            BatchScheduler::Admission::kNewRead);
  // Next block over: fuses into one two-block SQE.
  EXPECT_EQ(cross.sched->Enqueue(cross.Request(kBlockSize + 10, kBlockSize + 90, &ok)),
            BatchScheduler::Admission::kMergedPending);
  cross.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(cross.DeviceReads(), 1u);
  EXPECT_EQ(cross.sched->stats().CounterValue("cross_request_merges"), 1u);
}

TEST(BatchScheduler, BridgingRunFusesIndependentPendingReads) {
  // Blocks [0] and [2] are pending as separate SQEs; a run on block [1]
  // merges with the first AND must drag the second in, or block 2 would
  // cross the bus twice in one flush.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = Micros(5);
  SchedulerRig rig(cfg);
  int ok = 0;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(100, 200, &ok)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(2 * kBlockSize + 100, 2 * kBlockSize + 200, &ok)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(kBlockSize + 100, kBlockSize + 200, &ok)),
            BatchScheduler::Admission::kMergedPending);
  EXPECT_EQ(rig.sched->pending_sqes(), 1u);  // all three fused
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(rig.DeviceReads(), 1u);
  EXPECT_EQ(rig.sched->stats().CounterValue("cross_request_merges"), 2u);
}

TEST(BatchScheduler, SubBlockGapRuleBoundsCrossRequestMerges) {
  // Sub-block (SGL) spans only fuse across dead gaps the config allows —
  // the same request-merging rule the planner applies within a request.
  BatchSchedulerConfig tight;
  tight.cross_request = true;
  tight.max_batch_delay = Micros(5);
  tight.coalesce_gap_bytes = 64;
  SchedulerRig rig(tight);
  int ok = 0;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(0, 24, &ok, /*sub_block=*/true)),
            BatchScheduler::Admission::kNewRead);
  // 1000B dead gap > 64B bound: stays its own SQE.
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(1024, 1048, &ok, /*sub_block=*/true)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rig.DeviceReads(), 2u);

  BatchSchedulerConfig loose = tight;
  loose.coalesce_gap_bytes = 2048;
  SchedulerRig rig2(loose);
  int ok2 = 0;
  EXPECT_EQ(rig2.sched->Enqueue(rig2.Request(0, 24, &ok2, /*sub_block=*/true)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig2.sched->Enqueue(rig2.Request(1024, 1048, &ok2, /*sub_block=*/true)),
            BatchScheduler::Admission::kMergedPending);
  // Contained span: single-flight, not a merge.
  EXPECT_EQ(rig2.sched->Enqueue(rig2.Request(512, 536, &ok2, /*sub_block=*/true)),
            BatchScheduler::Admission::kJoinedPending);
  rig2.loop.RunUntilIdle();
  EXPECT_EQ(ok2, 3);
  EXPECT_EQ(rig2.DeviceReads(), 1u);
}

TEST(BatchScheduler, PrefilterReachesASubBlockGapIntoTheBlockAfterNext) {
  // A run ending on a block boundary fuses with a pending sub-block SQE a
  // whole gap (4 KiB) later, which starts two blocks past the run's last.
  // Four far-away fillers make the pending set larger than the prefilter's
  // window, so the prefilter, not the scan, decides whether to look.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = Micros(5);
  cfg.coalesce_gap_bytes = kBlockSize;
  SchedulerRig rig(cfg);
  int ok = 0;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(3 * kBlockSize, 3 * kBlockSize + 64, &ok,
                                           /*sub_block=*/true)),
            BatchScheduler::Admission::kNewRead);
  for (const uint64_t block : {9u, 11u, 13u, 15u}) {
    EXPECT_EQ(rig.sched->Enqueue(rig.Request(block * kBlockSize, block * kBlockSize + 24, &ok,
                                             /*sub_block=*/true)),
              BatchScheduler::Admission::kNewRead);
  }
  EXPECT_FALSE(rig.sched->WouldShare(kBlockSize + 100, 2 * kBlockSize, 1, 1,
                                     /*sub_block=*/true));
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(kBlockSize + 100, 2 * kBlockSize, &ok,
                                           /*sub_block=*/true)),
            BatchScheduler::Admission::kMergedPending);
  EXPECT_EQ(rig.sched->pending_sqes(), 5u);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 6);
  EXPECT_EQ(rig.DeviceReads(), 5u);
}

TEST(BatchScheduler, WouldShareSaysCoveredWhileEnqueueGrowsAnEarlierSqe) {
  // Current behaviour, pinned on purpose: the FOUND note in CHANGES.md on
  // the WouldShare/Enqueue disagreement. WouldShare finds the covering SQE
  // B, but Enqueue scans demand in order and grows the earlier SQE A,
  // which merely abuts the run; A and B then exceed the merge cap together
  // and stay apart. Both blocks 3 cross the bus. Mending it flips the
  // admission to kJoinedPending and the bus bytes to 6 blocks.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = Micros(5);
  cfg.max_coalesce_bytes = 4 * kBlockSize;
  SchedulerRig rig(cfg);
  int ok = 0;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(100, 2 * kBlockSize + 200, &ok)),
            BatchScheduler::Admission::kNewRead);  // A = blocks [0..2]
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(3 * kBlockSize + 100, 5 * kBlockSize + 200, &ok)),
            BatchScheduler::Admission::kNewRead);  // B = blocks [3..5]
  const Bytes begin = 3 * kBlockSize + 300;
  const Bytes end = 3 * kBlockSize + 400;
  EXPECT_TRUE(rig.sched->WouldShare(begin, end, 3, 3, /*sub_block=*/false));
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(begin, end, &ok)),
            BatchScheduler::Admission::kMergedPending);  // A grows to [0..3]
  EXPECT_EQ(rig.sched->pending_sqes(), 2u);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(rig.DeviceReads(), 2u);
  EXPECT_EQ(rig.sched->stats().CounterValue("cross_request_merges"), 1u);
  EXPECT_EQ(rig.sched->stats().CounterValue("singleflight_hits"), 0u);
  EXPECT_EQ(rig.sched->tenant_share(0).demand_bytes, 7 * kBlockSize);
}

TEST(BatchScheduler, CoveredDemandJoinWidensTheSqeButACoveredLaneJoinDoesNot) {
  // Both runs sit in block 0, so one block crosses the bus either way. A
  // covered demand run still widens the SQE's span and adds its rows, which
  // the engine counts as a coalesced read; a covered background run only
  // subscribes.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = Micros(5);
  for (const auto kind : {BatchScheduler::ReadRequest::Kind::kDemand,
                          BatchScheduler::ReadRequest::Kind::kBackground}) {
    const bool demand = kind == BatchScheduler::ReadRequest::Kind::kDemand;
    SchedulerRig rig(cfg);
    int ok = 0;
    BatchScheduler::ReadRequest first = rig.Request(100, 200, &ok);
    BatchScheduler::ReadRequest covered = rig.Request(300, 400, &ok);
    first.kind = kind;
    covered.kind = kind;
    EXPECT_EQ(rig.sched->Enqueue(std::move(first)), BatchScheduler::Admission::kNewRead);
    EXPECT_EQ(rig.sched->Enqueue(std::move(covered)), BatchScheduler::Admission::kJoinedPending);
    rig.sched->Flush();
    rig.loop.RunUntilIdle();
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(rig.DeviceReads(), 1u);
    EXPECT_EQ(rig.device->stats().CounterValue("useful_bytes"), demand ? 300u : 100u);
    EXPECT_EQ(rig.engine->stats().CounterValue("coalesced_reads"), demand ? 1u : 0u);
    EXPECT_EQ(rig.engine->stats().CounterValue("bytes_saved"), demand ? kBlockSize : 0u);
  }
}

TEST(BatchScheduler, SubBlockLateArrivalJoinsWithinDwordWindow) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  SchedulerRig rig(cfg);
  int ok = 0;
  (void)rig.sched->Enqueue(rig.Request(100, 200, &ok, /*sub_block=*/true));
  rig.loop.RunUntil(rig.loop.Now() + Micros(2));
  ASSERT_EQ(rig.sched->in_flight_reads(), 1u);
  // Inside the in-flight DWORD window [100, 200): joins. Outside: new read.
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(120, 160, &ok, /*sub_block=*/true)),
            BatchScheduler::Admission::kJoinedInFlight);
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(196, 240, &ok, /*sub_block=*/true)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(rig.DeviceReads(), 2u);
}

TEST(BatchScheduler, LateArrivalJoinsInFlightRead) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  SchedulerRig rig(cfg);
  int ok = 0;
  (void)rig.sched->Enqueue(rig.Request(100, 200, &ok));
  // Let the flush + device submission happen, but not the ~10us completion.
  rig.loop.RunUntil(rig.loop.Now() + Micros(2));
  ASSERT_EQ(rig.sched->in_flight_reads(), 1u);
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(500, 600, &ok)),
            BatchScheduler::Admission::kJoinedInFlight);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rig.DeviceReads(), 1u);
  EXPECT_EQ(rig.sched->stats().CounterValue("singleflight_hits"), 1u);
}

TEST(BatchScheduler, RunCoveredByTwoLiveReadsJoinsTheEarlierIssued) {
  // Read A (block 0) goes out first, read B (blocks 0-1) a microsecond
  // later; a run inside block 0 is covered by both and must ride A — the
  // read a first-match scan in issue order finds — so it settles with A,
  // before the larger, later B lands.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  SchedulerRig rig(cfg);
  int ok = 0;
  auto timed = [&](Bytes begin, Bytes end, SimTime* done_at) {
    auto req = rig.Request(begin, end, &ok);
    auto inner = std::move(req.cb);
    req.cb = [&rig, done_at, inner = std::move(inner)](Status s, const uint8_t* d,
                                                        Bytes b) {
      inner(s, d, b);
      *done_at = rig.loop.Now();
    };
    return req;
  };
  SimTime a_done;
  SimTime b_done;
  SimTime c_done;
  EXPECT_EQ(rig.sched->Enqueue(timed(100, 200, &a_done)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntil(rig.loop.Now() + Micros(1));
  EXPECT_EQ(rig.sched->Enqueue(timed(100, kBlockSize + 200, &b_done)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntil(rig.loop.Now() + Micros(1));
  ASSERT_EQ(rig.sched->in_flight_reads(), 2u);
  EXPECT_EQ(rig.sched->Enqueue(timed(300, 400, &c_done)),
            BatchScheduler::Admission::kJoinedInFlight);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(rig.DeviceReads(), 2u);
  EXPECT_LT(a_done, b_done);
  EXPECT_EQ(c_done, a_done);
  EXPECT_EQ(rig.sched->in_flight_reads(), 0u);
}

TEST(BatchScheduler, DeadlineFlushesALoneRun) {
  // Starvation guard: a lone run with no co-travellers must still flush at
  // the deadline, not wait forever for the batch to fill.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_sqes = 64;
  cfg.max_batch_delay = Micros(50);
  SchedulerRig rig(cfg);
  int ok = 0;
  SimTime done_at;
  auto req = rig.Request(100, 200, &ok);
  auto inner = std::move(req.cb);
  req.cb = [&, inner = std::move(inner)](Status s, const uint8_t* d, Bytes b) {
    inner(s, d, b);
    done_at = rig.loop.Now();
  };
  (void)rig.sched->Enqueue(std::move(req));
  EXPECT_EQ(rig.sched->pending_sqes(), 1u);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(rig.sched->stats().CounterValue("flush_deadline"), 1u);
  // Completed after the 50us window (plus device time), not before.
  EXPECT_GE(done_at - SimTime(0), Micros(50));
}

TEST(BatchScheduler, SizeTriggerFlushesBeforeDeadline) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_sqes = 2;
  cfg.max_batch_delay = Millis(10);
  SchedulerRig rig(cfg);
  int ok = 0;
  SimTime done_at;
  (void)rig.sched->Enqueue(rig.Request(100, 200, &ok));
  // Far-apart block, un-mergeable: second SQE fills the batch.
  auto req = rig.Request(8 * kBlockSize + 10, 8 * kBlockSize + 90, &ok);
  auto inner = std::move(req.cb);
  req.cb = [&, inner = std::move(inner)](Status s, const uint8_t* d, Bytes b) {
    inner(s, d, b);
    done_at = rig.loop.Now();
  };
  (void)rig.sched->Enqueue(std::move(req));
  EXPECT_EQ(rig.sched->pending_sqes(), 0u);  // flushed by the size trigger
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rig.sched->stats().CounterValue("flush_size"), 1u);
  EXPECT_LT(done_at - SimTime(0), Millis(1));  // did not wait out the deadline
  EXPECT_DOUBLE_EQ(rig.sched->BatchOccupancy(), 2.0);
}

TEST(BatchScheduler, BypassModeNeverShares) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = false;
  SchedulerRig rig(cfg);
  int ok = 0;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(100, 200, &ok)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(300, 400, &ok)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rig.DeviceReads(), 2u);
  EXPECT_EQ(rig.sched->stats().CounterValue("singleflight_hits"), 0u);
  // Without a caller Flush(), the delay-0 backstop flushed both together.
  EXPECT_EQ(rig.sched->stats().CounterValue("flushes"), 1u);
}

// ---------------------------------------------------------------------------
// Robustness: error fan-out, deadlines, hedging (src/fault layer).
// ---------------------------------------------------------------------------

/// Request whose callback asserts a failed delivery and counts it — the
/// exactly-once error fan-out contract for single-flight waiters.
BatchScheduler::ReadRequest FailingRequest(Bytes begin, Bytes end, int* errors,
                                           StatusCode want = StatusCode::kUnavailable) {
  BatchScheduler::ReadRequest req;
  req.span_begin = begin;
  req.span_end = end;
  req.first_block = begin / kBlockSize;
  req.last_block = (end - 1) / kBlockSize;
  req.rows = 1;
  req.per_row_bus = kBlockSize;
  req.cb = [errors, want](Status s, const uint8_t* data, Bytes /*base*/) {
    EXPECT_EQ(s.code(), want) << s.ToString();
    EXPECT_EQ(data, nullptr);
    ++*errors;
  };
  return req;
}

TEST(BatchScheduler, FailedReadDeliversErrorToEveryWaiterExactlyOnce) {
  // Three requests share one device read; the read fails; each subscriber
  // — owner and both single-flight joiners — hears the error exactly once.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = Micros(5);
  DeviceSpec faulty = MakeOptaneSsdSpec();
  faulty.read_error_probability = 1.0;
  SchedulerRig rig(cfg, faulty);
  int errors = 0;
  EXPECT_EQ(rig.sched->Enqueue(FailingRequest(100, 200, &errors)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig.sched->Enqueue(FailingRequest(300, 400, &errors)),
            BatchScheduler::Admission::kJoinedPending);
  EXPECT_EQ(rig.sched->Enqueue(FailingRequest(500, 600, &errors)),
            BatchScheduler::Admission::kJoinedPending);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(errors, 3);
  // One shared device read failed; the fan-out happened at the scheduler.
  EXPECT_EQ(rig.device->stats().CounterValue("read_errors"), 1u);
}

TEST(BatchScheduler, DeadlineSettlesEverySubscriberExactlyOnce) {
  // io_deadline far below the device's 10us service: both subscribers get
  // kDeadlineExceeded once, and the late genuine completion is dropped
  // instead of delivering a second time.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  cfg.io_deadline = Micros(1);
  SchedulerRig rig(cfg);
  int expired = 0;
  EXPECT_EQ(rig.sched->Enqueue(
                FailingRequest(100, 200, &expired, StatusCode::kDeadlineExceeded)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig.sched->Enqueue(
                FailingRequest(300, 400, &expired, StatusCode::kDeadlineExceeded)),
            BatchScheduler::Admission::kJoinedPending);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(expired, 2);
  EXPECT_EQ(rig.sched->stats().CounterValue("deadline_expired"), 1u);
  EXPECT_EQ(rig.DeviceReads(), 1u);  // the device still completed its read
}

TEST(BatchScheduler, HedgeRescuesAFailSlowRead) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  cfg.hedge_latency_factor = 2.0;  // hedge at 2x observed p99 (~20us)
  cfg.hedge_min_samples = 4;
  SchedulerRig rig(cfg);

  // Prime the demand-latency histogram with healthy reads (~10us each).
  int ok = 0;
  for (int i = 0; i < 6; ++i) {
    const Bytes begin = static_cast<Bytes>(i) * kBlockSize + 100;
    (void)rig.sched->Enqueue(rig.Request(begin, begin + 100, &ok));
    rig.loop.RunUntilIdle();
  }
  ASSERT_EQ(ok, 6);

  // One fail-slow window covering only the next submission instant: the
  // original read runs 500x slow; the hedge (issued ~p99 later, after the
  // window closed) completes at healthy speed and wins.
  FaultPlan plan;
  plan.FailSlow(rig.loop.Now(), rig.loop.Now() + Micros(1), /*multiplier=*/500.0);
  FaultInjector injector(plan, &rig.loop, /*seed=*/99);
  rig.device->set_fault_injector(&injector, 0);

  const SimTime t0 = rig.loop.Now();
  SimTime settled;
  int done = 0;
  BatchScheduler::ReadRequest req;
  req.span_begin = 10 * kBlockSize + 100;
  req.span_end = 10 * kBlockSize + 200;
  req.first_block = 10;
  req.last_block = 10;
  req.rows = 1;
  req.per_row_bus = kBlockSize;
  req.cb = [&](Status s, const uint8_t* data, Bytes base) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_NE(data, nullptr);
    const Bytes o = 10 * kBlockSize + 100;
    EXPECT_EQ(data[o - base], static_cast<uint8_t>((o * 7 + 3) & 0xFF));
    settled = rig.loop.Now();
    ++done;
  };
  EXPECT_EQ(rig.sched->Enqueue(std::move(req)), BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(done, 1);  // hedge win settles once; the slow original is dropped
  EXPECT_EQ(rig.sched->stats().CounterValue("hedges_issued"), 1u);
  EXPECT_EQ(rig.sched->stats().CounterValue("hedges_won"), 1u);
  // The hedge settled the read far sooner than the 500x original (~5ms).
  EXPECT_LT((settled - t0).nanos(), Millis(1).nanos());
  EXPECT_EQ(rig.DeviceReads(), 8u);  // 6 primes + original + hedge
}

TEST(BatchScheduler, HedgeRaceContributesExactlyOneLatencySample) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  cfg.hedge_latency_factor = 2.0;
  cfg.hedge_min_samples = 4;
  SchedulerRig rig(cfg);

  int ok = 0;
  for (int i = 0; i < 6; ++i) {
    const Bytes begin = static_cast<Bytes>(i) * kBlockSize + 100;
    (void)rig.sched->Enqueue(rig.Request(begin, begin + 100, &ok));
    rig.loop.RunUntilIdle();
  }
  ASSERT_EQ(ok, 6);
  ASSERT_EQ(rig.sched->demand_latency_samples(), 6u);

  FaultPlan plan;
  plan.FailSlow(rig.loop.Now(), rig.loop.Now() + Micros(1), /*multiplier=*/500.0);
  FaultInjector injector(plan, &rig.loop, /*seed=*/99);
  rig.device->set_fault_injector(&injector, 0);

  (void)rig.sched->Enqueue(rig.Request(10 * kBlockSize + 100, 10 * kBlockSize + 200, &ok));
  rig.loop.RunUntilIdle();
  ASSERT_EQ(ok, 7);
  ASSERT_EQ(rig.sched->stats().CounterValue("hedges_won"), 1u);
  // One logical read, two device attempts: the race lands exactly ONE
  // latency sample (the winner's). Double-sampling would drag the hedge
  // timer's own p99 estimate toward the duplicates it creates.
  EXPECT_EQ(rig.sched->demand_latency_samples(), 7u);
}

TEST(BatchScheduler, ReplicaHedgeWinsWithoutPollutingLatencyStats) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  cfg.hedge_latency_factor = 2.0;
  cfg.hedge_min_samples = 4;
  SchedulerRig rig(cfg);

  // A replica device holding byte-identical content at shift 0.
  NvmeDevice replica(MakeOptaneSsdSpec(), 64 * kKiB, &rig.loop, 2);
  std::vector<uint8_t> image(64 * kKiB);
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<uint8_t>((i * 7 + 3) & 0xFF);
  }
  ASSERT_TRUE(replica.Write(0, image).ok());
  IoEngine replica_engine(&replica, &rig.loop, IoEngineConfig{});
  rig.sched->set_replica_peer([&](Bytes, Bytes) {
    return std::optional<BatchScheduler::ReplicaPeer>(
        BatchScheduler::ReplicaPeer{&replica_engine, 0});
  });

  int ok = 0;
  for (int i = 0; i < 6; ++i) {
    const Bytes begin = static_cast<Bytes>(i) * kBlockSize + 100;
    (void)rig.sched->Enqueue(rig.Request(begin, begin + 100, &ok));
    rig.loop.RunUntilIdle();
  }
  ASSERT_EQ(ok, 6);

  // The primary stays 500x slow for the whole race; the hedge goes to the
  // healthy replica and wins.
  FaultPlan plan;
  plan.FailSlow(rig.loop.Now(), rig.loop.Now() + Millis(100), /*multiplier=*/500.0);
  FaultInjector injector(plan, &rig.loop, /*seed=*/7);
  rig.device->set_fault_injector(&injector, 0);

  (void)rig.sched->Enqueue(rig.Request(10 * kBlockSize + 100, 10 * kBlockSize + 200, &ok));
  rig.loop.RunUntilIdle();
  ASSERT_EQ(ok, 7);
  EXPECT_EQ(rig.sched->stats().CounterValue("replica_hedges"), 1u);
  EXPECT_EQ(rig.sched->stats().CounterValue("replica_hedge_wins"), 1u);
  EXPECT_EQ(rig.sched->stats().CounterValue("hedges_won"), 1u);
  EXPECT_EQ(replica.stats().CounterValue("reads"), 1u);
  // A replica-served win records NO sample: its latency describes the
  // replica, and feeding it back would disarm THIS device's hedge timer.
  EXPECT_EQ(rig.sched->demand_latency_samples(), 6u);
}

TEST(BatchScheduler, ExpiredReadIsNeverJoined) {
  // The deadline settles the read while it is still at the device; a run
  // for the same span must then issue a read of its own rather than
  // subscribe to one whose subscribers were already served.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  cfg.io_deadline = Micros(1);
  SchedulerRig rig(cfg);
  int expired = 0;
  EXPECT_EQ(rig.sched->Enqueue(
                FailingRequest(100, 200, &expired, StatusCode::kDeadlineExceeded)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntil(rig.loop.Now() + Micros(3));
  ASSERT_EQ(expired, 1);
  EXPECT_EQ(rig.sched->in_flight_reads(), 0u);
  EXPECT_EQ(rig.sched->Enqueue(
                FailingRequest(100, 200, &expired, StatusCode::kDeadlineExceeded)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(expired, 2);
  EXPECT_EQ(rig.DeviceReads(), 2u);
  EXPECT_EQ(rig.sched->stats().CounterValue("singleflight_hits"), 0u);
  EXPECT_EQ(rig.sched->in_flight_reads(), 0u);
}

TEST(BatchScheduler, HedgeSettledReadIsNeverJoined) {
  // A hedge wins while the 500x-slow original is still at the device. The
  // original no longer counts as in flight, so a run for the same span
  // issues one new device read instead of joining it.
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = SimDuration(0);
  cfg.hedge_latency_factor = 2.0;
  cfg.hedge_min_samples = 4;
  SchedulerRig rig(cfg);
  int ok = 0;
  for (int i = 0; i < 6; ++i) {
    const Bytes begin = static_cast<Bytes>(i) * kBlockSize + 100;
    (void)rig.sched->Enqueue(rig.Request(begin, begin + 100, &ok));
    rig.loop.RunUntilIdle();
  }
  ASSERT_EQ(ok, 6);

  FaultPlan plan;
  plan.FailSlow(rig.loop.Now(), rig.loop.Now() + Micros(1), /*multiplier=*/500.0);
  FaultInjector injector(plan, &rig.loop, /*seed=*/99);
  rig.device->set_fault_injector(&injector, 0);

  const Bytes begin = 10 * kBlockSize + 100;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(begin, begin + 100, &ok)),
            BatchScheduler::Admission::kNewRead);
  // The hedge settles well inside 1 ms; the original needs ~5 ms.
  rig.loop.RunUntil(rig.loop.Now() + Millis(1));
  ASSERT_EQ(ok, 7);
  ASSERT_EQ(rig.sched->stats().CounterValue("hedges_won"), 1u);
  EXPECT_EQ(rig.sched->in_flight_reads(), 0u);

  EXPECT_EQ(rig.sched->Enqueue(rig.Request(begin, begin + 100, &ok)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(rig.DeviceReads(), 9u);  // 6 primes + original + hedge + new read
  EXPECT_EQ(rig.sched->stats().CounterValue("singleflight_hits"), 0u);
  EXPECT_EQ(rig.sched->in_flight_reads(), 0u);
}

// ---------------------------------------------------------------------------
// InFlightIndex: differential check against a brute-force reference.
// ---------------------------------------------------------------------------

struct IndexedRead {
  Bytes base = 0;
  Bytes end = 0;
  bool sub_block = false;
};

/// The linear scan the index replaces: first live read in issue order whose
/// window covers [begin, end) in the same mode.
const IndexedRead* FirstCoveringScan(
    const std::vector<std::shared_ptr<IndexedRead>>& live, Bytes begin, Bytes end,
    bool sub_block) {
  for (const auto& r : live) {
    if (r->sub_block == sub_block && begin >= r->base && end <= r->end) return r.get();
  }
  return nullptr;
}

TEST(InFlightIndex, MatchesAFirstMatchScanInIssueOrder) {
  constexpr uint64_t kSpaceBlocks = 64;  // small, so windows overlap heavily
  constexpr size_t kMaxLive = 128;
  constexpr int kSteps = 100'000;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    InFlightIndex<IndexedRead> index;
    std::vector<std::shared_ptr<IndexedRead>> live;  // issue order
    uint64_t shadowed = 0;
    for (int step = 0; step < kSteps; ++step) {
      if (live.empty() || (live.size() < kMaxLive && rng.NextBounded(2) == 0)) {
        // Block windows: block base, 1-16 whole blocks. Sub-block windows:
        // DWORD base and size, up to 16 blocks.
        auto r = std::make_shared<IndexedRead>();
        r->sub_block = rng.NextBounded(2) == 1;
        if (r->sub_block) {
          const Bytes dwords = kSpaceBlocks * kBlockSize / kDwordBytes;
          r->base = rng.NextBounded(dwords) * kDwordBytes;
          const Bytes max_dwords =
              rng.NextBounded(2) == 0 ? 64 : 16 * kBlockSize / kDwordBytes;
          r->end = r->base + (1 + rng.NextBounded(max_dwords)) * kDwordBytes;
        } else {
          r->base = rng.NextBounded(kSpaceBlocks) * kBlockSize;
          r->end = r->base + (1 + rng.NextBounded(16)) * kBlockSize;
        }
        index.Insert(r, r->base, r->end, r->sub_block);
        live.push_back(std::move(r));
      } else {
        const size_t victim = rng.NextBounded(live.size());
        index.Erase(live[victim].get(), live[victim]->base, live[victim]->end);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      ASSERT_EQ(index.size(), live.size());

      // One span anywhere (mostly misses) and one inside a live window
      // (a guaranteed candidate, often covered by several reads).
      const bool sub_block = rng.NextBounded(2) == 1;
      const Bytes begin = rng.NextBounded((kSpaceBlocks + 16) * kBlockSize);
      const Bytes end = begin + 1 + rng.NextBounded(2 * kBlockSize);
      ASSERT_EQ(index.FindCovering(begin, end, sub_block),
                FirstCoveringScan(live, begin, end, sub_block))
          << "seed " << seed << " step " << step;
      if (!live.empty()) {
        const IndexedRead& w = *live[rng.NextBounded(live.size())];
        const Bytes in_begin = w.base + rng.NextBounded(w.end - w.base);
        const Bytes in_end = in_begin + 1 + rng.NextBounded(w.end - in_begin);
        const IndexedRead* want = FirstCoveringScan(live, in_begin, in_end, w.sub_block);
        ASSERT_EQ(index.FindCovering(in_begin, in_end, w.sub_block), want)
            << "seed " << seed << " step " << step;
        shadowed += want != &w ? 1 : 0;
      }
    }
    // Issue order must actually decide: often an earlier-issued read also
    // covers the span drawn from a later one.
    EXPECT_GT(shadowed, static_cast<uint64_t>(kSteps) / 20) << "seed " << seed;
  }
}

/// One shape of index workload: where windows start and how many reads
/// stay live.
struct IndexShape {
  const char* name;
  uint64_t space_blocks;  ///< windows start in blocks [0, space_blocks)
  size_t max_live;
  int steps;
  /// Steps per phase; phases alternate between filling and draining.
  int phase_steps;
  /// Windows start only on blocks whose probes all begin at one slot of a
  /// 4096-slot table (and so of every smaller one).
  bool colliding;
  /// Per seed, how many spans drawn from a live window an earlier-issued
  /// read must answer: half the lowest count measured on seeds 1-3.
  uint64_t min_shadowed;
};

/// Up to `n` blocks below 2^24 whose BlockTable probes start at the same
/// slot in a table of `capacity` slots.
std::vector<uint64_t> CollidingBlocks(size_t n, size_t capacity) {
  std::vector<uint64_t> blocks;
  const size_t home = BlockTable<int>::HomeSlot(0, capacity);
  for (uint64_t b = 0; blocks.size() < n && b < (1u << 24); ++b) {
    if (BlockTable<int>::HomeSlot(b, capacity) == home) blocks.push_back(b);
  }
  return blocks;
}

TEST(InFlightIndex, MatchesAFirstMatchScanUnderChurnGrowthAndCollisions) {
  // Every shape alternates filling phases (70% inserts) with erase-heavy
  // ones (10%). Dense churn: the small space of the test above, so windows
  // overlap heavily. Growth: enough live 16-block windows that the block
  // table doubles many times. Colliding: every window starts on a block of
  // one probe cluster, so erases shift slots backward through long
  // clusters. Measured shadowed counts, seeds
  // 1-3: dense churn 35,623 / 35,042 / 35,869; growth 2,521 / 2,516 / 2,578;
  // colliding 4,378 / 4,241 / 4,220.
  const IndexShape kShapes[] = {{"dense churn", 64, 128, 100'000, 1000, false, 17'500},
                                {"growth", 4096, 1024, 24'000, 4000, false, 1'250},
                                {"colliding", 0, 128, 50'000, 1000, true, 2'100}};
  const std::vector<uint64_t> colliding = CollidingBlocks(64, 4096);
  ASSERT_EQ(colliding.size(), 64u);
  for (const IndexShape& shape : kShapes) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << shape.name << " seed " << seed);
      Rng rng(seed);
      InFlightIndex<IndexedRead> index;
      std::vector<std::shared_ptr<IndexedRead>> live;  // issue order
      auto start_block = [&] {
        return shape.colliding ? colliding[rng.NextBounded(colliding.size())]
                               : rng.NextBounded(shape.space_blocks);
      };
      uint64_t shadowed = 0;
      size_t peak = 0;
      int drained = 0;
      for (int step = 0; step < shape.steps; ++step) {
        // Alternate phases: filling (70% inserts) and erase-heavy churn (10%
        // inserts), which empties the index again and again.
        const uint64_t insert_pct = (step / shape.phase_steps) % 2 == 0 ? 70 : 10;
        if (live.empty() ||
            (live.size() < shape.max_live && rng.NextBounded(100) < insert_pct)) {
          // Block windows: block base, 1-16 whole blocks (often exactly 16).
          // Sub-block windows: DWORD base and size, up to 16 blocks.
          auto r = std::make_shared<IndexedRead>();
          r->sub_block = rng.NextBounded(2) == 1;
          const uint64_t blocks =
              rng.NextBounded(4) == 0 ? 16 : 1 + rng.NextBounded(16);
          if (r->sub_block) {
            r->base = start_block() * kBlockSize +
                      rng.NextBounded(kBlockSize / kDwordBytes) * kDwordBytes;
            const Bytes max_dwords =
                rng.NextBounded(2) == 0 ? 64 : blocks * kBlockSize / kDwordBytes;
            r->end = r->base + (1 + rng.NextBounded(max_dwords)) * kDwordBytes;
          } else {
            r->base = start_block() * kBlockSize;
            r->end = r->base + blocks * kBlockSize;
          }
          index.Insert(r, r->base, r->end, r->sub_block);
          live.push_back(std::move(r));
        } else {
          const size_t victim = rng.NextBounded(live.size());
          index.Erase(live[victim].get(), live[victim]->base, live[victim]->end);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
          drained += live.empty() ? 1 : 0;
        }
        ASSERT_EQ(index.size(), live.size()) << "step " << step;
        peak = std::max(peak, live.size());

        // One span anywhere near the windows (mostly misses) and one inside
        // a live window (a guaranteed candidate, often covered by several
        // reads).
        const bool sub_block = rng.NextBounded(2) == 1;
        const Bytes begin = start_block() * kBlockSize + rng.NextBounded(17 * kBlockSize);
        const Bytes end = begin + 1 + rng.NextBounded(2 * kBlockSize);
        ASSERT_EQ(index.FindCovering(begin, end, sub_block),
                  FirstCoveringScan(live, begin, end, sub_block))
            << "step " << step;
        if (!live.empty()) {
          const IndexedRead& w = *live[rng.NextBounded(live.size())];
          const Bytes in_begin = w.base + rng.NextBounded(w.end - w.base);
          const Bytes in_end = in_begin + 1 + rng.NextBounded(w.end - in_begin);
          const IndexedRead* want = FirstCoveringScan(live, in_begin, in_end, w.sub_block);
          ASSERT_EQ(index.FindCovering(in_begin, in_end, w.sub_block), want)
              << "step " << step;
          shadowed += want != &w ? 1 : 0;
        }
      }
      // The churn phases really emptied the index, and the growth shape
      // really filled it.
      EXPECT_GT(drained, 2);
      EXPECT_GE(peak, shape.max_live / 2);
      // Issue order must actually decide: often an earlier-issued read also
      // covers the span drawn from a later one.
      EXPECT_GE(shadowed, shape.min_shadowed);
    }
  }
}

// ---------------------------------------------------------------------------
// LookupEngine integration.
// ---------------------------------------------------------------------------

TuningConfig SchedTuning(IoBatching mode, SimDuration delay = SimDuration(0)) {
  TuningConfig t;
  t.enable_row_cache = false;  // expose the IO path on every lookup
  t.io_batching = mode;
  t.max_batch_delay = delay;
  return t;
}

struct LoadedStore {
  EventLoop loop;
  std::unique_ptr<SdmStore> store;
  ModelConfig model;
};

std::unique_ptr<LoadedStore> MakeStore(TuningConfig tuning) {
  auto ls = std::make_unique<LoadedStore>();
  ls->model = MakeTinyUniformModel(16, 3, 1, 2000);
  SdmStoreConfig cfg;
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_specs = {MakeOptaneSsdSpec()};
  cfg.sm_backing_bytes = {16 * kMiB};
  cfg.tuning = std::move(tuning);
  ls->store = std::make_unique<SdmStore>(cfg, &ls->loop);
  EXPECT_TRUE(ModelLoader::Load(ls->model, {}, ls->store.get()).ok());
  return ls;
}

/// Submits every bag at the same virtual instant and drains the loop;
/// returns (pooled, trace) per bag, in submission order.
std::vector<std::pair<std::vector<float>, LookupTrace>> RunConcurrent(
    LoadedStore& ls, LookupEngine& engine, const std::vector<std::vector<RowIndex>>& bags) {
  std::vector<std::pair<std::vector<float>, LookupTrace>> out(bags.size());
  int done = 0;
  for (size_t i = 0; i < bags.size(); ++i) {
    LookupRequest req;
    req.table = MakeTableId(0);
    req.indices = bags[i];
    engine.Lookup(std::move(req),
                  [&, i](Status s, std::vector<float> pooled, const LookupTrace& t) {
                    EXPECT_TRUE(s.ok()) << s.ToString();
                    out[i] = {std::move(pooled), t};
                    ++done;
                  });
  }
  ls.loop.RunUntilIdle();
  EXPECT_EQ(done, static_cast<int>(bags.size()));
  return out;
}

uint64_t DeviceReads(LoadedStore& ls) {
  return ls.store->sm_device(0).stats().CounterValue("reads");
}

TEST(SchedLookup, ConcurrentIdenticalBagsSingleFlightToOneRead) {
  auto ls = MakeStore(SchedTuning(IoBatching::kCrossRequest, Micros(10)));
  LookupEngine engine(ls->store.get());
  // Four concurrent queries missing the same same-block rows: one device
  // read serves all four.
  const std::vector<std::vector<RowIndex>> bags(4, {10, 15, 20});
  const auto results = RunConcurrent(*ls, engine, bags);
  EXPECT_EQ(DeviceReads(*ls), 1u);
  EXPECT_EQ(engine.stats().CounterValue("singleflight_hits"), 3u);
  EXPECT_EQ(ls->store->scheduler(0).stats().CounterValue("singleflight_hits"), 3u);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].first, results[0].first);  // identical pooled bytes
  }
  EXPECT_EQ(results[0].second.device_reads, 1u);
  EXPECT_EQ(results[1].second.singleflight_hits, 1u);
}

TEST(SchedLookup, BypassModeIssuesPerRequestReads) {
  auto ls = MakeStore(SchedTuning(IoBatching::kPerRequest));
  LookupEngine engine(ls->store.get());
  const std::vector<std::vector<RowIndex>> bags(4, {10, 15, 20});
  (void)RunConcurrent(*ls, engine, bags);
  EXPECT_EQ(DeviceReads(*ls), 4u);
  EXPECT_EQ(engine.stats().CounterValue("singleflight_hits"), 0u);
  // Nothing is shared, but the scheduler's delay-0 flush timer still rings
  // one doorbell for every run submitted at the same virtual instant.
  EXPECT_EQ(ls->store->scheduler(0).stats().CounterValue("flushes"), 1u);
}

TEST(SchedLookup, InterleavedCompletionJoinsInFlightRead) {
  // B arrives while A's read is on the wire (Optane ~10us): B must join the
  // in-flight read, and both must scatter correct bytes.
  auto ls = MakeStore(SchedTuning(IoBatching::kCrossRequest));
  LookupEngine engine(ls->store.get());
  std::vector<float> pooled_a, pooled_b;
  LookupTrace trace_b;
  int done = 0;
  LookupRequest a;
  a.table = MakeTableId(0);
  a.indices = {10, 20};
  engine.Lookup(std::move(a), [&](Status s, std::vector<float> out, const LookupTrace&) {
    EXPECT_TRUE(s.ok());
    pooled_a = std::move(out);
    ++done;
  });
  ls->loop.ScheduleAfter(Micros(3), [&] {
    LookupRequest b;
    b.table = MakeTableId(0);
    b.indices = {12};  // inside A's span
    engine.Lookup(std::move(b),
                  [&](Status s, std::vector<float> out, const LookupTrace& t) {
                    EXPECT_TRUE(s.ok());
                    pooled_b = std::move(out);
                    trace_b = t;
                    ++done;
                  });
  });
  ls->loop.RunUntilIdle();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(DeviceReads(*ls), 1u);
  EXPECT_EQ(trace_b.singleflight_hits, 1u);
  EXPECT_EQ(trace_b.device_reads, 0u);

  // B's pooled vector must match a fresh isolated read of row 12.
  auto ref = MakeStore(SchedTuning(IoBatching::kPerRequest));
  LookupEngine ref_engine(ref->store.get());
  const auto ref_out = RunConcurrent(*ref, ref_engine, {{12}});
  EXPECT_EQ(pooled_b, ref_out[0].first);
}

/// Rows of table 0 whose bytes straddle a 4KB block boundary.
std::vector<RowIndex> BoundarySpanningRows(const LoadedStore& ls) {
  const TableRuntime& rt = ls.store->table(MakeTableId(0));
  const Bytes rb = rt.config.row_bytes();
  std::vector<RowIndex> rows;
  for (RowIndex r = 0; r < rt.config.num_rows; ++r) {
    const Bytes off = rt.offset + r * rb;
    if (off / kBlockSize != (off + rb - 1) / kBlockSize) rows.push_back(r);
  }
  return rows;
}

TEST(SchedLookup, StraddlingRowJoinsInFlightRead) {
  // A reads a row straddling a block boundary; B asks for the same row
  // while A's two-block read is on the wire and must ride it.
  auto ls = MakeStore(SchedTuning(IoBatching::kCrossRequest));
  LookupEngine engine(ls->store.get());
  const std::vector<RowIndex> spanning = BoundarySpanningRows(*ls);
  ASSERT_FALSE(spanning.empty());
  const RowIndex row = spanning.front();
  std::vector<float> pooled_b;
  LookupTrace trace_a, trace_b;
  int done = 0;
  LookupRequest a;
  a.table = MakeTableId(0);
  a.indices = {row};
  engine.Lookup(std::move(a), [&](Status s, std::vector<float>, const LookupTrace& t) {
    EXPECT_TRUE(s.ok());
    trace_a = t;
    ++done;
  });
  ls->loop.ScheduleAfter(Micros(3), [&] {
    LookupRequest b;
    b.table = MakeTableId(0);
    b.indices = {row};
    engine.Lookup(std::move(b),
                  [&](Status s, std::vector<float> out, const LookupTrace& t) {
                    EXPECT_TRUE(s.ok());
                    pooled_b = std::move(out);
                    trace_b = t;
                    ++done;
                  });
  });
  ls->loop.RunUntilIdle();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(DeviceReads(*ls), 1u);
  EXPECT_EQ(trace_a.device_reads, 1u);
  EXPECT_EQ(trace_b.singleflight_hits, 1u);
  EXPECT_EQ(trace_b.device_reads, 0u);
  EXPECT_EQ(ls->store->scheduler(0).stats().CounterValue("singleflight_hits"), 1u);

  auto ref = MakeStore(SchedTuning(IoBatching::kPerRow));
  LookupEngine ref_engine(ref->store.get());
  EXPECT_EQ(pooled_b, RunConcurrent(*ref, ref_engine, {{row}})[0].first);
}

TEST(SchedLookup, DeadlineBoundsLatencyOfALoneLookup) {
  auto ls = MakeStore(SchedTuning(IoBatching::kCrossRequest, Micros(100)));
  LookupEngine engine(ls->store.get());
  const auto results = RunConcurrent(*ls, engine, {{10, 15, 20}});
  // The lone run waited out the batch window, then completed — no deadlock,
  // and the wait is visible in the request latency.
  EXPECT_GE(results[0].second.latency, Micros(100));
  EXPECT_LT(results[0].second.latency, Millis(1));
  EXPECT_EQ(ls->store->scheduler(0).stats().CounterValue("flush_deadline"), 1u);
}

TEST(SchedLookup, PropertyAllIoPathsProduceIdenticalBytes) {
  // Property: for random bags replayed on identical stores, the three
  // io_batching modes must produce bit-identical pooled vectors (scattered
  // rows are byte-identical, and pooling order is slot order in every
  // mode). Bags mix a hot range (cross-request sharing), uniform cold rows
  // and rows straddling a block boundary (two-block runs).
  auto ls_row = MakeStore(SchedTuning(IoBatching::kPerRow));
  auto ls_req = MakeStore(SchedTuning(IoBatching::kPerRequest));
  auto ls_x = MakeStore(SchedTuning(IoBatching::kCrossRequest, Micros(20)));
  LookupEngine e_row(ls_row->store.get());
  LookupEngine e_req(ls_req->store.get());
  LookupEngine e_x(ls_x->store.get());
  const std::vector<RowIndex> spanning = BoundarySpanningRows(*ls_x);
  ASSERT_FALSE(spanning.empty());

  Rng rng(0x5eed);
  const uint64_t rows = ls_x->model.tables[0].num_rows;
  for (int wave = 0; wave < 40; ++wave) {
    std::vector<std::vector<RowIndex>> bags(4);
    for (auto& bag : bags) {
      const size_t len = 1 + rng.NextBounded(12);
      for (size_t k = 0; k < len; ++k) {
        switch (rng.NextBounded(4)) {
          case 0:
          case 1: bag.push_back(rng.NextBounded(64)); break;
          case 2: bag.push_back(rng.NextBounded(rows)); break;
          default: bag.push_back(spanning[rng.NextBounded(spanning.size())]); break;
        }
      }
    }
    const auto r_row = RunConcurrent(*ls_row, e_row, bags);
    const auto r_req = RunConcurrent(*ls_req, e_req, bags);
    const auto r_x = RunConcurrent(*ls_x, e_x, bags);
    for (size_t i = 0; i < bags.size(); ++i) {
      ASSERT_EQ(r_req[i].first, r_row[i].first) << "wave " << wave << " bag " << i;
      ASSERT_EQ(r_x[i].first, r_row[i].first) << "wave " << wave << " bag " << i;
    }
  }
  // The cross-request store must actually have exercised sharing, and each
  // mode must read no more than the one below it.
  EXPECT_GT(ls_x->store->scheduler(0).stats().CounterValue("singleflight_hits"), 0u);
  EXPECT_EQ(ls_req->store->scheduler(0).stats().CounterValue("singleflight_hits"), 0u);
  EXPECT_LE(DeviceReads(*ls_x), DeviceReads(*ls_req));
  EXPECT_LT(DeviceReads(*ls_req), DeviceReads(*ls_row));
}

}  // namespace
}  // namespace sdm
