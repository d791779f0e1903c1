// Tests for the src/prefetch subsystem and the BatchScheduler's
// low-priority prefetch lane: predictor behavior on synthetic streams,
// lane admission/drop/promotion semantics, bypass-mode parity (the PR 1
// ablation must stay byte-identical), end-to-end byte-identity with
// prefetch on/off, and BufferArena behavior under the enlarged in-flight
// set speculation creates.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "core/sdm_store.h"
#include "dlrm/model_zoo.h"
#include "io/buffer_arena.h"
#include "prefetch/prefetch_predictor.h"
#include "prefetch/prefetcher.h"
#include "sched/batch_scheduler.h"
#include "serving/cluster.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// Predictors: pure unit tests, no devices.
// ---------------------------------------------------------------------------

PredictorGeometry Geometry(Bytes row_bytes = 64, uint64_t num_rows = 4096,
                           Bytes table_offset = 0) {
  PredictorGeometry g;
  g.table_offset = table_offset;
  g.row_bytes = row_bytes;
  g.num_rows = num_rows;
  return g;
}

TEST(HotSetPredictor, LearnsTopRowsOfAZipfStream) {
  HotSetPredictor pred(Geometry());
  Rng rng(7);
  ZipfSampler zipf(4096, 1.0);
  for (int i = 0; i < 20000; ++i) {
    pred.RecordAccess(zipf.Sample(rng));  // rank == row (no permutation)
  }
  const auto top = pred.Predict(8);
  ASSERT_EQ(top.size(), 8u);
  // The hottest Zipf ranks must dominate the prediction; allow the tail of
  // the top-8 some slack, but rank 0 must be the leading candidate.
  EXPECT_EQ(top[0].row, 0u);
  std::set<RowIndex> predicted;
  for (const auto& c : top) {
    predicted.insert(c.row);
    EXPECT_GT(c.confidence, 0.0);
    EXPECT_LE(c.confidence, 1.0);
  }
  int in_top16 = 0;
  for (const auto& c : top) in_top16 += c.row < 16 ? 1 : 0;
  EXPECT_GE(in_top16, 6);
  // Confidence ordering: best first.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].confidence, top[i].confidence);
  }
}

TEST(HotSetPredictor, DecayTracksWorkloadDrift) {
  HotSetPredictor pred(Geometry());
  // Phase 1: rows 0..3 hot. Phase 2 (4x the traffic + decay): rows 100..103.
  for (int i = 0; i < 4000; ++i) pred.RecordAccess(i % 4);
  for (int i = 0; i < 16000; ++i) pred.RecordAccess(100 + (i % 4));
  const auto top = pred.Predict(4);
  ASSERT_EQ(top.size(), 4u);
  for (const auto& c : top) {
    EXPECT_GE(c.row, 100u);
    EXPECT_LE(c.row, 103u);
  }
}

TEST(HotSetPredictor, BoundsTrackedRows) {
  HotSetPredictor pred(Geometry(64, 1 << 22));
  Rng rng(9);
  for (int i = 0; i < 300000; ++i) {
    pred.RecordAccess(rng.NextBounded(1 << 22));  // uniform: no locality
  }
  EXPECT_LE(pred.tracked_rows(), size_t{1} << 16);
}

TEST(NextBlockPredictor, SequentialMissesPredictNextBlocks) {
  // 64 rows of 64B per 4KB block; misses walking blocks 0,1,2 predict 3+.
  NextBlockPredictor pred(Geometry(64, 4096));
  pred.RecordMiss(0);       // block 0
  pred.RecordMiss(64);      // block 1
  pred.RecordMiss(128);     // block 2
  const auto out = pred.Predict(64);
  ASSERT_FALSE(out.empty());
  for (const auto& c : out) {
    EXPECT_GE(c.row, 192u);  // first row of block 3
    EXPECT_DOUBLE_EQ(c.confidence, 1.0);  // every delta agreed
  }
  EXPECT_EQ(out[0].row, 192u);
}

TEST(NextBlockPredictor, DetectsStrideAndStopsAtTableEnd) {
  NextBlockPredictor pred(Geometry(64, 256));  // 4 blocks total
  pred.RecordMiss(0);    // block 0
  pred.RecordMiss(128);  // block 2: stride +2
  const auto out = pred.Predict(64);
  // Predicted block 4 is past the table: nothing to fetch.
  EXPECT_TRUE(out.empty());

  NextBlockPredictor pred2(Geometry(64, 4096));
  pred2.RecordMiss(0);
  pred2.RecordMiss(128);
  pred2.RecordMiss(256);  // blocks 0,2,4
  const auto out2 = pred2.Predict(4);
  ASSERT_EQ(out2.size(), 4u);
  EXPECT_EQ(out2[0].row, 384u);  // block 6 (stride +2 from block 4) starts at row 384
}

TEST(NextBlockPredictor, NoStrideNoPrediction) {
  NextBlockPredictor pred(Geometry());
  pred.RecordMiss(0);
  EXPECT_TRUE(pred.Predict(8).empty());  // one miss: no delta yet
}

// ---------------------------------------------------------------------------
// BatchScheduler prefetch lane, driven directly against a known device.
// ---------------------------------------------------------------------------

struct SchedulerRig {
  EventLoop loop;
  std::unique_ptr<NvmeDevice> device;
  std::unique_ptr<IoEngine> engine;
  BufferArena arena;
  std::unique_ptr<BatchScheduler> sched;

  explicit SchedulerRig(BatchSchedulerConfig cfg) {
    device = std::make_unique<NvmeDevice>(MakeOptaneSsdSpec(), 64 * kKiB, &loop, 1);
    std::vector<uint8_t> image(64 * kKiB);
    for (size_t i = 0; i < image.size(); ++i) {
      image[i] = static_cast<uint8_t>((i * 7 + 3) & 0xFF);
    }
    EXPECT_TRUE(device->Write(0, image).ok());
    engine = std::make_unique<IoEngine>(device.get(), &loop, IoEngineConfig{});
    sched = std::make_unique<BatchScheduler>(engine.get(), &arena, &loop, cfg);
  }

  BatchScheduler::ReadRequest Request(Bytes begin, Bytes end, int* ok,
                                      bool prefetch = false) {
    BatchScheduler::ReadRequest req;
    req.span_begin = begin;
    req.span_end = end;
    req.first_block = begin / kBlockSize;
    req.last_block = (end - 1) / kBlockSize;
    req.sub_block = false;
    req.kind = prefetch ? BatchScheduler::ReadRequest::Kind::kPrefetch
                        : BatchScheduler::ReadRequest::Kind::kDemand;
    req.rows = 1;
    req.per_row_bus = kBlockSize;
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
  [[nodiscard]] uint64_t Counter(const char* name) const {
    return sched->stats().CounterValue(name);
  }
};

BatchSchedulerConfig LaneConfig() {
  BatchSchedulerConfig cfg;
  cfg.cross_request = true;
  cfg.max_batch_delay = Micros(5);
  cfg.prefetch_flush_delay = Micros(20);
  return cfg;
}

TEST(PrefetchLane, PrefetchOnlyLaneDrainsOnItsOwnTimer) {
  SchedulerRig rig(LaneConfig());
  int ok = 0;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(100, 200, &ok, /*prefetch=*/true)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig.sched->pending_sqes(), 0u);  // not in the demand batch
  EXPECT_EQ(rig.sched->prefetch_pending_sqes(), 1u);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(rig.DeviceReads(), 1u);
  EXPECT_EQ(rig.Counter("flush_prefetch"), 1u);
  EXPECT_EQ(rig.Counter("flush_deadline"), 0u);
  EXPECT_EQ(rig.Counter("prefetch_reads"), 1u);
  EXPECT_EQ(rig.Counter("device_reads"), 0u);  // demand lane untouched
}

TEST(PrefetchLane, PrefetchRidesTheDemandDoorbell) {
  SchedulerRig rig(LaneConfig());
  int ok = 0;
  (void)rig.sched->Enqueue(rig.Request(100, 200, &ok, /*prefetch=*/true));
  // Demand in a far block: un-mergeable, so two SQEs — but ONE doorbell.
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(8 * kBlockSize + 10, 8 * kBlockSize + 90, &ok)),
            BatchScheduler::Admission::kNewRead);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rig.DeviceReads(), 2u);
  EXPECT_EQ(rig.Counter("flushes"), 1u);
  EXPECT_EQ(rig.Counter("flush_prefetch"), 0u);  // never needed its own bell
  EXPECT_EQ(rig.Counter("prefetch_reads"), 1u);
  EXPECT_EQ(rig.Counter("device_reads"), 1u);
}

TEST(PrefetchLane, PrefetchNeverTriggersTheSizeFlush) {
  BatchSchedulerConfig cfg = LaneConfig();
  cfg.max_batch_sqes = 2;
  SchedulerRig rig(cfg);
  int ok = 0;
  (void)rig.sched->Enqueue(rig.Request(100, 200, &ok, /*prefetch=*/true));
  (void)rig.sched->Enqueue(
      rig.Request(8 * kBlockSize + 10, 8 * kBlockSize + 90, &ok, /*prefetch=*/true));
  (void)rig.sched->Enqueue(
      rig.Request(12 * kBlockSize + 10, 12 * kBlockSize + 90, &ok, /*prefetch=*/true));
  // Three speculative SQEs sit in the lane; a demand batch of the same size
  // would have flushed at 2.
  EXPECT_EQ(rig.Counter("flush_size"), 0u);
  EXPECT_EQ(rig.sched->prefetch_pending_sqes(), 3u);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(rig.Counter("flush_size"), 0u);
  // The lane drains on its timer in doorbell-room-sized gulps (2, then 1).
  EXPECT_EQ(rig.Counter("flush_prefetch"), 2u);
}

TEST(PrefetchLane, DemandPromotesPendingPrefetch) {
  SchedulerRig rig(LaneConfig());
  int ok = 0;
  (void)rig.sched->Enqueue(rig.Request(100, 200, &ok, /*prefetch=*/true));
  // Demand in the same block: the speculative SQE upgrades to demand and
  // serves both subscribers with one read.
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(300, 400, &ok)),
            BatchScheduler::Admission::kJoinedPending);
  EXPECT_EQ(rig.sched->prefetch_pending_sqes(), 0u);
  EXPECT_EQ(rig.sched->pending_sqes(), 1u);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rig.DeviceReads(), 1u);
  EXPECT_EQ(rig.Counter("prefetch_promoted"), 1u);
  EXPECT_EQ(rig.Counter("singleflight_hits"), 1u);
  // Promoted = demand SQE: counted as a device read, not a prefetch read.
  EXPECT_EQ(rig.Counter("device_reads"), 1u);
  EXPECT_EQ(rig.Counter("prefetch_reads"), 0u);
}

TEST(PrefetchLane, DemandJoinsInFlightPrefetchRead) {
  BatchSchedulerConfig cfg = LaneConfig();
  cfg.prefetch_flush_delay = SimDuration(0);  // launch speculation instantly
  SchedulerRig rig(cfg);
  int ok = 0;
  (void)rig.sched->Enqueue(rig.Request(100, 200, &ok, /*prefetch=*/true));
  rig.loop.RunUntil(rig.loop.Now() + Micros(2));
  ASSERT_EQ(rig.sched->in_flight_reads(), 1u);
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(300, 400, &ok)),
            BatchScheduler::Admission::kJoinedInFlight);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rig.DeviceReads(), 1u);
  EXPECT_EQ(rig.Counter("prefetch_promoted"), 1u);
  EXPECT_EQ(rig.Counter("singleflight_hits"), 1u);
}

TEST(PrefetchLane, PrefetchJoinsPendingDemandWithoutGrowingIt) {
  SchedulerRig rig(LaneConfig());
  int ok = 0;
  (void)rig.sched->Enqueue(rig.Request(100, 200, &ok));
  // Covered by the demand block read: free ride.
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(300, 400, &ok, /*prefetch=*/true)),
            BatchScheduler::Admission::kJoinedPending);
  // Adjacent block: a demand run would merge, speculation must NOT grow a
  // demand SQE — it stays in the lane instead.
  EXPECT_EQ(rig.sched->Enqueue(
                rig.Request(kBlockSize + 10, kBlockSize + 90, &ok, /*prefetch=*/true)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig.sched->pending_sqes(), 1u);
  EXPECT_EQ(rig.sched->prefetch_pending_sqes(), 1u);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(rig.Counter("prefetch_singleflight"), 1u);
  EXPECT_EQ(rig.Counter("cross_request_merges"), 0u);
}

TEST(PrefetchLane, DropsUnderByteBudgetPressure) {
  BatchSchedulerConfig cfg = LaneConfig();
  cfg.prefetch_max_inflight_bytes = kBlockSize;  // room for one block read
  SchedulerRig rig(cfg);
  int ok = 0;
  EXPECT_EQ(rig.sched->Enqueue(rig.Request(100, 200, &ok, /*prefetch=*/true)),
            BatchScheduler::Admission::kNewRead);
  EXPECT_EQ(rig.sched->Enqueue(
                rig.Request(8 * kBlockSize + 10, 8 * kBlockSize + 90, &ok, /*prefetch=*/true)),
            BatchScheduler::Admission::kDropped);
  EXPECT_EQ(rig.Counter("prefetch_dropped"), 1u);
  EXPECT_EQ(rig.sched->prefetch_budget_used(), kBlockSize);
  rig.loop.RunUntilIdle();
  EXPECT_EQ(ok, 1);  // the dropped run's callback never fires
  EXPECT_EQ(rig.DeviceReads(), 1u);
  // Budget returns when the speculative read completes.
  EXPECT_EQ(rig.sched->prefetch_budget_used(), 0u);
}

TEST(PrefetchLane, BypassModeLaneIsInert) {
  BatchSchedulerConfig cfg;
  cfg.cross_request = false;
  SchedulerRig rig(cfg);
  int ok = 0;
  auto enqueue_prefetch = [&] {
    return rig.sched->Enqueue(rig.Request(100, 200, &ok, /*prefetch=*/true));
  };
  // Debug builds assert (the Prefetcher is never constructed in bypass
  // mode, so a prefetch enqueue is a wiring bug); release builds drop.
  EXPECT_DEBUG_DEATH(
      {
        const auto admission = enqueue_prefetch();
        // Only reached when NDEBUG: the lane must refuse the request.
        EXPECT_EQ(admission, BatchScheduler::Admission::kDropped);
        EXPECT_EQ(rig.sched->prefetch_pending_sqes(), 0u);
      },
      "lanes require cross_request");
}

// ---------------------------------------------------------------------------
// End-to-end: LookupEngine + Prefetcher on a loaded store.
// ---------------------------------------------------------------------------

struct LoadedStore {
  EventLoop loop;
  std::unique_ptr<SdmStore> store;
  ModelConfig model;
};

TuningConfig PrefetchTuning(bool enable, bool cross_request = true) {
  TuningConfig t;
  t.io_batching = cross_request ? IoBatching::kCrossRequest : IoBatching::kPerRequest;
  t.max_batch_delay = Micros(10);
  t.enable_prefetch = enable;
  t.prefetch_strategy = PrefetchStrategy::kHotSet;
  t.prefetch_depth = 16;
  t.prefetch_min_confidence = 0.0;
  // A small explicit row cache so evictions (and thus re-prefetch
  // opportunities) actually happen at test scale.
  t.row_cache.capacity = 64 * kKiB;
  return t;
}

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

std::vector<std::vector<float>> RunWaves(
    LoadedStore& ls, LookupEngine& engine,
    const std::vector<std::vector<std::vector<RowIndex>>>& waves) {
  std::vector<std::vector<float>> out;
  for (const auto& wave : waves) {
    const size_t base = out.size();
    out.resize(base + wave.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      LookupRequest req;
      req.table = MakeTableId(0);
      req.indices = wave[i];
      engine.Lookup(std::move(req),
                    [&out, base, i](Status s, std::vector<float> pooled,
                                    const LookupTrace&) {
                      ASSERT_TRUE(s.ok()) << s.ToString();
                      out[base + i] = std::move(pooled);
                    });
    }
    ls.loop.RunUntilIdle();
  }
  return out;
}

std::vector<std::vector<std::vector<RowIndex>>> ZipfWaves(int waves, int concurrency,
                                                          int bag_len, uint64_t rows,
                                                          uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(rows, 1.0);
  std::vector<std::vector<std::vector<RowIndex>>> out(waves);
  for (auto& wave : out) {
    wave.resize(concurrency);
    for (auto& bag : wave) {
      for (int k = 0; k < bag_len; ++k) bag.push_back(zipf.Sample(rng));
    }
  }
  return out;
}

TEST(PrefetchEndToEnd, ByteIdenticalResultsWithPrefetchOnAndOff) {
  auto ls_off = MakeStore(PrefetchTuning(/*enable=*/false));
  auto ls_on = MakeStore(PrefetchTuning(/*enable=*/true));
  EXPECT_EQ(ls_off->store->prefetcher(), nullptr);
  ASSERT_NE(ls_on->store->prefetcher(), nullptr);
  LookupEngine e_off(ls_off->store.get());
  LookupEngine e_on(ls_on->store.get());

  const auto waves = ZipfWaves(/*waves=*/30, /*concurrency=*/4, /*bag_len=*/8,
                               ls_on->model.tables[0].num_rows, /*seed=*/0xfeed);
  const auto r_off = RunWaves(*ls_off, e_off, waves);
  const auto r_on = RunWaves(*ls_on, e_on, waves);
  ASSERT_EQ(r_off.size(), r_on.size());
  for (size_t i = 0; i < r_off.size(); ++i) {
    ASSERT_EQ(r_on[i], r_off[i]) << "query " << i;
  }

  // Speculation must actually have happened and paid off.
  const PrefetchStats pf = ls_on->store->prefetch_stats();
  EXPECT_GT(pf.rows_issued, 0u);
  EXPECT_GT(pf.rows_hit, 0u);
  EXPECT_GT(e_on.stats().CounterValue("prefetch_hits"), 0u);
  // Every claimed hit the engine credits maps to a prefetcher-issued row.
  EXPECT_EQ(e_on.stats().CounterValue("prefetch_hits"), pf.rows_hit);
}

TEST(PrefetchEndToEnd, BypassModeKeepsPr1BaselineByteAndReadIdentical) {
  // enable_prefetch + io_batching=kPerRequest must behave EXACTLY like
  // the PR 1 baseline: same bytes AND same device-read count (the lane is
  // inert — no speculation side channel for the ablation).
  auto baseline = MakeStore(PrefetchTuning(/*enable=*/false, /*cross_request=*/false));
  auto with_flag = MakeStore(PrefetchTuning(/*enable=*/true, /*cross_request=*/false));
  EXPECT_EQ(with_flag->store->prefetcher(), nullptr);
  LookupEngine e_base(baseline->store.get());
  LookupEngine e_flag(with_flag->store.get());

  const auto waves = ZipfWaves(20, 4, 8, baseline->model.tables[0].num_rows, 0xabcd);
  const auto r_base = RunWaves(*baseline, e_base, waves);
  const auto r_flag = RunWaves(*with_flag, e_flag, waves);
  for (size_t i = 0; i < r_base.size(); ++i) {
    ASSERT_EQ(r_flag[i], r_base[i]) << "query " << i;
  }
  EXPECT_EQ(with_flag->store->sm_device(0).stats().CounterValue("reads"),
            baseline->store->sm_device(0).stats().CounterValue("reads"));
  EXPECT_EQ(with_flag->store->scheduler(0).stats().CounterValue("prefetch_reads"), 0u);
  const PrefetchStats pf = with_flag->store->prefetch_stats();
  EXPECT_EQ(pf.rows_issued, 0u);
}

TEST(PrefetchEndToEnd, TraceReportsPrefetchHits) {
  auto ls = MakeStore(PrefetchTuning(/*enable=*/true));
  LookupEngine engine(ls->store.get());

  // Warm the predictor + lane on a hot bag, then demand the same rows
  // repeatedly; once speculation lands them, hits get attributed.
  const std::vector<RowIndex> hot = {5, 6, 7, 8};
  uint32_t prefetch_hits = 0;
  for (int i = 0; i < 30; ++i) {
    LookupRequest req;
    req.table = MakeTableId(0);
    req.indices = hot;
    // Mix in churn so misses keep occurring and MaybeIssue keeps running.
    req.indices.push_back(static_cast<RowIndex>(100 + i * 7));
    engine.Lookup(std::move(req),
                  [&prefetch_hits](Status s, std::vector<float>, const LookupTrace& t) {
                    ASSERT_TRUE(s.ok());
                    prefetch_hits += t.rows_prefetch_hit;
                  });
    ls->loop.RunUntilIdle();
  }
  EXPECT_EQ(prefetch_hits, engine.stats().CounterValue("prefetch_hits"));
  EXPECT_GT(ls->store->prefetch_stats().rows_issued, 0u);
}

TEST(PrefetchEndToEnd, HostRunReportCarriesPrefetchStats) {
  HostSimConfig cfg;
  cfg.host = MakeHwSS();
  cfg.fm_capacity = 24 * kMiB;
  cfg.sm_backing_per_device = 64 * kMiB;
  cfg.tuning.enable_prefetch = true;
  cfg.tuning.prefetch_min_confidence = 0.0;
  cfg.tuning.row_cache.capacity = 128 * kKiB;  // small: keep a live miss stream
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(MakeTinyUniformModel(16, 4, 2, 4000)).ok());
  ASSERT_NE(sim.store().prefetcher(), nullptr);

  sim.Warmup(300);
  const HostRunReport r = sim.Run(2000, 600);
  EXPECT_GT(r.queries_completed, 0u);
  EXPECT_GT(r.prefetch_issued, 0u);
  EXPECT_GE(r.prefetch_hit_rate, 0.0);
  EXPECT_LE(r.prefetch_hit_rate, 1.0);
  EXPECT_NE(r.Summary().find("pf="), std::string::npos);

  // Per-run deltas: a second run reports its own issuance, not the total.
  const HostRunReport r2 = sim.Run(2000, 600);
  const PrefetchStats total = sim.store().prefetch_stats();
  EXPECT_LE(r2.prefetch_issued, total.rows_issued);
}

// ---------------------------------------------------------------------------
// BufferArena under the enlarged in-flight set.
// ---------------------------------------------------------------------------

TEST(BufferArena, ExhaustionBeyondPoolBoundStillServesAndRecyclesBounded) {
  BufferArena arena(/*max_pooled_buffers=*/4);
  // Speculation + demand can hold many bounce buffers at once — more than
  // the pool bound. Acquire well past it and hold everything live.
  std::vector<std::shared_ptr<BufferArena::Buffer>> held;
  for (int i = 0; i < 32; ++i) {
    auto buf = arena.Acquire(kBlockSize);
    ASSERT_NE(buf, nullptr);
    ASSERT_EQ(buf->size(), kBlockSize);
    // Distinct storage: writing one buffer must not alias another.
    (*buf)[0] = static_cast<uint8_t>(i);
    held.push_back(std::move(buf));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ((*held[static_cast<size_t>(i)])[0], static_cast<uint8_t>(i));
  }
  EXPECT_EQ(arena.stats().acquires, 32u);
  EXPECT_EQ(arena.stats().allocations, 32u);  // pool was empty throughout

  // Release the burst: only max_pooled_buffers return to the free list,
  // the rest are freed (not leaked, not pinned).
  held.clear();
  EXPECT_EQ(arena.pooled_buffers(), 4u);
  EXPECT_EQ(arena.stats().discarded, 28u);

  // And the survivors actually recycle.
  auto again = arena.Acquire(kBlockSize);
  EXPECT_EQ(arena.stats().reuses, 1u);
  EXPECT_EQ(arena.pooled_buffers(), 3u);
}

}  // namespace
}  // namespace sdm
