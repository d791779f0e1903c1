// Tests of the benchmark's own machinery: robust statistics, the
// drift-normalised segment estimator, the span recorder, and the
// cache-bypassing reference pooled sum on a tiny model.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/lookup_engine.h"
#include "core/model_loader.h"
#include "dlrm/model_zoo.h"
#include "perfbench_lib.h"

namespace perfbench {
namespace {

using namespace sdm;

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = QuartilesOf({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.Spread(), 5.5 / 5.5);
  // statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
  const Quartiles small = QuartilesOf({4, 1, 2});
  EXPECT_DOUBLE_EQ(small.q1, 1.0);
  EXPECT_DOUBLE_EQ(small.q2, 2.0);
  EXPECT_DOUBLE_EQ(small.q3, 4.0);
}

TEST(SegmentEstimator, KernelWindowTakesMedianOfNearbySamples) {
  // Kernel samples 4, 6, 100, 8, 10 ms around four segments.
  const std::vector<Segment> segs = {{1, 0.004, 0.006}, {1, 0.006, 0.100},
                                     {1, 0.100, 0.008}, {1, 0.008, 0.010}};
  const std::vector<double> own = SegmentKernels(segs, 0);
  EXPECT_DOUBLE_EQ(own[0], 0.005);
  EXPECT_DOUBLE_EQ(own[1], 0.053);
  const std::vector<double> windowed = SegmentKernels(segs, 1);
  // Segment 1 sees samples 4, 6, 6, 100, 100, 8: the outlier no longer
  // dominates.
  EXPECT_DOUBLE_EQ(windowed[1], 0.007);
  EXPECT_DOUBLE_EQ(windowed[3], 0.009);  // samples 100, 8, 8, 10
}

TEST(SegmentEstimator, CancelsMachineSpeedDrift) {
  // The machine slows by up to 2.8x; segment and kernel times scale alike,
  // so every normalised rate is the same and the spread vanishes.
  std::vector<Segment> segs;
  std::vector<double> work;
  for (const double slow : {1.0, 2.8, 1.4, 1.0, 2.0, 1.1, 1.7}) {
    segs.push_back({0.1 * slow, 0.004 * slow, 0.004 * slow});
    work.push_back(500);
  }
  const RateEstimate e = EstimateRate(segs, work, Normalizer{0.004, 0});
  EXPECT_EQ(e.segments, segs.size());
  EXPECT_NEAR(e.median, 5000.0, 1e-6);
  EXPECT_NEAR(e.spread, 0.0, 1e-12);
  EXPECT_GT(e.raw_spread, 0.3);
  EXPECT_NEAR(e.raw_median, 500 / (0.1 * 1.4), 1e-6);
}

TEST(SegmentEstimator, SlowDriftIsTrackedThroughTheWindow) {
  // Speed drifts smoothly; a window of two neighbours each side still
  // recovers the nominal rate within a few percent.
  std::vector<Segment> segs;
  std::vector<double> work;
  for (int i = 0; i < 40; ++i) {
    const double slow = 1.0 + 0.5 * std::sin(i / 12.0);
    const double next = 1.0 + 0.5 * std::sin((i + 1) / 12.0);
    segs.push_back({0.1 * 0.5 * (slow + next), 0.004 * slow, 0.004 * next});
    work.push_back(500);
  }
  EXPECT_NEAR(EstimateRate(segs, work, Normalizer{0.004, 2}).median, 5000.0, 150.0);
}

TEST(SegmentEstimator, MedianResistsOneOutlierSegment) {
  std::vector<Segment> segs(9, Segment{0.1, 0.004, 0.004});
  segs[4] = {1.0, 0.004, 0.004};  // a stall the kernel did not see
  const std::vector<double> work(9, 100);
  EXPECT_NEAR(EstimateRate(segs, work, Normalizer{0.004, 2}).median, 1000.0, 1e-9);
}

TEST(SegmentEstimator, NormalizedMedianCostPerUnit) {
  const std::vector<Segment> segs = {{0.1, 0.008, 0.008}, {0.1, 0.004, 0.004},
                                     {0.1, 0.002, 0.002}};
  // Cost 0.01 s for 100 units at kernel scale 0.5, 1, 2.
  const std::vector<double> cost = {0.02, 0.01, 0.005};
  const std::vector<double> units = {100, 100, 100};
  EXPECT_NEAR(NormalizedMedianCost(segs, cost, units, Normalizer{0.004, 0}), 1e-4, 1e-12);
}

TEST(ReferenceKernel, RunsAndOwnsItsRing) {
  ReferenceKernel k(size_t{1} << 20);
  EXPECT_GT(k.Run(), 0.0);
  EXPECT_GE(k.footprint_bytes(), size_t{1} << 20);
}

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  SpanLog log;
  const int32_t outer = log.Begin("outer");
  const int32_t inner = log.Begin("inner", 7);
  log.End(inner);
  log.End(outer);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, outer);
  EXPECT_EQ(log.spans()[1].query, 7);
  const auto self = log.SelfSeconds();
  ASSERT_EQ(self.size(), 2u);
  const double outer_dur = log.spans()[0].end - log.spans()[0].start;
  const double inner_dur = log.spans()[1].end - log.spans()[1].start;
  EXPECT_EQ(self[0].first, "inner");
  EXPECT_NEAR(self[0].second, inner_dur, 1e-12);
  EXPECT_NEAR(self[1].second, outer_dur - inner_dur, 1e-12);
}

struct TinyStore {
  EventLoop loop;
  std::unique_ptr<SdmStore> store;
  ModelConfig model = MakeTinyUniformModel(16, 2, 1, 500);

  TinyStore() {
    SdmStoreConfig cfg;
    cfg.fm_capacity = 4 * kMiB;
    cfg.sm_specs = {MakeOptaneSsdSpec()};
    cfg.sm_backing_bytes = {4 * kMiB};
    cfg.tuning.enable_row_cache = true;
    cfg.tuning.enable_pooled_cache = false;
    store = std::make_unique<SdmStore>(cfg, &loop);
    auto rep = ModelLoader::Load(model, {}, store.get());
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  }

  std::vector<float> Lookup(LookupEngine& engine, TableId t, std::vector<RowIndex> idx) {
    std::vector<float> out;
    LookupRequest req;
    req.table = t;
    req.indices = std::move(idx);
    engine.Lookup(req, [&](Status st, std::vector<float> pooled, const LookupTrace&) {
      EXPECT_TRUE(st.ok());
      out = std::move(pooled);
    });
    loop.RunUntilIdle();
    return out;
  }
};

TEST(ReferencePooledSum, MatchesLookupEngineOnSmAndFmTables) {
  TinyStore ts;
  LookupEngine engine(ts.store.get());
  const std::vector<RowIndex> idx = {3, 17, 17, 499, 250, 0};
  for (uint32_t t = 0; t < ts.model.tables.size(); ++t) {
    const TableId id = MakeTableId(t);
    const std::vector<float> want = ReferencePooledSum(*ts.store, id, idx);
    ASSERT_EQ(want.size(), 16u);
    // Twice: the second lookup is served from the row cache.
    EXPECT_LE(MaxRelDiff(ts.Lookup(engine, id, idx), want), 1e-6) << "table " << t;
    EXPECT_LE(MaxRelDiff(ts.Lookup(engine, id, idx), want), 1e-6) << "table " << t;
  }
  // Out-of-domain indices contribute nothing, as in LookupEngine.
  const TableId t0 = MakeTableId(0);
  EXPECT_EQ(ReferencePooledSum(*ts.store, t0, std::vector<RowIndex>{3, 100000}),
            ReferencePooledSum(*ts.store, t0, std::vector<RowIndex>{3}));
}

TEST(ReferencePooledSum, BypassesTheRowCacheSoStaleRowsAreCaught) {
  TinyStore ts;
  LookupEngine engine(ts.store.get());
  const TableId t0 = MakeTableId(0);
  ASSERT_EQ(ts.store->table(t0).tier, MemoryTier::kSm);
  const std::vector<RowIndex> idx = {5, 6};
  const std::vector<float> want = ReferencePooledSum(*ts.store, t0, idx);
  ASSERT_LE(MaxRelDiff(ts.Lookup(engine, t0, idx), want), 1e-6);
  // Corrupt the cached copy of row 5: the engine now pools the bad bytes,
  // while the reference still reads the device's backing store.
  const Bytes rb = ts.store->table(t0).config.row_bytes();
  std::vector<uint8_t> bad(rb, 0x40);  // codes 64, scale = bias = 3.0f
  ts.store->row_cache()->Insert(RowKey{t0, 5}, bad);
  EXPECT_GT(MaxRelDiff(ts.Lookup(engine, t0, idx), want), 1e-3);
  EXPECT_EQ(ReferencePooledSum(*ts.store, t0, idx), want);
}

TEST(MaxRelDiff, SizeMismatchAndNanAreInfinite) {
  EXPECT_TRUE(std::isinf(MaxRelDiff(std::vector<float>{1}, std::vector<float>{1, 2})));
  EXPECT_DOUBLE_EQ(MaxRelDiff(std::vector<float>{1, 4}, std::vector<float>{1, 2}), 1.0);
  EXPECT_TRUE(std::isinf(MaxRelDiff(std::vector<float>{NAN}, std::vector<float>{1})));
}

}  // namespace
}  // namespace perfbench
