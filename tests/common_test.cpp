// Tests for src/common: units, Result, RNG/Zipf, histogram, stats,
// event loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/event_loop.h"
#include "common/histogram.h"
#include "common/kv_format.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "obs/observability.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// Units.
// ---------------------------------------------------------------------------

TEST(Types, DurationConversions) {
  EXPECT_EQ(Micros(1).nanos(), 1000);
  EXPECT_EQ(Millis(1).nanos(), 1'000'000);
  EXPECT_EQ(Seconds(1).nanos(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(Millis(2.5).millis(), 2.5);
  EXPECT_DOUBLE_EQ(Seconds(0.25).seconds(), 0.25);
}

TEST(Types, DurationArithmetic) {
  const SimDuration a = Micros(10);
  const SimDuration b = Micros(4);
  EXPECT_EQ((a + b).nanos(), 14'000);
  EXPECT_EQ((a - b).nanos(), 6'000);
  EXPECT_EQ((a * 2.5).nanos(), 25'000);
  EXPECT_EQ((a / 2).nanos(), 5'000);
  EXPECT_LT(b, a);
}

TEST(Types, TimePlusDuration) {
  SimTime t(1000);
  t += Micros(1);
  EXPECT_EQ(t.nanos(), 2000);
  EXPECT_EQ((t - SimTime(500)).nanos(), 1500);
}

TEST(Types, BlockMath) {
  EXPECT_EQ(BlocksFor(0), 0u);
  EXPECT_EQ(BlocksFor(1), 1u);
  EXPECT_EQ(BlocksFor(kBlockSize), 1u);
  EXPECT_EQ(BlocksFor(kBlockSize + 1), 2u);
  EXPECT_DOUBLE_EQ(AsGiB(kGiB), 1.0);
  EXPECT_DOUBLE_EQ(AsMiB(512 * kKiB), 0.5);
}

// ---------------------------------------------------------------------------
// Result / Status.
// ---------------------------------------------------------------------------

TEST(Status, OkByDefault) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = NotFoundError("row 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.ToString().find("row 7"), std::string::npos);
}

TEST(Result, HoldsValue) {
  const Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  const Result<int> r = InvalidArgumentError("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOut) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  const std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++buckets[rng.NextBounded(10)];
  for (const int c : buckets) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  double sum = 0;
  double sq = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(19);
  std::vector<double> vals;
  const int n = 50'001;
  vals.reserve(n);
  for (int i = 0; i < n; ++i) vals.push_back(rng.NextLogNormal(8.0, 0.7));
  std::nth_element(vals.begin(), vals.begin() + n / 2, vals.end());
  EXPECT_NEAR(vals[n / 2], 8.0, 0.4);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(23);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(RandomPermutationTest, IsBijection) {
  Rng rng(29);
  const auto perm = RandomPermutation(1000, rng);
  std::set<uint64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 999u);
}

// ---------------------------------------------------------------------------
// ZipfSampler.
// ---------------------------------------------------------------------------

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfSampler z(100, 0.0);
  Rng rng(31);
  std::vector<int> counts(100, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, n / 100, n / 100 * 0.15);
}

TEST(Zipf, SamplesWithinDomain) {
  ZipfSampler z(50, 1.1);
  Rng rng(37);
  for (int i = 0; i < 50'000; ++i) EXPECT_LT(z.Sample(rng), 50u);
}

TEST(Zipf, SingleElementDomain) {
  ZipfSampler z(1, 1.0);
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.Sample(rng), 0u);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler z(1000, 0.9);
  double sum = 0;
  for (uint64_t r = 0; r < 1000; ++r) sum += z.Pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, EmpiricalMatchesPmfForHotRanks) {
  ZipfSampler z(10'000, 1.0);
  Rng rng(43);
  const int n = 500'000;
  std::vector<uint64_t> counts(16, 0);
  for (int i = 0; i < n; ++i) {
    const uint64_t s = z.Sample(rng);
    if (s < counts.size()) ++counts[s];
  }
  for (size_t r = 0; r < counts.size(); ++r) {
    const double expected = z.Pmf(r) * n;
    EXPECT_NEAR(counts[r], expected, expected * 0.08 + 30)
        << "rank " << r;
  }
}

// Higher alpha concentrates more mass at the top — the property the
// user/item locality split (Fig. 4) relies on.
class ZipfConcentration : public ::testing::TestWithParam<double> {};

TEST_P(ZipfConcentration, TopMassGrowsWithAlpha) {
  const double alpha = GetParam();
  ZipfSampler weak(100'000, alpha);
  ZipfSampler strong(100'000, alpha + 0.3);
  EXPECT_GT(strong.TopMass(100), weak.TopMass(100));
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, ZipfConcentration,
                         ::testing::Values(0.2, 0.5, 0.7, 0.9, 1.1));

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P99(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Record(5000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 5000);
  EXPECT_EQ(h.max(), 5000);
  EXPECT_NEAR(h.P50(), 5000, 5000 * 0.05);
}

TEST(Histogram, PercentilesOfUniformRamp) {
  Histogram h;
  for (int64_t v = 1; v <= 100'000; ++v) h.Record(v);
  EXPECT_NEAR(h.P50(), 50'000, 50'000 * 0.05);
  EXPECT_NEAR(h.P95(), 95'000, 95'000 * 0.05);
  EXPECT_NEAR(h.P99(), 99'000, 99'000 * 0.05);
  EXPECT_NEAR(h.mean(), 50'000, 500);
}

TEST(Histogram, BoundedRelativeError) {
  Histogram h;
  const std::vector<int64_t> values = {1,    7,     63,     999,       4096,
                                       5000, 77777, 123456, 999999999, 1};
  for (const int64_t v : values) {
    h.Reset();
    h.Record(v);
    const int64_t q = h.ValueAtQuantile(1.0);
    EXPECT_GE(q, v);           // upper bound of bucket
    EXPECT_LE(q, v + v / 16 + 1);  // within one sub-bucket (1/32 rel + slack)
  }
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) a.Record(100);
  for (int i = 0; i < 100; ++i) b.Record(10'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_GE(a.max(), 10'000);
  EXPECT_NEAR(a.ValueAtQuantile(0.25), 100, 10);
}

TEST(Histogram, RecordsDurations) {
  Histogram h;
  h.Record(Micros(150));
  EXPECT_NEAR(h.P50(), 150'000, 150'000 * 0.05);
}

TEST(Histogram, ClampsToMaxValue) {
  Histogram h(1 << 20);
  h.Record(int64_t{1} << 40);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.ValueAtQuantile(1.0), 1 << 20);
}

TEST(Histogram, SummaryStringContainsFields) {
  Histogram h;
  h.Record(Micros(10));
  const std::string s = h.SummaryString();
  EXPECT_NE(s.find("count=1"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
}

TEST(Histogram, LowValuesClampIntoTheTrackedDomain) {
  // Zero and negative samples must clamp to 1 BEFORE the summary stats see
  // them: otherwise mean()/min() go negative while the bucket counts stay
  // clamped, and quantiles (capped at observed_max_) disagree with count().
  Histogram h;
  h.Record(0);
  h.Record(-5'000);
  h.Record(int64_t{-1} << 40);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 1);
}

TEST(Histogram, QuantilesAreMonotoneInQ) {
  // Property: for ANY recorded population, ValueAtQuantile must be a
  // non-decreasing function of q — a sweep can never report p95 < p50.
  Rng rng(1234);
  Histogram h;
  for (int i = 0; i < 5'000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextLogNormal(/*median=*/50'000, /*sigma=*/2.0)));
  }
  int64_t prev = h.ValueAtQuantile(0.0);
  for (double q = 0.01; q <= 1.0 + 1e-9; q += 0.01) {
    const int64_t v = h.ValueAtQuantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(Histogram, RandomSamplesStayWithinRelativeErrorBound) {
  // Property over a random heavy-tailed population: every reported quantile
  // lies within the log-bucket resolution (1/32 relative, plus integer
  // slack) of the exact order statistic.
  Rng rng(99);
  std::vector<int64_t> values;
  Histogram h;
  for (int i = 0; i < 2'000; ++i) {
    const int64_t v =
        std::max<int64_t>(1, static_cast<int64_t>(rng.NextExponential(1.0) * 1e6));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}) {
    const size_t rank =
        std::min(values.size() - 1,
                 static_cast<size_t>(q * static_cast<double>(values.size())));
    const double exact = static_cast<double>(values[rank]);
    const double got = static_cast<double>(h.ValueAtQuantile(q));
    // The bucket upper bound can sit one sub-bucket above the exact value;
    // rank rounding adds at most one neighbouring sample of slack.
    EXPECT_NEAR(got, exact, exact / 8 + 2) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// KvFormatter.
// ---------------------------------------------------------------------------

TEST(KvFormat, BuildsSpaceSeparatedTokens) {
  KvFormatter f;
  f.Kv("qps", "%.1f", 12.5).Kv("n", "%d", 3).Kv("tag", "%s", "hot");
  EXPECT_EQ(f.str(), "qps=12.5 n=3 tag=hot");
}

TEST(KvFormat, RawTokenAndEmptyFormatter) {
  KvFormatter empty;
  EXPECT_EQ(empty.str(), "");
  KvFormatter f;
  f.Raw("[host0]").Kv("p99", "%.2fms", 1.25).Raw("(degraded)");
  EXPECT_EQ(f.str(), "[host0] p99=1.25ms (degraded)");
}

TEST(KvFormat, CompositeValueSpecs) {
  // Reports lean on multi-argument specs ("a/b", "a+b"); pin one of each.
  KvFormatter f;
  f.Kv("qps", "%.0f/%.0f", 98.0, 100.0).Kv("retry", "%d+%d", 2, 7);
  EXPECT_EQ(f.str(), "qps=98/100 retry=2+7");
}

// ---------------------------------------------------------------------------
// Pluggable log sink.
// ---------------------------------------------------------------------------

TEST(Logging, SinkCapturesRecordsAndEmptyRestoresStderr) {
  std::vector<std::pair<LogLevel, std::string>> got;
  std::string last_file;
  SetLogSink([&](LogLevel level, const char* file, int line, const std::string& msg) {
    ASSERT_NE(file, nullptr);
    EXPECT_GT(line, 0);
    last_file = file;
    got.push_back({level, msg});
  });
  SDM_LOG_WARN << "queue depth " << 42 << " above limit";
  SDM_LOG_INFO << "benign";
  SetLogSink({});  // restore the stderr default
  SDM_LOG_INFO << "not captured";

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, LogLevel::kWarn);
  EXPECT_EQ(got[0].second, "queue depth 42 above limit");
  EXPECT_EQ(got[1].first, LogLevel::kInfo);
  EXPECT_NE(last_file.find("common_test.cpp"), std::string::npos);
}

// ---------------------------------------------------------------------------
// StatsRegistry.
// ---------------------------------------------------------------------------

TEST(Stats, CounterLifecycle) {
  StatsRegistry reg;
  Counter* c = reg.GetCounter("ios");
  c->Add();
  c->Add(9);
  EXPECT_EQ(reg.CounterValue("ios"), 10u);
  EXPECT_EQ(reg.CounterValue("missing"), 0u);
}

TEST(Stats, SameNameSameCounter) {
  StatsRegistry reg;
  EXPECT_EQ(reg.GetCounter("x"), reg.GetCounter("x"));
  EXPECT_NE(reg.GetCounter("x"), reg.GetCounter("y"));
}

/// Adds `delta` to `counter` at virtual time `at`.
void AddAt(EventLoop& loop, SimDuration at, Counter* counter, uint64_t delta) {
  loop.ScheduleAt(SimTime(0) + at, [counter, delta] { counter->Add(delta); });
}

/// (window start, value) of every closed window of `series`.
std::vector<std::pair<int64_t, double>> Points(const WindowedCounter* series) {
  std::vector<std::pair<int64_t, double>> out;
  for (const WindowSample& w : series->series()) out.emplace_back(w.window_start_ns, w.value);
  return out;
}

TEST(Stats, TappedCounterRecordsAtTheClocksNow) {
  EventLoop loop;
  MetricsRegistry metrics(Millis(1));
  StatsRegistry reg;
  Counter* c = reg.GetCounter("ios");
  c->Tap(metrics.Counter("dev/ios"), &loop);
  AddAt(loop, Micros(200), c, 2);
  AddAt(loop, Micros(900), c, 1);
  AddAt(loop, Micros(3500), c, 4);
  loop.RunUntilIdle();
  metrics.Finalize();
  EXPECT_EQ(c->value(), 7u);
  const std::vector<std::pair<int64_t, double>> want = {{0, 3.0}, {3'000'000, 4.0}};
  EXPECT_EQ(Points(metrics.Counter("dev/ios")), want);
}

TEST(Stats, CountersSharingASeriesSumIntoIt) {
  EventLoop loop;
  MetricsRegistry metrics(Millis(1));
  StatsRegistry reg;
  Counter* demand = reg.GetCounter("device_reads");
  Counter* prefetch = reg.GetCounter("prefetch_reads");
  WindowedCounter* sqes = metrics.Counter("sched/sqes");
  demand->Tap(sqes, &loop);
  prefetch->Tap(sqes, &loop);
  AddAt(loop, Micros(100), demand, 2);
  AddAt(loop, Micros(600), prefetch, 5);
  AddAt(loop, Micros(1500), prefetch, 1);
  loop.RunUntilIdle();
  metrics.Finalize();
  const std::vector<std::pair<int64_t, double>> want = {{0, 7.0}, {1'000'000, 1.0}};
  EXPECT_EQ(Points(sqes), want);
  EXPECT_EQ(demand->value() + prefetch->value(), 8u);
}

TEST(Stats, UntappedCounterCreatesNoSeries) {
  EventLoop loop;
  ObsConfig on;
  on.enable_metrics = true;
  on.metrics_interval = Millis(1);
  Observability obs(on);
  Observability off{ObsConfig{}};
  StatsRegistry reg;
  Counter* tapped = reg.GetCounter("tapped");
  Counter* untapped = reg.GetCounter("untapped");
  Counter* obs_off = reg.GetCounter("obs_off");
  tapped->Tap(ObsCounter(&obs, "dev/tapped"), &loop);
  obs_off->Tap(ObsCounter(&off, "dev/obs_off"), &loop);  // a null tap
  for (Counter* c : {tapped, untapped, obs_off}) c->Add(3);
  obs.Finalize();
  std::vector<MetricsRegistry::SeriesRef> refs;
  obs.metrics()->CollectSeries(&refs);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(*refs[0].name, "dev/tapped");
  EXPECT_EQ(reg.CounterValue("untapped"), 3u);
  EXPECT_EQ(reg.CounterValue("obs_off"), 3u);
}

TEST(Stats, TappedHistogramRecordsAtTheClocksNow) {
  EventLoop loop;
  MetricsRegistry metrics(Millis(1));
  Histogram h;
  h.Tap(metrics.Hist("io/latency_ns"), &loop);
  for (const int64_t at_us : {100, 700, 2100}) {
    loop.ScheduleAt(SimTime(0) + Micros(at_us), [&h, at_us] { h.Record(at_us * 10); });
  }
  loop.RunUntilIdle();
  metrics.Finalize();
  const std::vector<WindowSample>& series = metrics.Hist("io/latency_ns")->series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].window_start_ns, 0);
  EXPECT_EQ(series[0].count, 2u);
  EXPECT_EQ(series[0].max, 7000);
  EXPECT_EQ(series[1].window_start_ns, 2'000'000);
  EXPECT_EQ(series[1].count, 1u);
  EXPECT_EQ(series[1].max, 21000);
  EXPECT_EQ(series[0].count + series[1].count, h.count());
}

TEST(Stats, SnapshotSorted) {
  StatsRegistry reg;
  reg.GetCounter("zz")->Add(1);
  reg.GetCounter("aa")->Add(2);
  const auto snap = reg.Counters();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "aa");
  EXPECT_EQ(snap[1].first, "zz");
}

// ---------------------------------------------------------------------------
// EventLoop.
// ---------------------------------------------------------------------------

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(SimTime(300), [&] { order.push_back(3); });
  loop.ScheduleAt(SimTime(100), [&] { order.push_back(1); });
  loop.ScheduleAt(SimTime(200), [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now().nanos(), 300);
}

TEST(EventLoop, FifoTieBreakAtEqualTimes) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(SimTime(50), [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ScheduleAfterAdvancesFromNow) {
  EventLoop loop;
  int64_t fired_at = -1;
  loop.ScheduleAt(SimTime(1000), [&] {
    loop.ScheduleAfter(Nanos(500), [&] { fired_at = loop.Now().nanos(); });
  });
  loop.RunUntilIdle();
  EXPECT_EQ(fired_at, 1500);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(SimTime(100), [&] { ++ran; });
  loop.ScheduleAt(SimTime(900), [&] { ++ran; });
  loop.RunUntil(SimTime(500));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.Now().nanos(), 500);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunUntilIdle();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.ScheduleAt(SimTime(1000), [&] {
    loop.ScheduleAt(SimTime(10), [&] {
      // Runs "now", not in the past.
      EXPECT_GE(loop.Now().nanos(), 1000);
    });
  });
  loop.RunUntilIdle();
}

TEST(EventLoop, CascadedEventsAllRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) loop.ScheduleAfter(Nanos(1), recurse);
  };
  loop.ScheduleAfter(Nanos(1), recurse);
  const uint64_t n = loop.RunUntilIdle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(n, 100u);
}

}  // namespace
}  // namespace sdm
