// Tests for the observability layer (src/obs) and its serving-stack wiring.
//
// Three invariants carry the layer:
//   1. OFF is byte-inert and ON is timing-inert: serving reports are
//      field-identical with observability on or off, in every runtime shape
//      (single host, disaggregated cluster, shared tenants).
//   2. Exports are deterministic: two identical runs emit identical bytes.
//   3. The primitives behave: windows close lazily and stay sparse, span
//      rings bound memory by dropping NEW events, SLO watchdogs debounce and
//      emit both edges through the pluggable log sink.
//   4. One recording path: every series fed by a tapped counter or
//      histogram sums to that cumulative twin.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dlrm/model_zoo.h"
#include "fault/fault_injector.h"
#include "fault/replication_manager.h"
#include "obs/observability.h"
#include "serving/cluster.h"
#include "serving/host.h"

namespace sdm {
namespace {

/// Absolute virtual time `d` past the epoch (loops start at SimTime(0)).
constexpr SimTime At(SimDuration d) { return SimTime(0) + d; }

[[nodiscard]] bool Contains(const std::string& doc, const std::string& needle) {
  return doc.find(needle) != std::string::npos;
}

[[nodiscard]] size_t CountOccurrences(const std::string& doc,
                                      const std::string& needle) {
  size_t n = 0;
  for (size_t at = doc.find(needle); at != std::string::npos;
       at = doc.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Sums the per-window values of one counter series in a metrics document.
/// Returns -1 when the series is absent (distinct from an all-zero series).
[[nodiscard]] double SumCounterPoints(const std::string& doc,
                                      const std::string& name) {
  const std::string needle =
      "{\"name\":\"" + name + "\",\"kind\":\"counter\",\"points\":[";
  const size_t at = doc.find(needle);
  if (at == std::string::npos) return -1;
  double total = 0;
  size_t i = at + needle.size();
  while (i < doc.size() && doc[i] == '[') {  // [window_start,value],...
    const size_t comma = doc.find(',', i);
    total += std::strtod(doc.c_str() + comma + 1, nullptr);
    i = doc.find(']', comma) + 1;
    if (i < doc.size() && doc[i] == ',') ++i;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Metrics primitives.
// ---------------------------------------------------------------------------

ObsConfig MetricsOnly() {
  ObsConfig o;
  o.enable_metrics = true;
  o.metrics_interval = Millis(1);
  return o;
}

TEST(ObsMetrics, WindowsCloseLazilyAndSparseWindowsEmitNoPoints) {
  Observability obs(MetricsOnly());
  WindowedCounter* c = ObsCounter(&obs, "t/requests");
  ASSERT_NE(c, nullptr);
  c->Add(At(Micros(100)));
  c->Add(At(Micros(900)));
  // Window 1 sees no traffic: it must not appear in the series at all.
  c->Add(At(Millis(2) + Micros(500)));
  obs.Finalize();
  const std::string doc = obs.MetricsJson();
  EXPECT_TRUE(Contains(doc,
                       "{\"name\":\"t/requests\",\"kind\":\"counter\","
                       "\"points\":[[0,2],[2000000,1]]}"))
      << doc;
}

TEST(ObsMetrics, ZeroDeltasOpenNoWindow) {
  Observability obs(MetricsOnly());
  WindowedCounter* c = ObsCounter(&obs, "t/rows");
  ASSERT_NE(c, nullptr);
  c->Add(At(Micros(100)), 0);
  c->Add(At(Micros(200)), 3);
  // Window 1 sees only zero deltas, and so does window 3 after the last
  // real add: neither may appear, and window 0 closes with its own sum.
  c->Add(At(Millis(1) + Micros(500)), 0);
  c->Add(At(Millis(2) + Micros(500)), 1);
  c->Add(At(Millis(3) + Micros(500)), 0);
  obs.Finalize();
  const std::string doc = obs.MetricsJson();
  EXPECT_TRUE(Contains(doc,
                       "{\"name\":\"t/rows\",\"kind\":\"counter\","
                       "\"points\":[[0,3],[2000000,1]]}"))
      << doc;
  // A counter that only ever saw zeros exports no series.
  ObsCounter(&obs, "t/never")->Add(At(Millis(4)), 0);
  obs.Finalize();
  EXPECT_FALSE(Contains(obs.MetricsJson(), "t/never"));
}

TEST(ObsMetrics, SameNameResolvesToTheSameHandle) {
  Observability obs(MetricsOnly());
  EXPECT_EQ(obs.metrics()->Counter("x"), obs.metrics()->Counter("x"));
  EXPECT_EQ(obs.metrics()->Gauge("g"), obs.metrics()->Gauge("g"));
  EXPECT_EQ(obs.metrics()->Hist("h"), obs.metrics()->Hist("h"));
}

TEST(ObsMetrics, HistogramWindowsResetBetweenWindows) {
  Observability obs(MetricsOnly());
  WindowedHistogram* h = ObsHist(&obs, "t/latency_ns");
  for (int i = 0; i < 4; ++i) h->Record(At(Micros(10 * (i + 1))), Micros(100));
  h->Record(At(Millis(1) + Micros(10)), Micros(900));
  obs.Finalize();
  const std::string doc = obs.MetricsJson();
  // Points are [window_start, count, mean, p50, p95, p99, max]: window 0
  // holds four 100us samples, window 1 exactly one 900us sample — the
  // second window's count proves per-window reset, its mean proves the
  // first window's samples did not leak forward.
  EXPECT_TRUE(Contains(doc, "\"kind\":\"hist\",\"points\":[[0,4,100")) << doc;
  EXPECT_TRUE(Contains(doc, "],[1000000,1,9")) << doc;
}

TEST(ObsMetrics, FinalizeIsIdempotent) {
  Observability obs(MetricsOnly());
  ObsCounter(&obs, "t/requests")->Add(At(Micros(1)));
  obs.Finalize();
  const std::string once = obs.MetricsJson();
  obs.Finalize();
  EXPECT_EQ(obs.MetricsJson(), once);
}

TEST(ObsMetrics, HandlesAreNullWhenSubsystemIsOff) {
  ObsConfig off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(ObsCounter(nullptr, "x"), nullptr);
  ObsConfig trace_only;
  trace_only.enable_tracing = true;
  Observability obs(trace_only);
  EXPECT_EQ(obs.metrics(), nullptr);
  EXPECT_EQ(ObsHist(&obs, "x"), nullptr);
  EXPECT_NE(ObsSpans(&obs), nullptr);
}

// ---------------------------------------------------------------------------
// Span recorder.
// ---------------------------------------------------------------------------

TEST(ObsSpans, ExportsChromeTraceEventsWithArgs) {
  SpanRecorder rec(/*sample_every=*/1, /*max_events=*/16);
  const SpanRecorder::TrackId q = rec.Track("host0", "queries");
  const SpanRecorder::TrackId l = rec.Track("host0", "lookup");
  rec.Span(q, "query", At(Micros(1)), At(Micros(5)), "{\"rows\":3}");
  rec.Instant(l, "join", At(Micros(2)));
  const std::string doc = rec.ExportChromeTrace();
  EXPECT_TRUE(Contains(doc, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
  EXPECT_TRUE(Contains(doc, "\"ph\":\"b\"")) << doc;
  EXPECT_TRUE(Contains(doc, "\"ph\":\"e\"")) << doc;
  EXPECT_TRUE(Contains(doc, "\"ph\":\"i\"")) << doc;
  EXPECT_TRUE(Contains(doc, "\"name\":\"query\"")) << doc;
  EXPECT_TRUE(Contains(doc, "{\"rows\":3}")) << doc;
}

TEST(ObsSpans, ExportDoesNotDependOnTrackRegistrationOrder) {
  // pids/tids are assigned from SORTED names at export, so two recorders
  // that interned their tracks in opposite order emit identical bytes.
  SpanRecorder a(1, 16), b(1, 16);
  const auto a_q = a.Track("host0", "queries");
  const auto a_l = a.Track("host0", "lookup");
  const auto b_l = b.Track("host0", "lookup");
  const auto b_q = b.Track("host0", "queries");
  a.Span(a_q, "query", At(Micros(1)), At(Micros(5)));
  a.Span(a_l, "lookup", At(Micros(2)), At(Micros(4)));
  b.Span(b_q, "query", At(Micros(1)), At(Micros(5)));
  b.Span(b_l, "lookup", At(Micros(2)), At(Micros(4)));
  EXPECT_EQ(a.ExportChromeTrace(), b.ExportChromeTrace());
}

TEST(ObsSpans, RingDropsNewEventsWhenFullAndCountsThem) {
  SpanRecorder rec(1, /*max_events=*/2);
  const auto t = rec.Track("host0", "queries");
  rec.Span(t, "q1", At(Micros(1)), At(Micros(2)));
  rec.Span(t, "q2", At(Micros(3)), At(Micros(4)));
  rec.Span(t, "q3", At(Micros(5)), At(Micros(6)));  // dropped, not evicting
  EXPECT_EQ(rec.event_count(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  const std::string doc = rec.ExportChromeTrace();
  EXPECT_TRUE(Contains(doc, "\"name\":\"q1\""));
  EXPECT_FALSE(Contains(doc, "\"name\":\"q3\""));
}

// ---------------------------------------------------------------------------
// SLO watchdog.
// ---------------------------------------------------------------------------

TEST(ObsSlo, DebouncesFiresOnceAndClearsThroughTheLogSink) {
  ObsConfig o = MetricsOnly();
  SloRule rule;
  rule.name = "err-rate";
  rule.metric = "t/errors";
  rule.stat = SloRule::Stat::kValue;
  rule.op = SloRule::Op::kAbove;
  rule.threshold = 5;
  rule.for_windows = 2;
  o.slo_rules = {rule};
  Observability obs(o);
  ASSERT_NE(obs.slo(), nullptr);

  std::vector<std::string> warns;
  SetLogSink([&](LogLevel level, const char*, int, const std::string& msg) {
    if (level == LogLevel::kWarn) warns.push_back(msg);
  });
  WindowedCounter* errors = ObsCounter(&obs, "t/errors");
  // Window 0: 10 errors (breach #1 — debounced, no event yet).
  for (int i = 0; i < 10; ++i) errors->Add(At(Micros(i + 1)));
  // Window 1: 10 errors (breach #2 — fires when the window closes).
  for (int i = 0; i < 10; ++i) errors->Add(At(Millis(1) + Micros(i + 1)));
  // Window 2: 1 error (below threshold — clears when the window closes).
  errors->Add(At(Millis(2) + Micros(1)));
  obs.Finalize();
  SetLogSink({});  // restore stderr

  const std::vector<SloEvent>& events = obs.slo()->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].fired);
  EXPECT_EQ(events[0].rule, "err-rate");
  EXPECT_EQ(events[0].consecutive, 2);
  EXPECT_DOUBLE_EQ(events[0].value, 10);
  EXPECT_FALSE(events[1].fired);
  EXPECT_EQ(obs.slo()->firing(), 0u);
  // Both edges went through the pluggable sink at WARN.
  ASSERT_EQ(warns.size(), 2u);
  EXPECT_TRUE(Contains(warns[0], "err-rate"));
  // And the export carries them in order.
  const std::string doc = obs.SloJson();
  EXPECT_TRUE(Contains(doc, "\"rule\":\"err-rate\"")) << doc;
  EXPECT_TRUE(Contains(doc, "\"fired\":true")) << doc;
  EXPECT_TRUE(Contains(doc, "\"fired\":false")) << doc;
}

// ---------------------------------------------------------------------------
// Serving-stack wiring: the on/off byte-identity and export determinism.
// ---------------------------------------------------------------------------

/// The disaggregated serving profile with batching delay off and a 5us
/// fabric hop.
HostSimConfig ObsHostConfig() {
  HostSimConfig cfg;
  cfg.host = MakeHwFAO(2);
  cfg.fm_capacity = 4 * kMiB;
  cfg.sm_backing_per_device = 32 * kMiB;
  cfg.workload.num_users = 2000;
  cfg.workload.seed = 11;
  cfg.seed = 11;
  cfg.tuning.sub_block_reads = false;
  cfg.tuning.enable_row_cache = false;
  cfg.tuning.max_batch_delay = SimDuration(0);
  cfg.tuning.fabric_latency = Micros(5);
  cfg.inference.max_concurrent_queries = 32;
  return cfg;
}

ModelConfig ObsModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;  // item side stays FM-direct
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return model;
}

/// Full-fat observability: metrics + trace-every-query + one rule that is
/// guaranteed to fire (any completed query has p99 latency above 1ns).
ObsConfig FullObs() {
  ObsConfig o;
  o.enable_metrics = true;
  o.metrics_interval = Millis(1);
  o.enable_tracing = true;
  o.trace_sample_every = 1;
  SloRule rule;
  rule.name = "query-p99";
  rule.metric = "host0/query/latency_ns";
  rule.stat = SloRule::Stat::kP99;
  rule.op = SloRule::Op::kAbove;
  rule.threshold = 1;
  o.slo_rules = {rule};
  return o;
}

/// Field-by-field equality of two host reports — the whole struct, because
/// "timing-inert when on" means not one counter may move.
void ExpectHostReportsEqual(const HostRunReport& a, const HostRunReport& b) {
  EXPECT_EQ(a.queries_completed, b.queries_completed);
  EXPECT_EQ(a.queries_served, b.queries_served);
  EXPECT_DOUBLE_EQ(a.achieved_qps, b.achieved_qps);
  EXPECT_EQ(a.p50.nanos(), b.p50.nanos());
  EXPECT_EQ(a.p95.nanos(), b.p95.nanos());
  EXPECT_EQ(a.p99.nanos(), b.p99.nanos());
  EXPECT_EQ(a.mean.nanos(), b.mean.nanos());
  EXPECT_DOUBLE_EQ(a.row_cache_hit_rate, b.row_cache_hit_rate);
  EXPECT_DOUBLE_EQ(a.pooled_hit_rate, b.pooled_hit_rate);
  EXPECT_DOUBLE_EQ(a.sm_iops, b.sm_iops);
  EXPECT_DOUBLE_EQ(a.sm_read_amplification, b.sm_read_amplification);
  EXPECT_EQ(a.cross_request_merges, b.cross_request_merges);
  EXPECT_EQ(a.singleflight_hits, b.singleflight_hits);
  EXPECT_DOUBLE_EQ(a.batch_occupancy, b.batch_occupancy);
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
  EXPECT_DOUBLE_EQ(a.prefetch_hit_rate, b.prefetch_hit_rate);
  EXPECT_EQ(a.prefetch_wasted_bytes, b.prefetch_wasted_bytes);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.hedges_issued, b.hedges_issued);
  EXPECT_EQ(a.hedges_won, b.hedges_won);
  EXPECT_EQ(a.queries_degraded, b.queries_degraded);
  EXPECT_EQ(a.rows_failed, b.rows_failed);
  EXPECT_EQ(a.lookups_shed, b.lookups_shed);
  EXPECT_EQ(a.blocks_corrupt, b.blocks_corrupt);
  EXPECT_EQ(a.replica_reads, b.replica_reads);
  EXPECT_EQ(a.read_repairs, b.read_repairs);
  EXPECT_EQ(a.extents_replicated, b.extents_replicated);
  EXPECT_EQ(a.avg_cpu_per_query.nanos(), b.avg_cpu_per_query.nanos());
}

TEST(ObsServing, SingleHostReportIsByteIdenticalWithObsOnAndOff) {
  const ModelConfig model = ObsModel();
  const HostSimConfig off = ObsHostConfig();
  HostSimConfig on = off;
  on.tuning.obs = FullObs();

  HostSimulation a(off);
  HostSimulation b(on);
  ASSERT_TRUE(a.LoadModel(model).ok());
  ASSERT_TRUE(b.LoadModel(model).ok());
  const HostRunReport ra = a.Run(/*target_qps=*/800, /*num_queries=*/500);
  const HostRunReport rb = b.Run(800, 500);
  ExpectHostReportsEqual(ra, rb);

  // Off exports nothing; on exports every layer under the host0/ prefix.
  EXPECT_EQ(a.ObsMetricsJson(), "{}");
  EXPECT_EQ(a.ObsTraceJson(), "{}");
  const std::string metrics = b.ObsMetricsJson();
  EXPECT_TRUE(Contains(metrics, "host0/query/requests")) << metrics;
  EXPECT_TRUE(Contains(metrics, "host0/query/latency_ns"));
  EXPECT_TRUE(Contains(metrics, "host0/lookup/requests"));
  EXPECT_TRUE(Contains(metrics, "host0/dev0/sched/"));
  EXPECT_EQ(SumCounterPoints(metrics, "host0/query/requests"),
            static_cast<double>(rb.queries_completed));
  const std::string trace = b.ObsTraceJson();
  EXPECT_TRUE(Contains(trace, "\"traceEvents\":["));
  EXPECT_TRUE(Contains(trace, "\"name\":\"query\""));
  EXPECT_TRUE(Contains(trace, "\"name\":\"lookup\""));
  EXPECT_TRUE(Contains(b.ObsSloJson(), "query-p99"));
}

TEST(ObsServing, TraceSamplingBoundsSpanVolumeDeterministically) {
  const ModelConfig model = ObsModel();
  HostSimConfig every = ObsHostConfig();
  every.tuning.obs.enable_tracing = true;
  HostSimConfig tenth = ObsHostConfig();
  tenth.tuning.obs.enable_tracing = true;
  tenth.tuning.obs.trace_sample_every = 10;

  HostSimulation a(every);
  HostSimulation b(tenth);
  ASSERT_TRUE(a.LoadModel(model).ok());
  ASSERT_TRUE(b.LoadModel(model).ok());
  (void)a.Run(800, 500);
  (void)b.Run(800, 500);
  const size_t all = CountOccurrences(a.ObsTraceJson(), "\"name\":\"query\"");
  const size_t sampled = CountOccurrences(b.ObsTraceJson(), "\"name\":\"query\"");
  EXPECT_EQ(all, 2u * 500u);  // one "b" + one "e" record per span
  EXPECT_EQ(sampled, 2u * 50u);
}

// ---------------------------------------------------------------------------
// Cluster shapes.
// ---------------------------------------------------------------------------

struct ClusterRun {
  ClusterRunReport report;
  std::string metrics;
  std::string trace;
  std::string slo;
};

ClusterRun RunClusterObs(size_t hosts, const HostSimConfig& cfg, double qps,
                         uint64_t queries) {
  DisaggregatedConfig dc;
  dc.enabled = true;
  ClusterSimulation cluster(hosts, cfg, RoutingPolicy::kUserSticky, dc);
  EXPECT_TRUE(cluster.LoadModel(ObsModel()).ok());
  ClusterRun out;
  out.report = cluster.Run(qps, queries);
  out.metrics = cluster.ObsMetricsJson();
  out.trace = cluster.ObsTraceJson();
  out.slo = cluster.ObsSloJson();
  return out;
}

/// The subset of ClusterRunReport the obs on/off identity pins (the
/// full-field version lives in serving_test; this covers every family the
/// instrumentation touches).
void ExpectClusterReportsEqual(const ClusterRunReport& a,
                               const ClusterRunReport& b) {
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (size_t i = 0; i < a.hosts.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "host " << i);
    ExpectHostReportsEqual(a.hosts[i].run, b.hosts[i].run);
  }
  EXPECT_EQ(a.sm_device_reads, b.sm_device_reads);
  EXPECT_EQ(a.io.device_reads, b.io.device_reads);
  EXPECT_EQ(a.io.cross_request_merges, b.io.cross_request_merges);
  EXPECT_EQ(a.io.singleflight_hits, b.io.singleflight_hits);
  EXPECT_EQ(a.cross_host_hits, b.cross_host_hits);
  EXPECT_EQ(a.fabric.requests, b.fabric.requests);
  EXPECT_EQ(a.fabric.responses, b.fabric.responses);
  EXPECT_EQ(a.fabric.request_bytes, b.fabric.request_bytes);
  EXPECT_EQ(a.fabric.response_bytes, b.fabric.response_bytes);
}

TEST(ObsServing, DisaggregatedReportIsByteIdenticalWithObsOnAndOff) {
  const HostSimConfig off = ObsHostConfig();
  HostSimConfig on = off;
  on.tuning.obs = FullObs();
  const ClusterRun ro = RunClusterObs(2, off, 400, 600);
  const ClusterRun rx = RunClusterObs(2, on, 400, 600);
  ExpectClusterReportsEqual(ro.report, rx.report);
  EXPECT_EQ(ro.metrics, "{}");
  EXPECT_TRUE(Contains(rx.metrics, "host1/query/requests")) << rx.metrics;
  EXPECT_TRUE(Contains(rx.trace, "\"name\":\"query\""));
}

/// Two tenants of one model (fg + bg) co-located on one shared stack.
std::unique_ptr<ClusterSimulation> MakeTenantPair(const HostSimConfig& cfg) {
  const ModelConfig model = MakeTinyUniformModel(64, 2, 1, 40'000);
  const HostRole roles[] = {{model, 4 * kMiB, TenantClass::kForeground},
                            {model, 4 * kMiB, TenantClass::kBackground}};
  auto host = std::make_unique<ClusterSimulation>(2, cfg, RoutingPolicy::kLocal,
                                                  DisaggregatedConfig{.enabled = true});
  EXPECT_TRUE(host->LoadModels(roles).ok());
  return host;
}

TEST(ObsServing, SharedTenantsReportIsByteIdenticalWithObsOnAndOff) {
  HostSimConfig base = ObsHostConfig();
  base.fm_capacity = 24 * kMiB;
  base.seed = 77;
  HostSimConfig on = base;
  on.tuning.obs.enable_metrics = true;
  on.tuning.obs.enable_tracing = true;

  const auto a = MakeTenantPair(base);
  const auto b = MakeTenantPair(on);
  const ClusterRunReport ra = a->Run(/*total_qps=*/2 * 200, /*num_queries=*/2 * 300);
  const ClusterRunReport rb = b->Run(2 * 200, 2 * 300);
  ASSERT_EQ(ra.hosts.size(), rb.hosts.size());
  for (size_t i = 0; i < ra.hosts.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "tenant " << i);
    ExpectHostReportsEqual(ra.hosts[i].run, rb.hosts[i].run);
    EXPECT_EQ(ra.hosts[i].share.demand_bytes, rb.hosts[i].share.demand_bytes);
    EXPECT_EQ(ra.hosts[i].share.background_bytes, rb.hosts[i].share.background_bytes);
  }
  EXPECT_EQ(ra.sm_device_reads, rb.sm_device_reads);
  EXPECT_EQ(a->ObsMetricsJson(), "{}");
  const std::string metrics = b->ObsMetricsJson();
  EXPECT_TRUE(Contains(metrics, "host0/query/requests")) << metrics;
  EXPECT_TRUE(Contains(metrics, "host1/query/requests"));
  EXPECT_TRUE(Contains(metrics, "svc/"));
}

TEST(ObsServing, PrivateStackClusterExportsFromItsOneInstance) {
  HostSimConfig cfg = ObsHostConfig();
  cfg.tuning.obs = FullObs();
  ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky);
  ASSERT_TRUE(cluster.LoadModel(ObsModel()).ok());
  (void)cluster.Run(400, 600);
  const std::string metrics = cluster.ObsMetricsJson();
  EXPECT_TRUE(Contains(metrics, "host0/query/requests")) << metrics;
  EXPECT_TRUE(Contains(metrics, "host1/query/requests"));
  EXPECT_TRUE(Contains(metrics, "host1/dev0/"));
  EXPECT_FALSE(Contains(metrics, "svc/"));
  EXPECT_TRUE(Contains(cluster.ObsTraceJson(), "\"name\":\"query\""));
}

// ---------------------------------------------------------------------------
// One recording path: a tapped series cannot drift from its counter.
// ---------------------------------------------------------------------------

/// A ClusterSimulation that lends each host's engine to the pair check.
class InspectableCluster : public ClusterSimulation {
 public:
  using ClusterSimulation::ClusterSimulation;
  [[nodiscard]] InferenceEngine& engine(size_t i) { return *host(i).engine; }
};

TEST(ObsTaps, EveryTappedSeriesSumsToItsCounterUnderAFaultStorm) {
  // The disaggregated profile with every fault response on: deadlines,
  // hedges, checksums, the health monitor and re-replication.
  HostSimConfig cfg = ObsHostConfig();
  cfg.tuning.obs = MetricsOnly();
  // Batching, the row cache, prefetch and a shallow device queue put the
  // merge, cache-row, prefetch and spill counters to work too.
  cfg.tuning.max_batch_delay = Micros(200);
  cfg.tuning.enable_row_cache = true;
  cfg.tuning.enable_prefetch = true;
  cfg.tuning.io_queue_depth = 8;
  cfg.tuning.io_deadline = Millis(2);
  cfg.tuning.hedge_latency_factor = 2.0;
  cfg.tuning.hedge_min_samples = 64;
  // Copy retries back off long enough to outlast the error burst.
  cfg.tuning.retry_backoff_base = Millis(40);
  cfg.tuning.enable_checksums = true;
  cfg.tuning.enable_health_monitor = true;
  cfg.tuning.health_window = 8;
  cfg.tuning.health_probe_interval = 16;
  cfg.tuning.enable_replication = true;
  InspectableCluster cluster(2, cfg, RoutingPolicy::kUserSticky,
                             DisaggregatedConfig{.enabled = true});
  ASSERT_TRUE(cluster.LoadModel(ObsModel()).ok());
  FaultPlan plan;
  plan.ErrorBurst(At(Millis(100)), At(Millis(300)), /*probability=*/1.0, /*device=*/0)
      .FailSlow(At(Millis(350)), At(Millis(450)), /*multiplier=*/10.0, /*device=*/1)
      .FabricPartition(At(Millis(500)), At(Millis(550)))
      .FabricDrop(At(Millis(650)), At(Millis(800)), /*probability=*/0.2);
  FaultInjector injector(plan, cluster.host_store(0).loop(), /*seed=*/23);
  cluster.fabric_service()->InstallFaultInjector(&injector);
  (void)cluster.Run(/*total_qps=*/1000, /*num_queries=*/1200);

  Observability* obs = cluster.host_store(0).obs();
  obs->Finalize();
  MetricsRegistry& metrics = *obs->metrics();
  // (series, cumulative twin): counters sum their points, histograms their
  // window counts.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, uint64_t>> hists;
  for (size_t h = 0; h < cluster.size(); ++h) {
    const std::string host = "host" + std::to_string(h) + "/";
    LookupEngine& lookups = cluster.engine(h).lookups();
    const StatsRegistry& ls = lookups.stats();
    counters.emplace_back(host + "query/requests",
                          cluster.engine(h).stats().CounterValue("queries"));
    counters.emplace_back(host + "lookup/requests", ls.CounterValue("lookups"));
    counters.emplace_back(host + "lookup/cache_rows", ls.CounterValue("rows_cache_hit"));
    counters.emplace_back(host + "lookup/sm_rows", ls.CounterValue("rows_sm_read"));
    counters.emplace_back(host + "lookup/degraded", ls.CounterValue("degraded_lookups"));
    counters.emplace_back(host + "lookup/shed", ls.CounterValue("shed_lookups"));
    hists.emplace_back(host + "lookup/latency_ns", lookups.latency().count());
  }
  SharedDeviceService& svc = cluster.fabric_service()->device_service();
  for (size_t d = 0; d < svc.device_count(); ++d) {
    const std::string dev = "svc/dev" + std::to_string(d) + "/";
    const StatsRegistry& io = svc.io_engine(d).stats();
    counters.emplace_back(dev + "io/submitted", io.CounterValue("submitted"));
    counters.emplace_back(dev + "io/errors", io.CounterValue("errors"));
    counters.emplace_back(dev + "io/spilled", io.CounterValue("spilled"));
    hists.emplace_back(dev + "io/latency_ns", svc.io_engine(d).latency().count());
    const BatchScheduler& sched = svc.scheduler(d);
    const StatsRegistry& ss = sched.stats();
    counters.emplace_back(dev + "sched/sqes", ss.CounterValue("device_reads") +
                                                  ss.CounterValue("background_reads") +
                                                  ss.CounterValue("prefetch_reads"));
    counters.emplace_back(dev + "sched/singleflight", ss.CounterValue("singleflight_hits"));
    counters.emplace_back(dev + "sched/merges", ss.CounterValue("cross_request_merges"));
    counters.emplace_back(dev + "sched/hedges", ss.CounterValue("hedges_issued"));
    counters.emplace_back(dev + "sched/expired", ss.CounterValue("deadline_expired"));
    counters.emplace_back(dev + "sched/prefetch_dropped", ss.CounterValue("prefetch_dropped"));
    counters.emplace_back(dev + "sched/background_parked",
                          ss.CounterValue("background_parked"));
    hists.emplace_back(dev + "sched/read_latency_ns", sched.demand_latency_samples());
  }
  const StatsRegistry& health = svc.health().stats();
  counters.emplace_back("svc/health/sick_transitions", health.CounterValue("sick_transitions"));
  counters.emplace_back("svc/health/sheds", health.CounterValue("sheds"));
  const ReplicationManager& repl = *svc.replication();
  counters.emplace_back("svc/repl/extents_replicated", repl.extents_replicated());
  counters.emplace_back("svc/repl/extents_abandoned", repl.extents_abandoned());
  counters.emplace_back("svc/repl/bytes_copied", repl.bytes_copied());

  std::map<std::string, uint64_t> totals;
  for (const auto& [name, want] : counters) {
    double sum = 0;
    for (const WindowSample& w : metrics.Counter(name)->series()) sum += w.value;
    EXPECT_EQ(sum, static_cast<double>(want)) << name;
    totals[name] = want;
  }
  for (const auto& [name, want] : hists) {
    uint64_t count = 0;
    for (const WindowSample& w : metrics.Hist(name)->series()) count += w.count;
    EXPECT_EQ(count, want) << name;
    totals[name] = want;
  }
  // The run reached every fault response, so most sums above are not
  // vacuous zeros (the lane budgets never filled: nothing was dropped or
  // parked).
  for (const char* name :
       {"host0/lookup/cache_rows", "host0/lookup/degraded", "host1/lookup/shed",
        "svc/dev0/io/errors", "svc/dev0/io/spilled", "svc/dev0/sched/expired",
        "svc/dev1/sched/hedges", "svc/dev0/sched/merges", "svc/dev0/sched/singleflight",
        "svc/health/sick_transitions", "svc/health/sheds", "svc/repl/extents_replicated",
        "svc/repl/extents_abandoned", "svc/repl/bytes_copied"}) {
    EXPECT_GT(totals[name], 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// Export stability: the lint-time ordered-exports invariant, pinned at
// runtime. Every Obs*Json accessor must be a pure fold over ordered state —
// exporting twice, or exporting from a byte-identical fresh run, yields the
// exact same document. A hash-ordered container anywhere in the export
// pipeline would break one of these equalities.
// ---------------------------------------------------------------------------

TEST(ObsExportStability, ClusterExportsRepeatAndReproduceByteIdentically) {
  HostSimConfig cfg = ObsHostConfig();
  cfg.tuning.obs = FullObs();
  DisaggregatedConfig dc;
  dc.enabled = true;
  std::string first_metrics, first_trace, first_slo;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    ClusterSimulation cluster(2, cfg, RoutingPolicy::kUserSticky, dc);
    ASSERT_TRUE(cluster.LoadModel(ObsModel()).ok());
    (void)cluster.Run(400, 600);
    const std::string m = cluster.ObsMetricsJson();
    const std::string t = cluster.ObsTraceJson();
    const std::string s = cluster.ObsSloJson();
    EXPECT_FALSE(m == "{}");
    // Re-exporting moves no bytes...
    EXPECT_EQ(cluster.ObsMetricsJson(), m);
    EXPECT_EQ(cluster.ObsTraceJson(), t);
    EXPECT_EQ(cluster.ObsSloJson(), s);
    if (round == 0) {
      first_metrics = m;
      first_trace = t;
      first_slo = s;
    } else {
      // ...and neither does running the identical simulation again.
      EXPECT_EQ(m, first_metrics);
      EXPECT_EQ(t, first_trace);
      EXPECT_EQ(s, first_slo);
    }
  }
}

TEST(ObsExportStability, MultiTenantExportsRepeatAndReproduceByteIdentically) {
  HostSimConfig cfg = ObsHostConfig();
  cfg.fm_capacity = 24 * kMiB;
  cfg.tuning.obs = FullObs();
  std::string first_metrics, first_trace;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const auto host = MakeTenantPair(cfg);
    (void)host->Run(/*total_qps=*/2 * 200, /*num_queries=*/2 * 300);
    const std::string m = host->ObsMetricsJson();
    const std::string t = host->ObsTraceJson();
    EXPECT_FALSE(m == "{}");
    EXPECT_EQ(host->ObsMetricsJson(), m);
    EXPECT_EQ(host->ObsTraceJson(), t);
    if (round == 0) {
      first_metrics = m;
      first_trace = t;
    } else {
      EXPECT_EQ(m, first_metrics);
      EXPECT_EQ(t, first_trace);
    }
  }
}

}  // namespace
}  // namespace sdm
