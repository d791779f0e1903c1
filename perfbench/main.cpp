// sdm end-to-end benchmark: one process, one thread, three workloads.
//
//   perfbench --workload {m1_cached|m2_refresh|disagg16} --seed N
//             --seconds S --trace {0|1}
//
// Each run sets the system up several times (setup_s = median), warms it,
// measures the virtual-time metrics on a fixed amount of work (latency at a
// fixed offered rate, then the highest rate meeting the SLA on a rate grid),
// then runs the wall-clock serving phase for S seconds in equal segments
// with a reference kernel between segments (see perfbench_lib.h), and
// finally checks pooled outputs against a cache-bypassing reference.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the fixed-rate
// part of the virtual phase on two instances, the second wrapped in spans,
// requires their reports to be equal field by field, and prints the
// per-layer metrics (no rate grid: qps_at_sla is not reported there). The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// Exit status is non-zero when any correctness check fails.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "core/model_loader.h"
#include "core/model_updater.h"
#include "dlrm/model_zoo.h"
#include "embedding/quantization.h"
#include "perfbench_lib.h"
#include "serving/cluster.h"

using namespace sdm;
using perfbench::NowSeconds;

namespace {

// Segment estimator: rescale to a reference-kernel time of 8 ms (the
// kernel's typical time on a 4-vCPU Xeon container), with kernel samples
// smoothed over two neighbouring segments on each side. Chosen by
// measurement; see README.md.
constexpr perfbench::Normalizer kNormalizer{0.008, 2};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string Fmt(const char* fmt, auto... args) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

// ---------------------------------------------------------------------------
// Models and workload specs.
// ---------------------------------------------------------------------------

/// Table 8's M1-mini (bench_table8_m1_power): 12 user + 6 item tables.
ModelConfig M1Mini() {
  ModelConfig model;
  model.name = "m1-mini";
  model.item_batch_size = 10;
  model.user_batch_size = 1;
  model.num_mlp_layers = 31;
  model.avg_mlp_width = 300;
  Rng rng(0x81);
  for (int i = 0; i < 12; ++i) {
    TableConfig t;
    t.name = Fmt("m1.user.%d", i);
    t.role = TableRole::kUser;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 120;
    t.num_rows = 30'000;
    t.avg_pooling_factor = 10;
    t.zipf_alpha = rng.NextDouble(0.65, 0.9);
    model.tables.push_back(t);
  }
  for (int i = 0; i < 6; ++i) {
    TableConfig t;
    t.name = Fmt("m1.item.%d", i);
    t.role = TableRole::kItem;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 120;
    t.num_rows = 2'000;
    t.avg_pooling_factor = 4;
    t.zipf_alpha = rng.NextDouble(0.9, 1.15);
    model.tables.push_back(t);
  }
  return model;
}

/// Table 9's M2-mini (bench_table9_m2_scaleout): 30 user + 15 item tables.
ModelConfig M2Mini() {
  ModelConfig model;
  model.name = "m2-mini";
  model.item_batch_size = 30;
  model.user_batch_size = 1;
  model.num_mlp_layers = 43;
  model.avg_mlp_width = 735;
  Rng rng(0x92);
  for (int i = 0; i < 30; ++i) {
    TableConfig t;
    t.name = Fmt("m2.user.%d", i);
    t.role = TableRole::kUser;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 56;
    t.num_rows = 25'000;
    t.avg_pooling_factor = 8;
    t.zipf_alpha = rng.NextDouble(0.65, 0.9);
    model.tables.push_back(t);
  }
  for (int i = 0; i < 15; ++i) {
    TableConfig t;
    t.name = Fmt("m2.item.%d", i);
    t.role = TableRole::kItem;
    t.dtype = DataType::kInt8Rowwise;
    t.dim = 32;
    t.num_rows = 3'000;
    t.avg_pooling_factor = 4;
    t.zipf_alpha = rng.NextDouble(0.9, 1.15);
    model.tables.push_back(t);
  }
  return model;
}

/// bench_table9's disaggregated model: the replicated model every host serves.
ModelConfig DisaggModel() {
  ModelConfig model = MakeTinyUniformModel(64, 3, 1, 40'000);
  model.tables.back().num_rows = 4'000;
  for (auto& t : model.tables) {
    if (t.role == TableRole::kUser) t.zipf_alpha = 1.1;
  }
  return model;
}

struct Spec {
  std::string name;
  ModelConfig model;
  HostSimConfig host;
  size_t num_hosts = 1;          ///< > 1: disaggregated cluster on one loop
  SimDuration sla;               ///< p99 limit for qps_at_sla
  double fixed_qps = 0;          ///< offered rate for p50/p99 and the timed phase
  uint64_t batch_queries = 0;    ///< queries per serving batch (= one segment)
  uint64_t latency_batches = 0;  ///< batches in the fixed-rate latency phase
  uint64_t warmup_batches = 0;
  double probe_qps = 0;          ///< first rate of the qps_at_sla grid
  uint64_t probe_queries = 0;    ///< queries per qps_at_sla probe
  double refresh_fraction = 0;   ///< rows refreshed before every batch
  int setup_reps = 3;
};

/// The serving phase runs at least this many segments, however short
/// --seconds is, so its median has something to work with.
constexpr size_t kMinSegments = 12;

Spec MakeSpec(std::string_view name) {
  Spec s;
  s.name = std::string(name);
  if (name == "m1_cached") {
    s.model = M1Mini();
    s.host.host = MakeHwSS();
    s.host.fm_capacity = 28 * kMiB;
    s.host.sm_backing_per_device = 64 * kMiB;
    s.host.workload.num_users = 1500;
    s.host.workload.user_index_churn = 0.02;
    s.host.seed = 8;
    s.host.workload.seed = 8;
    s.sla = Millis(10);
    s.fixed_qps = 5600;
    s.probe_qps = 5600;
    s.batch_queries = 500;
    s.latency_batches = 32;
    s.warmup_batches = 12;
    s.probe_queries = 2000;
    s.setup_reps = 5;
  } else if (name == "m2_refresh") {
    s.model = M2Mini();
    s.host.host = MakeHwAN();
    s.host.fm_capacity = 24 * kMiB;
    s.host.sm_backing_per_device = 64 * kMiB;
    s.host.workload.num_users = 6000;
    s.host.workload.user_index_churn = 0.05;
    s.host.seed = 9;
    s.host.workload.seed = 9;
    s.sla = Millis(8);
    s.fixed_qps = 7000;
    s.probe_qps = 13000;
    s.batch_queries = 125;
    s.latency_batches = 16;
    s.warmup_batches = 8;
    s.probe_queries = 4000;
    s.refresh_fraction = 0.01;
    s.setup_reps = 5;
  } else if (name == "disagg16") {
    s.model = DisaggModel();
    s.host.host = MakeHwFAO(2);
    s.host.fm_capacity = 1 * kMiB;
    s.host.sm_backing_per_device = 64 * kMiB;
    s.host.workload.num_users = 2000;
    s.host.seed = 11;
    s.host.workload.seed = 11;
    s.host.tuning.max_batch_delay = Micros(200);
    s.host.tuning.sub_block_reads = false;
    s.host.tuning.enable_row_cache = false;
    s.host.tuning.fabric_latency = Micros(10);  // rtt 20us
    s.host.tuning.fabric_bandwidth_bytes_per_sec = 25e9;
    s.host.tuning.fabric_queueing = true;
    s.num_hosts = 16;
    s.sla = Millis(8);
    s.fixed_qps = 155000;
    s.probe_qps = 180000;
    s.batch_queries = 1600;
    s.latency_batches = 4;
    s.warmup_batches = 1;
    s.probe_queries = 6400;
  }
  return s;
}

// ---------------------------------------------------------------------------
// System under test: one host, or N disaggregated hosts on one loop.
// ---------------------------------------------------------------------------

struct System {
  std::unique_ptr<HostSimulation> host;
  std::unique_ptr<ClusterSimulation> cluster;
  std::vector<std::unique_ptr<InferenceEngine>> cluster_engines;
  std::unique_ptr<StickyRouter> router;
  EventLoop* loop = nullptr;
  std::vector<InferenceEngine*> engines;  ///< route targets
  std::vector<SdmStore*> stores;          ///< parallel to engines
  std::vector<SharedDeviceService*> services;  ///< distinct device stacks

  [[nodiscard]] size_t Route(UserId user) const {
    return router == nullptr ? 0 : router->Route(user);
  }
};

/// Construction plus model load, until the first query can be submitted.
std::unique_ptr<System> BuildSystem(const Spec& spec, std::string* error) {
  auto sys = std::make_unique<System>();
  if (spec.num_hosts <= 1) {
    sys->host = std::make_unique<HostSimulation>(spec.host);
    if (Status s = sys->host->LoadModel(spec.model); !s.ok()) {
      *error = s.ToString();
      return nullptr;
    }
    sys->loop = &sys->host->loop();
    sys->engines.push_back(&sys->host->engine());
    sys->stores.push_back(&sys->host->store());
    sys->services.push_back(&sys->host->store().device_service());
    return sys;
  }
  DisaggregatedConfig dc;
  dc.enabled = true;
  sys->cluster = std::make_unique<ClusterSimulation>(spec.num_hosts, spec.host,
                                                     RoutingPolicy::kUserSticky, dc);
  if (Status s = sys->cluster->LoadModel(spec.model); !s.ok()) {
    *error = s.ToString();
    return nullptr;
  }
  // The benchmark drives its own engine per host store so that it sees every
  // query's completion (the cluster's own run loop reports bucketed latencies).
  InferenceConfig icfg = spec.host.inference;
  icfg.accelerator = spec.host.host.accelerator;
  icfg.dense.flops_per_sec = spec.host.host.dense_flops;
  icfg.max_concurrent_queries = spec.host.host.cores();
  for (size_t i = 0; i < spec.num_hosts; ++i) {
    SdmStore* store = &sys->cluster->host_store(i);
    sys->cluster_engines.push_back(std::make_unique<InferenceEngine>(store, spec.model, icfg));
    sys->engines.push_back(sys->cluster_engines.back().get());
    sys->stores.push_back(store);
  }
  sys->services.push_back(&sys->cluster->fabric_service()->device_service());
  sys->router = std::make_unique<StickyRouter>(spec.num_hosts, RoutingPolicy::kUserSticky,
                                               spec.host.seed);
  sys->loop = sys->stores[0]->loop();
  return sys;
}

/// Benchmark-owned inputs: one query generator and Poisson arrival stream
/// per arrival source (one per host).
///
/// The workload's own seed fixes the user population and which rows are
/// hot; --seed samples the traffic from it: the arrival times, and where in
/// the query stream each source starts (0..kMaxSkip queries in). With the
/// population drawn from --seed as well, disagg16's p99_ms spread 5.3%
/// across five seeds instead of 0.8%.
struct Traffic {
  static constexpr uint64_t kMaxSkip = 2048;
  std::vector<std::unique_ptr<QueryGenerator>> generators;
  std::vector<Rng> arrivals;

  Traffic(const Spec& spec, uint64_t seed) {
    const size_t n = std::max<size_t>(1, spec.num_hosts);
    for (size_t i = 0; i < n; ++i) {
      WorkloadConfig w = spec.host.workload;
      w.seed = spec.host.workload.seed ^ Mix(i + 1);
      generators.push_back(std::make_unique<QueryGenerator>(spec.model, w));
      const uint64_t skip = Mix(seed ^ Mix(i + 7)) % kMaxSkip;
      for (uint64_t k = 0; k < skip; ++k) (void)generators.back()->Next();
      arrivals.emplace_back(Mix(seed ^ 0xa11e ^ Mix(i + 101)));
    }
  }
};

// ---------------------------------------------------------------------------
// Serving one batch.
// ---------------------------------------------------------------------------

/// Spans and wall-clock split of one batch (traced runs only).
struct BatchTiming {
  double loop_s = 0;      ///< RunUntilIdle
  double gen_s = 0;       ///< QueryGenerator::Next inside the loop
  double submit_s = 0;    ///< InferenceEngine::Submit inside the loop
  double callback_s = 0;  ///< benchmark completion callbacks inside the loop
};

struct BatchResult {
  uint64_t offered = 0;
  uint64_t completed = 0;  ///< callback fired with OK status
  uint64_t failed = 0;     ///< callback fired with an error status
  uint64_t degraded = 0;
  uint64_t events = 0;
  SimDuration drain;  ///< last completion minus last arrival
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> queue_ns;
  std::vector<int64_t> user_ns;
  std::vector<int64_t> item_ns;
  std::vector<int64_t> dense_ns;
  BatchTiming timing;

  /// Offered queries whose callback never fired (must be 0).
  [[nodiscard]] uint64_t lost() const { return offered - completed - failed; }

  void Append(const BatchResult& o) {
    offered += o.offered;
    completed += o.completed;
    failed += o.failed;
    degraded += o.degraded;
    events += o.events;
    drain = std::max(drain, o.drain);
    auto cat = [](std::vector<int64_t>& dst, const std::vector<int64_t>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    cat(latency_ns, o.latency_ns);
    cat(queue_ns, o.queue_ns);
    cat(user_ns, o.user_ns);
    cat(item_ns, o.item_ns);
    cat(dense_ns, o.dense_ns);
  }
};

/// Exact percentile of a sample (nearest rank on the sorted values).
int64_t Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

class BatchRunner {
 public:
  BatchRunner(const Spec& spec, System& sys, Traffic& traffic, perfbench::SpanLog* spans)
      : spec_(spec), sys_(sys), traffic_(traffic), spans_(spans) {}

  /// Offers `n` queries at `qps` (open loop, split evenly over the arrival
  /// sources), preceded by the workload's refresh when `refresh` is set,
  /// and runs to idle. Queries are generated in arrival order, each when
  /// its arrival event runs, so a batch never holds them all at once.
  BatchResult Serve(uint64_t n, double qps, bool traced, bool refresh = true) {
    perfbench::SpanLog* spans = traced ? spans_ : nullptr;
    const int32_t batch_span = spans != nullptr ? spans->Begin("batch") : 0;
    BatchResult r;
    if (refresh && spec_.refresh_fraction > 0) Refresh(spans);

    // ---- Arrival times per source, merged into one arrival order ----
    struct Arrival {
      SimTime at;
      uint32_t source;
    };
    const size_t sources = traffic_.generators.size();
    const uint64_t each = n / sources;
    std::vector<Arrival> order;
    order.reserve(each * sources);
    const SimTime t0 = sys_.loop->Now();
    for (size_t s = 0; s < sources; ++s) {
      SimTime t = t0;
      for (uint64_t i = 0; i < each; ++i) {
        t += Seconds(traffic_.arrivals[s].NextExponential(static_cast<double>(sources) / qps));
        order.push_back({t, static_cast<uint32_t>(s)});
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const Arrival& a, const Arrival& b) { return a.at < b.at; });

    // ---- Schedule, generate + submit at arrival, record at completion ----
    r.offered = order.size();
    SimTime last_done = t0;
    const SimTime last_arrival = order.empty() ? t0 : order.back().at;
    for (const Arrival& a : order) {
      const int64_t qid = static_cast<int64_t>(next_query_id_++);
      sys_.loop->ScheduleAt(a.at, [this, &r, &last_done, spans, source = a.source, qid] {
        QueryCallback done = [this, &r, &last_done, spans, qid](Status st,
                                                                const QueryTrace& tr) {
          const double c0 = spans != nullptr ? NowSeconds() : 0;
          const int32_t cs = spans != nullptr ? spans->Begin("serving.complete", qid) : 0;
          last_done = sys_.loop->Now();
          if (st.ok()) {
            ++r.completed;
            if (tr.degraded) ++r.degraded;
            r.latency_ns.push_back(tr.total.nanos());
            r.queue_ns.push_back(tr.queue_time.nanos());
            r.user_ns.push_back(tr.user_path.nanos());
            r.item_ns.push_back(tr.item_path.nanos());
            r.dense_ns.push_back(tr.dense_time.nanos());
          } else {
            ++r.failed;
          }
          if (spans != nullptr) {
            spans->End(cs);
            r.timing.callback_s += NowSeconds() - c0;
          }
        };
        QueryGenerator& gen = *traffic_.generators[source];
        if (spans == nullptr) {
          const Query q = gen.Next();
          sys_.engines[sys_.Route(q.user)]->Submit(q, std::move(done));
          return;
        }
        const double g0 = NowSeconds();
        const int32_t gs = spans->Begin("trace.gen", qid);
        const Query q = gen.Next();
        spans->End(gs);
        const double s0 = NowSeconds();
        r.timing.gen_s += s0 - g0;
        const int32_t ss = spans->Begin("serving.submit", qid);
        sys_.engines[sys_.Route(q.user)]->Submit(q, std::move(done));
        spans->End(ss);
        r.timing.submit_s += NowSeconds() - s0;
      });
    }
    const uint64_t ev0 = sys_.loop->events_run();
    const double l0 = NowSeconds();
    const int32_t loop_span = spans != nullptr ? spans->Begin("common.loop") : 0;
    sys_.loop->RunUntilIdle();
    if (spans != nullptr) spans->End(loop_span);
    r.timing.loop_s = NowSeconds() - l0;
    r.events = sys_.loop->events_run() - ev0;
    r.drain = last_done > last_arrival ? last_done - last_arrival : SimDuration(0);
    if (spans != nullptr) spans->End(batch_span);
    return r;
  }

  /// Online incremental refresh of refresh_fraction of every table's rows.
  void Refresh(perfbench::SpanLog* spans) {
    const double u0 = NowSeconds();
    const int32_t us = spans != nullptr ? spans->Begin("core.update") : 0;
    UpdateOptions opt;
    opt.row_fraction = spec_.refresh_fraction;
    opt.online = true;
    opt.seed = 99 + refreshes_;
    for (SdmStore* store : sys_.stores) {
      auto rep = ModelUpdater(store).Update(opt);
      if (rep.ok()) {
        update_bytes_ += rep.value().bytes_written;
      } else {
        update_errors_++;
      }
    }
    ++refreshes_;
    if (spans != nullptr) spans->End(us);
    last_update_s_ = NowSeconds() - u0;
  }

  [[nodiscard]] Bytes update_bytes() const { return update_bytes_; }
  [[nodiscard]] uint64_t update_errors() const { return update_errors_; }
  [[nodiscard]] double last_update_s() const { return last_update_s_; }

 private:
  const Spec& spec_;
  System& sys_;
  Traffic& traffic_;
  perfbench::SpanLog* spans_;
  uint64_t next_query_id_ = 0;
  uint64_t refreshes_ = 0;
  Bytes update_bytes_ = 0;
  uint64_t update_errors_ = 0;
  double last_update_s_ = 0;
};

// ---------------------------------------------------------------------------
// Layer counters (cumulative; the virtual phase reports deltas).
// ---------------------------------------------------------------------------

struct Counters {
  uint64_t row_hits = 0;
  uint64_t row_misses = 0;
  uint64_t pooled_hits = 0;
  uint64_t pooled_total = 0;
  uint64_t bus_bytes = 0;
  uint64_t useful_bytes = 0;
  uint64_t io_cpu_ns = 0;
  uint64_t sched_reads = 0;
  uint64_t singleflight = 0;
  uint64_t flushes = 0;
  uint64_t sched_sqes = 0;
  uint64_t cross_host_hits = 0;
  uint64_t fabric_bytes = 0;
  int64_t fabric_queue_ns = 0;
  uint64_t events = 0;

  bool operator==(const Counters&) const = default;
};

Counters Snapshot(System& sys) {
  Counters c;
  for (SdmStore* store : sys.stores) {
    if (DualRowCache* rc = store->row_cache(); rc != nullptr) {
      c.row_hits += rc->stats().hits;
      c.row_misses += rc->stats().misses;
    }
    if (PooledEmbeddingCache* pc = store->pooled_cache(); pc != nullptr) {
      c.pooled_hits += pc->stats().hits;
      c.pooled_total += pc->stats().hits + pc->stats().misses + pc->stats().uncacheable;
    }
  }
  for (SharedDeviceService* svc : sys.services) {
    for (size_t d = 0; d < svc->device_count(); ++d) {
      const auto& st = svc->device(d).stats();
      c.bus_bytes += st.CounterValue("bus_bytes");
      c.useful_bytes += st.CounterValue("useful_bytes");
      c.io_cpu_ns += static_cast<uint64_t>(svc->io_engine(d).cpu_time().nanos());
    }
    const CrossRequestIoStats io = svc->cross_request_io_stats();
    c.sched_reads += io.device_reads;
    c.singleflight += io.singleflight_hits;
    c.flushes += io.flushes;
    c.sched_sqes += io.device_reads + io.background_reads + io.prefetch_reads;
  }
  if (sys.cluster != nullptr) {
    FabricAttachedService* fab = sys.cluster->fabric_service();
    for (SdmStore* store : sys.stores) {
      c.cross_host_hits += fab->host_io_share(store->tenant_id()).cross_tenant_hits;
    }
    const FabricLinkStats fs = fab->fabric_stats();
    c.fabric_bytes = fs.request_bytes + fs.response_bytes;
    c.fabric_queue_ns = fs.queue_time.nanos();
  }
  c.events = sys.loop->events_run();
  return c;
}

Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  d.row_hits = b.row_hits - a.row_hits;
  d.row_misses = b.row_misses - a.row_misses;
  d.pooled_hits = b.pooled_hits - a.pooled_hits;
  d.pooled_total = b.pooled_total - a.pooled_total;
  d.bus_bytes = b.bus_bytes - a.bus_bytes;
  d.useful_bytes = b.useful_bytes - a.useful_bytes;
  d.io_cpu_ns = b.io_cpu_ns - a.io_cpu_ns;
  d.sched_reads = b.sched_reads - a.sched_reads;
  d.singleflight = b.singleflight - a.singleflight;
  d.flushes = b.flushes - a.flushes;
  d.sched_sqes = b.sched_sqes - a.sched_sqes;
  d.cross_host_hits = b.cross_host_hits - a.cross_host_hits;
  d.fabric_bytes = b.fabric_bytes - a.fabric_bytes;
  d.fabric_queue_ns = b.fabric_queue_ns - a.fabric_queue_ns;
  d.events = b.events - a.events;
  return d;
}

// ---------------------------------------------------------------------------
// The virtual-time phase: deterministic for a given seed.
// ---------------------------------------------------------------------------

struct VirtualReport {
  BatchResult fixed;  ///< the fixed-rate latency phase
  Counters layers;    ///< counter deltas over the fixed-rate phase
  int64_t p50_ns = 0;
  int64_t p99_ns = 0;
  double qps_at_sla = 0;
  uint64_t probes = 0;
  uint64_t offered = 0;  ///< every query offered in the phase
  uint64_t failed = 0;
  uint64_t lost = 0;
  int64_t device_read_p99_ns = 0;
  Bytes refresh_bytes = 0;  ///< bytes written by the phase's first refresh

  /// Name of the first field that differs, or "" when equal.
  [[nodiscard]] std::string FirstDifference(const VirtualReport& o) const {
    if (fixed.latency_ns != o.fixed.latency_ns) return "latency_ns";
    if (fixed.queue_ns != o.fixed.queue_ns) return "queue_ns";
    if (fixed.user_ns != o.fixed.user_ns) return "user_path_ns";
    if (fixed.item_ns != o.fixed.item_ns) return "item_path_ns";
    if (fixed.dense_ns != o.fixed.dense_ns) return "dense_ns";
    if (fixed.completed != o.fixed.completed) return "completed";
    if (fixed.degraded != o.fixed.degraded) return "degraded";
    if (fixed.events != o.fixed.events) return "events";
    if (!(layers == o.layers)) return "layer counters";
    if (p50_ns != o.p50_ns) return "p50";
    if (p99_ns != o.p99_ns) return "p99";
    if (qps_at_sla != o.qps_at_sla) return "qps_at_sla";
    if (offered != o.offered || failed != o.failed || lost != o.lost) return "offered/failed";
    if (device_read_p99_ns != o.device_read_p99_ns) return "device read p99";
    if (refresh_bytes != o.refresh_bytes) return "refresh bytes";
    return "";
  }
};

/// `search_sla` adds the qps_at_sla probes after the fixed-rate phase.
VirtualReport RunVirtualPhase(const Spec& spec, System& sys, BatchRunner& runner, bool traced,
                              bool search_sla) {
  VirtualReport v;
  auto account = [&v](const BatchResult& b) {
    v.offered += b.offered;
    v.failed += b.failed;
    v.lost += b.lost();
  };
  for (uint64_t i = 0; i < spec.warmup_batches; ++i) {
    account(runner.Serve(spec.batch_queries, spec.fixed_qps, traced));
  }
  const Bytes bytes0 = runner.update_bytes();
  const Counters c0 = Snapshot(sys);
  for (uint64_t i = 0; i < spec.latency_batches; ++i) {
    BatchResult b = runner.Serve(spec.batch_queries, spec.fixed_qps, traced);
    account(b);
    v.fixed.Append(b);
    if (i == 0) v.refresh_bytes = runner.update_bytes() - bytes0;
  }
  v.layers = Delta(c0, Snapshot(sys));
  v.p50_ns = Percentile(v.fixed.latency_ns, 0.50);
  v.p99_ns = Percentile(v.fixed.latency_ns, 0.99);
  int64_t dev_p99 = 0;
  for (SharedDeviceService* svc : sys.services) {
    for (size_t d = 0; d < svc->device_count(); ++d) {
      dev_p99 = std::max(dev_p99, svc->device(d).read_latency().P99());
    }
  }
  v.device_read_p99_ns = dev_p99;
  if (!search_sla) return v;

  // ---- qps_at_sla: probe a fixed grid of rates upward from probe_qps
  // (downward while it fails) and interpolate where p99 crosses the SLA.
  // A fixed grid keeps every seed's probes at the same rates, so the
  // estimate moves smoothly with the measured p99s instead of jumping with
  // a bisection path. ----
  auto probe = [&](double qps, int64_t* p99) {
    // Probes serve the steady state between refreshes.
    BatchResult b = runner.Serve(spec.probe_queries, qps, traced, /*refresh=*/false);
    account(b);
    ++v.probes;
    *p99 = Percentile(b.latency_ns, 0.99);
    const bool pass = *p99 <= spec.sla.nanos() && b.failed == 0 && b.degraded == 0 &&
                      b.completed == b.offered && b.drain <= spec.sla;
    std::printf("# probe %.0f q/s: p99 %.4f ms, drain %.4f ms, %s\n", qps, *p99 / 1e6,
                b.drain.millis(), pass ? "pass" : "fail");
    return pass;
  };
  constexpr double kGridStep = 0.06;  // of probe_qps
  double lo = 0;
  double hi = 0;
  int64_t p99_lo = 0;
  int64_t p99_hi = 0;
  int64_t p99 = 0;
  if (probe(spec.probe_qps, &p99)) {
    lo = spec.probe_qps;
    p99_lo = p99;
    for (int k = 1; k <= 20; ++k) {
      const double rate = spec.probe_qps * (1 + kGridStep * k);
      if (!probe(rate, &p99)) {
        hi = rate;
        p99_hi = p99;
        break;
      }
      lo = rate;
      p99_lo = p99;
    }
  } else {
    hi = spec.probe_qps;
    p99_hi = p99;
    for (int k = 1; k <= 10; ++k) {
      const double rate = spec.probe_qps * (1 - kGridStep * k);
      if (probe(rate, &p99)) {
        lo = rate;
        p99_lo = p99;
        break;
      }
      hi = rate;
      p99_hi = p99;
    }
  }
  // Interpolate in log(p99): past the knee p99 explodes, and a linear
  // interpolation would pin the estimate to the passing rate. A failing
  // point whose p99 is still under the SLA failed on backlog or errors;
  // the estimate then stays at the last passing rate.
  double frac = 0;
  if (hi > lo && p99_lo > 0 && p99_hi > spec.sla.nanos() && p99_hi > p99_lo) {
    frac = std::log(static_cast<double>(spec.sla.nanos()) / static_cast<double>(p99_lo)) /
           std::log(static_cast<double>(p99_hi) / static_cast<double>(p99_lo));
  }
  v.qps_at_sla = lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
  return v;
}

// ---------------------------------------------------------------------------
// The wall-clock serving phase.
// ---------------------------------------------------------------------------

struct TimedPhase {
  std::vector<perfbench::Segment> segments;
  std::vector<double> work;  ///< completed queries per segment
  std::vector<BatchTiming> timing;
  std::vector<double> update_s;
  std::vector<double> events;
  std::vector<bool> traced;
  uint64_t offered = 0;
  uint64_t failed = 0;
  uint64_t lost = 0;
  size_t max_rss = 0;  ///< largest RSS sampled after a segment
};

/// Serves batches until `seconds` have passed (and at least kMinSegments),
/// running the reference kernel between batches. With `alternate_trace`,
/// every other segment is traced.
TimedPhase RunTimedPhase(const Spec& spec, BatchRunner& runner, perfbench::ReferenceKernel& kernel,
                         double seconds, bool alternate_trace) {
  TimedPhase t;
  const double start = NowSeconds();
  double k_prev = kernel.Run();
  for (size_t i = 0; NowSeconds() - start < seconds || i < kMinSegments; ++i) {
    const bool traced = alternate_trace && i % 2 == 1;
    const double s0 = NowSeconds();
    const BatchResult b = runner.Serve(spec.batch_queries, spec.fixed_qps, traced);
    const double seg = NowSeconds() - s0;
    const double k_next = kernel.Run();
    t.segments.push_back({seg, k_prev, k_next});
    t.work.push_back(static_cast<double>(b.completed));
    t.timing.push_back(b.timing);
    t.update_s.push_back(spec.refresh_fraction > 0 ? runner.last_update_s() : 0);
    t.events.push_back(static_cast<double>(b.events));
    t.traced.push_back(traced);
    t.offered += b.offered;
    t.failed += b.failed;
    t.lost += b.lost();
    t.max_rss = std::max(t.max_rss, perfbench::CurrentRssBytes());
    k_prev = k_next;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Correctness: pooled outputs versus a cache-bypassing reference.
// ---------------------------------------------------------------------------

struct CheckResult {
  uint64_t lookups = 0;
  uint64_t mismatches = 0;
  double worst = 0;
};

CheckResult CheckPooledOutputs(const Spec& spec, System& sys, Traffic& traffic, size_t n) {
  CheckResult c;
  const size_t tables = spec.model.tables.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t source = k % traffic.generators.size();
    const Query q = traffic.generators[source]->Next();
    const size_t host = sys.Route(q.user);
    const size_t t = (k * 7 + 3) % tables;
    LookupRequest req;
    req.table = MakeTableId(static_cast<uint32_t>(t));
    req.indices = q.indices[t];
    std::vector<float> got;
    bool ok = false;
    sys.engines[host]->lookups().Lookup(
        req, [&](Status st, std::vector<float> pooled, const LookupTrace& tr) {
          ok = st.ok() && !tr.degraded;
          got = std::move(pooled);
        });
    sys.loop->RunUntilIdle();
    const std::vector<float> want =
        perfbench::ReferencePooledSum(*sys.stores[host], req.table, q.indices[t]);
    const double diff = perfbench::MaxRelDiff(got, want);
    ++c.lookups;
    c.worst = std::max(c.worst, std::isfinite(diff) ? diff : 1e9);
    if (!ok || !(diff <= 1e-4)) ++c.mismatches;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Per-layer replays (traced runs).
// ---------------------------------------------------------------------------

/// Every (table, row) the queries touch, as stored-row spans and cache keys.
struct RowReplay {
  struct Row {
    DataType dtype;
    uint32_t dim;
    std::span<const uint8_t> bytes;
  };
  std::vector<Row> rows;
  std::vector<RowKey> cache_keys;  ///< rows of SM tables that use the cache
};

RowReplay RecordRows(System& sys, Traffic& traffic, size_t queries) {
  RowReplay r;
  SdmStore& store = *sys.stores[0];
  for (size_t k = 0; k < queries; ++k) {
    const Query q = traffic.generators[k % traffic.generators.size()]->Next();
    for (size_t t = 0; t < q.indices.size(); ++t) {
      const TableId id = MakeTableId(static_cast<uint32_t>(t));
      const TableRuntime& rt = store.table(id);
      for (const RowIndex idx : q.indices[t]) {
        const auto row = perfbench::BackingRow(store, id, idx);
        if (row.empty()) continue;
        r.rows.push_back({rt.config.dtype, rt.config.dim, row});
        if (rt.tier == MemoryTier::kSm && rt.cache_enabled && store.row_cache() != nullptr) {
          r.cache_keys.push_back(RowKey{id, idx});
        }
      }
    }
  }
  return r;
}

/// Runs `chunk()` `chunks` times with the kernel between runs and returns
/// the drift-normalised median seconds per unit.
template <typename Fn>
double NormalizedChunks(perfbench::ReferenceKernel& kernel, size_t chunks, double units_per_chunk,
                        Fn&& chunk) {
  std::vector<perfbench::Segment> segs;
  std::vector<double> cost;
  std::vector<double> units;
  double k_prev = kernel.Run();
  for (size_t i = 0; i < chunks; ++i) {
    const double t0 = NowSeconds();
    chunk();
    const double dt = NowSeconds() - t0;
    const double k_next = kernel.Run();
    segs.push_back({dt, k_prev, k_next});
    cost.push_back(dt);
    units.push_back(units_per_chunk);
    k_prev = k_next;
  }
  return perfbench::NormalizedMedianCost(segs, cost, units, kNormalizer);
}

double PoolNsPerRow(const RowReplay& rr, perfbench::ReferenceKernel& kernel) {
  if (rr.rows.empty()) return 0;
  uint32_t max_dim = 0;
  for (const RowReplay::Row& row : rr.rows) max_dim = std::max(max_dim, row.dim);
  std::vector<float> acc(max_dim, 0.0F);
  constexpr int kPasses = 4;
  const double s = NormalizedChunks(kernel, 15, static_cast<double>(rr.rows.size() * kPasses), [&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const RowReplay::Row& row : rr.rows) {
        DequantizeAccumulate(row.dtype, row.bytes, std::span<float>(acc.data(), row.dim));
      }
    }
  });
  // Printing the accumulator keeps the replay from being optimised away.
  std::printf("# pool replay: %zu rows (checksum %.3g)\n", rr.rows.size(),
              static_cast<double>(acc[0]));
  return s * 1e9;
}

double CacheProbeNs(System& sys, const RowReplay& rr, perfbench::ReferenceKernel& kernel) {
  DualRowCache* live = sys.stores[0]->row_cache();
  if (live == nullptr || rr.cache_keys.empty()) return 0;
  DualCacheConfig cfg;
  cfg.capacity = live->capacity();
  DualRowCache cache(cfg);
  SdmStore& store = *sys.stores[0];
  for (size_t t = 0; t < store.table_count(); ++t) {
    const TableId id = MakeTableId(static_cast<uint32_t>(t));
    cache.RegisterTable(id, store.table(id).config.row_bytes());
  }
  std::vector<uint8_t> buf(4096, 0x5a);
  auto pass = [&] {
    for (const RowKey& key : rr.cache_keys) {
      const Bytes rb = store.table(key.table).config.row_bytes();
      size_t len = 0;
      if (!cache.Lookup(key, std::span<uint8_t>(buf.data(), rb), &len)) {
        cache.Insert(key, std::span<const uint8_t>(buf.data(), rb));
      }
    }
  };
  pass();  // fill
  return NormalizedChunks(kernel, 15, static_cast<double>(rr.cache_keys.size()), pass) * 1e9;
}

/// One ModelLoader::Load into a fresh standalone store of the host's shape.
double StandaloneLoadSeconds(const Spec& spec, std::string* error) {
  EventLoop loop;
  SdmStoreConfig scfg;
  scfg.fm_capacity = spec.host.fm_capacity;
  for (const auto& ssd : spec.host.host.ssds) {
    scfg.sm_specs.push_back(ssd);
    scfg.sm_backing_bytes.push_back(spec.host.sm_backing_per_device);
  }
  scfg.tuning = spec.host.tuning;
  scfg.seed = spec.host.seed;
  SdmStore store(scfg, &loop);
  const double t0 = NowSeconds();
  auto rep = ModelLoader::Load(spec.model, spec.host.loader, &store);
  const double dt = NowSeconds() - t0;
  if (!rep.ok()) *error = rep.status().ToString();
  return dt;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the metrics and the final JSON line; returns `correct`, or false
/// when a metric is not a finite number (it is then reported as 0).
bool PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 std::vector<Metric> metrics) {
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("# CHECK FAILED: %s is not finite\n", m.name.c_str());
      m.value = 0;
      correct = false;
    }
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct;
}

void PrintSpread(const char* label, const perfbench::RateEstimate& e) {
  std::printf("# %s: %zu segments, median %.1f/s (raw %.1f/s), spread IQR/median %.3f "
              "(raw %.3f)\n",
              label, e.segments, e.median, e.raw_median, e.spread, e.raw_spread);
}

/// Raw per-segment data: seconds, kernel before, kernel after, queries.
void PrintSegments(const TimedPhase& t) {
  std::printf("# segments (s, kernel_before_s, kernel_after_s, queries):");
  for (size_t i = 0; i < t.segments.size(); ++i) {
    std::printf(" %.5f,%.5f,%.5f,%.0f", t.segments[i].seconds, t.segments[i].kernel_before_s,
                t.segments[i].kernel_after_s, t.work[i]);
  }
  std::printf("\n");
}

void PrintKernelTimes(const TimedPhase& t) {
  std::vector<double> k;
  for (const auto& s : t.segments) k.push_back(s.kernel_before_s * 1e3);
  if (!t.segments.empty()) k.push_back(t.segments.back().kernel_after_s * 1e3);
  const perfbench::Quartiles q = perfbench::QuartilesOf(k);
  std::printf("# reference kernel ms: n=%zu min %.3f q1 %.3f median %.3f q3 %.3f max %.3f\n",
              k.size(), *std::min_element(k.begin(), k.end()), q.q1, q.q2, q.q3,
              *std::max_element(k.begin(), k.end()));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {m1_cached|m2_refresh|disagg16} --seed N "
                 "--seconds S --trace {0|1} [--trace-dir DIR]\n");
    return 2;
  }
  SetLogLevel(LogLevel::kError);
  const Spec spec = MakeSpec(args.workload);
  if (spec.batch_queries == 0) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced_run = args.trace == 1;
  std::printf("# workload %s seed %" PRIu64 " seconds %.0f trace %d\n", spec.name.c_str(),
              args.seed, args.seconds, args.trace);

  // ---- Set-up: construct + load several times; the last instance serves.
  // In a traced run the first instance is the untraced reference. ----
  std::vector<double> setups;
  std::unique_ptr<System> sys;
  std::string error;
  std::unique_ptr<VirtualReport> untraced_ref;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    sys.reset();
    const double t0 = NowSeconds();
    sys = BuildSystem(spec, &error);
    setups.push_back(NowSeconds() - t0);
    if (sys == nullptr) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    if (traced_run && rep == 0) {
      Traffic traffic(spec, args.seed);
      BatchRunner runner(spec, *sys, traffic, nullptr);
      untraced_ref = std::make_unique<VirtualReport>(
          RunVirtualPhase(spec, *sys, runner, /*traced=*/false, /*search_sla=*/false));
    }
  }
  const double setup_s = perfbench::Median(setups);
  std::printf("# setup_s reps:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");

  // ---- Virtual-time phase ----
  perfbench::SpanLog spans;
  Traffic traffic(spec, args.seed);
  BatchRunner runner(spec, *sys, traffic, &spans);
  const VirtualReport v = RunVirtualPhase(spec, *sys, runner, traced_run, !traced_run);
  attempted += v.offered;
  failed += v.failed + v.lost;
  bool correct = true;
  if (v.lost > 0 || v.failed > 0) {
    std::printf("# CHECK FAILED: virtual phase offered %" PRIu64 ", failed %" PRIu64
                ", never completed %" PRIu64 "\n",
                v.offered, v.failed, v.lost);
    correct = false;
  }
  if (runner.update_errors() > 0) {
    std::printf("# CHECK FAILED: %" PRIu64 " model updates failed\n", runner.update_errors());
    correct = false;
  }
  if (untraced_ref != nullptr) {
    const std::string diff = untraced_ref->FirstDifference(v);
    if (!diff.empty()) {
      std::printf("# CHECK FAILED: traced virtual report differs from untraced in %s\n",
                  diff.c_str());
      correct = false;
    } else {
      std::printf("# traced virtual report equals the untraced one field by field\n");
    }
  }
  const double queries = static_cast<double>(std::max<uint64_t>(1, v.fixed.completed));
  const double ok_share =
      static_cast<double>(v.fixed.completed - v.fixed.degraded) /
      static_cast<double>(std::max<uint64_t>(1, v.fixed.offered));
  std::printf("# fixed rate %.0f q/s: %zu latency samples, p50 %.4f ms, p99 %.4f ms; "
              "qps_at_sla %.2f after %" PRIu64 " probes\n",
              spec.fixed_qps, v.fixed.latency_ns.size(), v.p50_ns / 1e6, v.p99_ns / 1e6,
              v.qps_at_sla, v.probes);
  const size_t rss_before_kernel = perfbench::PeakRssBytes();

  // ---- Wall-clock serving phase ----
  perfbench::ReferenceKernel kernel;
  const size_t kernel_rss = kernel.footprint_bytes();
  TimedPhase t = RunTimedPhase(spec, runner, kernel, args.seconds, traced_run);
  attempted += t.offered;
  failed += t.failed + t.lost;
  if (t.lost > 0 || t.failed > 0) {
    std::printf("# CHECK FAILED: timed phase offered %" PRIu64 ", failed %" PRIu64
                ", never completed %" PRIu64 "\n",
                t.offered, t.failed, t.lost);
    correct = false;
  }
  PrintKernelTimes(t);
  PrintSegments(t);

  // ---- Correctness: pooled outputs versus the backing bytes ----
  const CheckResult check = CheckPooledOutputs(spec, *sys, traffic, 64);
  attempted += check.lookups;
  failed += check.mismatches;
  std::printf("# pooled-output check: %" PRIu64 " lookups, %" PRIu64
              " mismatches, worst rel diff %.3g\n",
              check.lookups, check.mismatches, check.worst);
  if (check.mismatches > 0) correct = false;

  std::vector<Metric> metrics;
  auto seg_subset = [&](bool want_traced) {
    std::vector<perfbench::Segment> s;
    std::vector<double> w;
    for (size_t i = 0; i < t.segments.size(); ++i) {
      if (t.traced[i] != want_traced) continue;
      s.push_back(t.segments[i]);
      w.push_back(t.work[i]);
    }
    return perfbench::EstimateRate(s, w, kNormalizer);
  };
  const perfbench::RateEstimate untraced_rate = seg_subset(false);
  PrintSpread("sim_queries_per_s", untraced_rate);

  if (!traced_run) {
    const double peak = static_cast<double>(std::max(
        rss_before_kernel,
        t.max_rss > kernel_rss ? t.max_rss - kernel_rss : size_t{0}));
    metrics = {
        {"setup_s", setup_s, "s"},
        {"sim_queries_per_s", untraced_rate.median, "queries/s"},
        {"peak_rss_mib", peak / (1024.0 * 1024.0), "MiB"},
        {"p50_ms", v.p50_ns / 1e6, "ms"},
        {"p99_ms", v.p99_ns / 1e6, "ms"},
        {"qps_at_sla", v.qps_at_sla, "queries/s"},
        {"ok_share", ok_share, "ratio"},
    };
    return PrintResult(correct, attempted, failed, std::move(metrics)) ? 0 : 1;
  }

  // ---- Per-layer metrics (traced run) ----
  const perfbench::RateEstimate traced_rate = seg_subset(true);
  PrintSpread("sim_queries_per_s traced", traced_rate);
  std::vector<perfbench::Segment> ts;
  std::vector<double> gen, submit, loop_self, upd, q_units, ev_units, ones;
  for (size_t i = 0; i < t.segments.size(); ++i) {
    if (!t.traced[i]) continue;
    ts.push_back(t.segments[i]);
    gen.push_back(t.timing[i].gen_s);
    submit.push_back(t.timing[i].submit_s);
    loop_self.push_back(t.timing[i].loop_s - t.timing[i].gen_s - t.timing[i].submit_s -
                        t.timing[i].callback_s);
    upd.push_back(t.update_s[i]);
    q_units.push_back(t.work[i]);
    ev_units.push_back(t.events[i]);
    ones.push_back(1.0);
  }
  auto norm = [&](const std::vector<double>& cost, const std::vector<double>& units) {
    return perfbench::NormalizedMedianCost(ts, cost, units, kNormalizer);
  };

  std::vector<double> loads;
  for (int i = 0; i < 3; ++i) loads.push_back(StandaloneLoadSeconds(spec, &error));
  if (!error.empty()) {
    std::printf("# CHECK FAILED: standalone load: %s\n", error.c_str());
    correct = false;
  }
  const double load_s = perfbench::Median(loads);
  const RowReplay rows = RecordRows(*sys, traffic, spec.num_hosts > 1 ? 200 : 100);
  const double pool_ns = PoolNsPerRow(rows, kernel);
  const double probe_ns = CacheProbeNs(*sys, rows, kernel);

  const Counters& c = v.layers;
  const double row_total = static_cast<double>(c.row_hits + c.row_misses);
  Bytes logical = 0;
  for (SdmStore* s : sys->stores) logical += s->sm_used_bytes();
  Bytes unique = 0;
  for (SharedDeviceService* svc : sys->services) unique += svc->sm_used_bytes();
  const double ms = 1e-6;
  metrics = {
      {"trace.gen_us_per_query", norm(gen, q_units) * 1e6, "us"},
      {"trace.overhead_queries_per_s", untraced_rate.median - traced_rate.median, "queries/s"},
      {"core.load_s", load_s, "s"},
      {"core.loads_per_setup", load_s > 0 ? setup_s / load_s : 0, "count"},
      {"core.update_ms", spec.refresh_fraction > 0 ? norm(upd, ones) * 1e3 : 0, "ms"},
      {"embedding.pool_ns_per_row", pool_ns, "ns"},
      {"cache.row_hit_rate", row_total > 0 ? c.row_hits / row_total : 0, "ratio"},
      {"cache.pooled_hit_rate",
       c.pooled_total > 0 ? static_cast<double>(c.pooled_hits) / c.pooled_total : 0, "ratio"},
      {"cache.probe_ns", probe_ns, "ns"},
      {"serving.queue_ms_p99", Percentile(v.fixed.queue_ns, 0.99) * ms, "ms"},
      {"serving.user_path_ms_p99", Percentile(v.fixed.user_ns, 0.99) * ms, "ms"},
      {"serving.item_path_ms_p99", Percentile(v.fixed.item_ns, 0.99) * ms, "ms"},
      {"serving.dense_ms_p50", Percentile(v.fixed.dense_ns, 0.50) * ms, "ms"},
      {"serving.submit_us_per_query", norm(submit, q_units) * 1e6, "us"},
      {"common.events_per_query", static_cast<double>(v.fixed.events) / queries, "count"},
      {"common.loop_ns_per_event", norm(loop_self, ev_units) * 1e9, "ns"},
      {"common.loop_us_per_query", norm(loop_self, q_units) * 1e6, "us"},
      {"sched.device_reads_per_query", c.sched_reads / queries, "count"},
      {"sched.singleflight_hits_per_query", c.singleflight / queries, "count"},
      {"sched.batch_occupancy",
       c.flushes > 0 ? static_cast<double>(c.sched_sqes) / c.flushes : 0, "count"},
      {"io.cpu_us_per_query", c.io_cpu_ns / queries / 1e3, "us"},
      {"device.bus_bytes_per_query", c.bus_bytes / queries, "bytes"},
      {"device.read_amplification",
       c.useful_bytes > 0 ? static_cast<double>(c.bus_bytes) / c.useful_bytes : 0, "ratio"},
      {"device.read_p99_us", v.device_read_p99_ns / 1e3, "us"},
      {"device.write_mib", v.refresh_bytes / (1024.0 * 1024.0), "MiB"},
      {"fabric.bytes_per_query", c.fabric_bytes / queries, "bytes"},
      {"fabric.queue_us", c.fabric_queue_ns / queries / 1e3, "us"},
      {"tenant.cross_host_hits_per_query", c.cross_host_hits / queries, "count"},
      {"tenant.dedup_ratio",
       sys->cluster != nullptr && unique > 0 ? static_cast<double>(logical) / unique : 0,
       "ratio"},
  };

  // ---- Spans: self time per layer, written out at the end ----
  std::printf("# span self time (s) over %zu spans:\n", spans.spans().size());
  for (const auto& [name, self] : spans.SelfSeconds()) {
    std::printf("#   %-20s %.4f\n", name.c_str(), self);
  }
  const std::string path =
      args.trace_dir + "/" + spec.name + "-seed" + std::to_string(args.seed) + ".json";
  if (spans.WriteChromeTrace(path)) {
    std::printf("# spans written to %s\n", path.c_str());
  } else {
    std::printf("# spans not written (cannot open %s)\n", path.c_str());
  }
  return PrintResult(correct, attempted, failed, std::move(metrics)) ? 0 : 1;
}
