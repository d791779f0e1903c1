#include "serving/run_report.h"

#include <algorithm>

#include "common/kv_format.h"
#include "fault/replication_manager.h"

namespace sdm {

namespace {

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

struct RunMeter::HostCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t pooled_hits = 0;
  uint64_t pooled_lookups = 0;
  PrefetchStats prefetch;
  uint64_t io_retries = 0;
  uint64_t rows_failed = 0;
  uint64_t shed = 0;
  uint64_t replica_reads = 0;
  uint64_t read_repairs = 0;
  uint64_t cpu_ns = 0;  ///< lookup engine + dense
  TenantIoShare share;
  SimDuration throttle_queue_time;

  explicit HostCounters(const MeteredHost& h) {
    SdmStore& store = *h.store;
    if (const DualRowCache* rc = store.row_cache(); rc != nullptr) {
      cache_hits = rc->stats().hits;
      cache_lookups = rc->stats().hits + rc->stats().misses;
    }
    if (const PooledEmbeddingCache* pc = store.pooled_cache(); pc != nullptr) {
      pooled_hits = pc->stats().hits;
      pooled_lookups = pc->stats().hits + pc->stats().misses + pc->stats().uncacheable;
    }
    prefetch = store.prefetch_stats();
    const StatsRegistry& lk = h.engine->lookups().stats();
    io_retries = lk.CounterValue("io_retries");
    rows_failed = lk.CounterValue("rows_failed");
    shed = lk.CounterValue("shed_lookups");
    replica_reads = lk.CounterValue("replica_reads");
    read_repairs = lk.CounterValue("read_repairs");
    cpu_ns = static_cast<uint64_t>(h.engine->lookups().cpu_time().nanos()) +
             h.engine->stats().CounterValue("cpu_ns");
    share = store.device_service().tenant_io_share(store.tenant_id());
    throttle_queue_time = store.device_service().throttle_queue_time(store.tenant_id());
  }
};

struct RunMeter::StackCounters {
  uint64_t reads = 0;
  uint64_t bus_bytes = 0;
  uint64_t useful_bytes = 0;
  uint64_t blocks_corrupt = 0;
  uint64_t io_errors = 0;
  uint64_t io_cpu_ns = 0;
  uint64_t extents_replicated = 0;
  CrossRequestIoStats io;

  explicit StackCounters(SharedDeviceService& s) : io(s.cross_request_io_stats()) {
    for (size_t d = 0; d < s.device_count(); ++d) {
      const StatsRegistry& st = s.device(d).stats();
      reads += st.CounterValue("reads");
      bus_bytes += st.CounterValue("bus_bytes");
      useful_bytes += st.CounterValue("useful_bytes");
      blocks_corrupt += st.CounterValue("blocks_corrupt");
      io_errors += s.io_engine(d).stats().CounterValue("errors");
      io_cpu_ns += static_cast<uint64_t>(s.io_engine(d).cpu_time().nanos());
    }
    if (const ReplicationManager* repl = s.replication(); repl != nullptr) {
      extents_replicated = repl->extents_replicated();
    }
  }
};

RunMeter::RunMeter(std::vector<MeteredHost> hosts, FabricAttachedService* fabric)
    : hosts_(std::move(hosts)), fabric_(fabric), begin_(hosts_.front().store->loop()->Now()) {
  for (const MeteredHost& h : hosts_) hosts0_.emplace_back(h);
  for (SharedDeviceService* s : Stacks()) stacks0_.emplace_back(*s);
  if (fabric_ != nullptr) fabric0_ = fabric_->fabric_stats();
}

RunMeter::~RunMeter() = default;

std::vector<SharedDeviceService*> RunMeter::Stacks() const {
  if (fabric_ != nullptr) return {&fabric_->device_service()};
  std::vector<SharedDeviceService*> stacks;
  for (const MeteredHost& h : hosts_) stacks.push_back(&h.store->device_service());
  return stacks;
}

ClusterRunReport RunMeter::Finish(std::span<const ArrivalStats> arrivals,
                                  double offered_qps) const {
  ClusterRunReport r;
  const double span_s = (hosts_.front().store->loop()->Now() - begin_).seconds();
  const std::vector<SharedDeviceService*> stacks = Stacks();
  std::vector<StackCounters> stacks1;
  for (SharedDeviceService* s : stacks) stacks1.emplace_back(*s);

  double hit_weighted = 0;
  uint64_t served_total = 0;
  for (size_t i = 0; i < hosts_.size(); ++i) {
    const ArrivalStats& st = arrivals[i];
    SdmStore& store = *hosts_[i].store;
    const HostCounters& was = hosts0_[i];
    const HostCounters now(hosts_[i]);
    ClusterHostReport h;
    h.cls = store.tenant_class();
    HostRunReport& run = h.run;
    run.queries_completed = st.completed;
    run.queries_served = st.served;
    run.queries_degraded = st.degraded;
    run.offered_qps = offered_qps;
    run.achieved_qps = span_s > 0 ? static_cast<double>(st.completed) / span_s : 0;
    run.p50 = SimDuration(st.latencies.P50());
    run.p95 = SimDuration(st.latencies.P95());
    run.p99 = SimDuration(st.latencies.P99());
    run.mean = SimDuration(static_cast<int64_t>(st.latencies.mean()));
    run.row_cache_hit_rate =
        Ratio(now.cache_hits - was.cache_hits, now.cache_lookups - was.cache_lookups);
    run.pooled_hit_rate =
        Ratio(now.pooled_hits - was.pooled_hits, now.pooled_lookups - was.pooled_lookups);
    run.prefetch_issued = now.prefetch.rows_issued - was.prefetch.rows_issued;
    // Claims can lag issues across runs (rows issued during warmup may be
    // claimed here), so the per-run ratio is clamped to [0,1].
    run.prefetch_hit_rate =
        std::min(1.0, Ratio(now.prefetch.rows_hit - was.prefetch.rows_hit, run.prefetch_issued));
    const uint64_t pf_bytes = now.prefetch.bytes_issued - was.prefetch.bytes_issued;
    const uint64_t pf_bytes_hit = now.prefetch.bytes_hit - was.prefetch.bytes_hit;
    run.prefetch_wasted_bytes = pf_bytes > pf_bytes_hit ? pf_bytes - pf_bytes_hit : 0;
    run.io_retries = now.io_retries - was.io_retries;
    run.rows_failed = now.rows_failed - was.rows_failed;
    run.lookups_shed = now.shed - was.shed;
    run.replica_reads = now.replica_reads - was.replica_reads;
    run.read_repairs = now.read_repairs - was.read_repairs;
    h.share = now.share.Since(was.share);
    h.throttle_queue_time = now.throttle_queue_time - was.throttle_queue_time;
    uint64_t cpu_ns = now.cpu_ns - was.cpu_ns;
    if (fabric_ == nullptr) {  // a private stack's counters are this host's
      const StackCounters& s0 = stacks0_[i];
      const StackCounters& s1 = stacks1[i];
      run.sm_iops = span_s > 0 ? static_cast<double>(s1.reads - s0.reads) / span_s : 0;
      run.sm_read_amplification =
          s1.useful_bytes > 0
              ? static_cast<double>(s1.bus_bytes) / static_cast<double>(s1.useful_bytes)
              : 1.0;
      const CrossRequestIoStats io = s1.io.Since(s0.io);
      run.cross_request_merges = io.cross_request_merges;
      run.singleflight_hits = io.singleflight_hits;
      run.batch_occupancy = io.BatchOccupancy();
      run.deadline_expired = io.deadline_expired;
      run.hedges_issued = io.hedges_issued;
      run.hedges_won = io.hedges_won;
      run.io_errors = s1.io_errors - s0.io_errors;
      run.blocks_corrupt = s1.blocks_corrupt - s0.blocks_corrupt;
      run.extents_replicated = s1.extents_replicated - s0.extents_replicated;
      cpu_ns += s1.io_cpu_ns - s0.io_cpu_ns;
    } else {
      run.singleflight_hits = h.share.singleflight_hits;
    }
    run.avg_cpu_per_query =
        SimDuration(static_cast<int64_t>(cpu_ns / std::max<uint64_t>(1, st.completed)));
    run.cpu_qps_bound =
        run.avg_cpu_per_query.nanos() > 0
            ? hosts_[i].cores * 1e9 / static_cast<double>(run.avg_cpu_per_query.nanos())
            : 0;
    h.fm_used = store.fm_direct_bytes() + store.fm_mapping_bytes() +
                (store.row_cache() != nullptr ? store.row_cache()->capacity() : 0);
    h.sm_used = store.sm_used_bytes();

    r.aggregate_qps += run.achieved_qps;
    hit_weighted += run.row_cache_hit_rate * static_cast<double>(st.served);
    served_total += st.served;
    r.cross_host_hits += h.share.cross_tenant_hits;
    r.cross_host_bytes_saved += h.share.cross_tenant_bytes_saved;
    r.sm_logical_bytes += h.sm_used;
    r.fm_total += h.fm_used;
    r.queries_degraded += run.queries_degraded;
    r.rows_failed += run.rows_failed;
    r.replica_reads += run.replica_reads;
    r.read_repairs += run.read_repairs;
    r.hosts.push_back(std::move(h));
  }
  // Weight by served queries: idle hosts must not deflate the mean, and a
  // host serving most of the traffic should dominate it.
  r.mean_hit_rate = served_total == 0 ? 0 : hit_weighted / static_cast<double>(served_total);

  for (size_t s = 0; s < stacks.size(); ++s) {
    r.sm_device_reads += stacks1[s].reads - stacks0_[s].reads;
    r.blocks_corrupt += stacks1[s].blocks_corrupt - stacks0_[s].blocks_corrupt;
    r.extents_replicated += stacks1[s].extents_replicated - stacks0_[s].extents_replicated;
    r.io += stacks1[s].io.Since(stacks0_[s].io);
    r.sm_unique_bytes += stacks[s]->sm_used_bytes();
  }
  if (fabric_ != nullptr) {
    const FabricLinkStats fab = fabric_->fabric_stats();
    r.fabric.requests = fab.requests - fabric0_.requests;
    r.fabric.responses = fab.responses - fabric0_.responses;
    r.fabric.request_bytes = fab.request_bytes - fabric0_.request_bytes;
    r.fabric.response_bytes = fab.response_bytes - fabric0_.response_bytes;
    r.fabric.queue_time = fab.queue_time - fabric0_.queue_time;
    r.fabric.dropped = fab.dropped - fabric0_.dropped;
    r.fabric.partition_deferred = fab.partition_deferred - fabric0_.partition_deferred;
  }
  return r;
}

std::string HostRunReport::Summary() const {
  KvFormatter f;
  f.Kv("qps", "%.0f/%.0f", achieved_qps, offered_qps)
      .Kv("p50", "%.2fms", p50.millis())
      .Kv("p95", "%.2fms", p95.millis())
      .Kv("p99", "%.2fms", p99.millis())
      .Kv("hit", "%.1f%%", row_cache_hit_rate * 100)
      .Kv("pooled", "%.1f%%", pooled_hit_rate * 100)
      .Kv("iops", "%.0f", sm_iops)
      .Kv("amp", "%.2f", sm_read_amplification)
      .Kv("cpu/q", "%.0fus", avg_cpu_per_query.micros())
      .Kv("sf", "%llu", static_cast<unsigned long long>(singleflight_hits))
      .Kv("xmerge", "%llu", static_cast<unsigned long long>(cross_request_merges))
      .Kv("occ", "%.1f", batch_occupancy)
      .Kv("pf", "%llu", static_cast<unsigned long long>(prefetch_issued))
      .Kv("pfhit", "%.1f%%", prefetch_hit_rate * 100)
      .Kv("pfwaste", "%lluKiB", static_cast<unsigned long long>(prefetch_wasted_bytes / kKiB))
      .Kv("err", "%llu", static_cast<unsigned long long>(io_errors))
      .Kv("retry", "%llu", static_cast<unsigned long long>(io_retries))
      .Kv("ddl", "%llu", static_cast<unsigned long long>(deadline_expired))
      .Kv("hedge", "%llu/%llu", static_cast<unsigned long long>(hedges_won),
          static_cast<unsigned long long>(hedges_issued))
      .Kv("deg", "%llu", static_cast<unsigned long long>(queries_degraded))
      .Kv("rowsf", "%llu", static_cast<unsigned long long>(rows_failed))
      .Kv("shed", "%llu", static_cast<unsigned long long>(lookups_shed))
      .Kv("rot", "%llu", static_cast<unsigned long long>(blocks_corrupt))
      .Kv("rrd", "%llu", static_cast<unsigned long long>(read_repairs))
      .Kv("rep", "%llu", static_cast<unsigned long long>(replica_reads))
      .Kv("xrep", "%llu", static_cast<unsigned long long>(extents_replicated));
  return f.str();
}

std::string ClusterHostReport::Summary() const {
  KvFormatter f;
  f.Raw(model_name)
      .Raw(std::string("[") + ToString(cls) + "]")
      .Kv("qps", "%.0f/%.0f", run.achieved_qps, run.offered_qps)
      .Kv("p95", "%.2fms", run.p95.millis())
      .Kv("p99", "%.2fms", run.p99.millis())
      .Kv("hit", "%.1f%%", run.row_cache_hit_rate * 100)
      .Kv("sf", "%llu", static_cast<unsigned long long>(share.singleflight_hits))
      .Kv("xsf", "%llu", static_cast<unsigned long long>(share.cross_tenant_hits))
      .Kv("fg", "%lluKiB", static_cast<unsigned long long>(share.demand_bytes / kKiB))
      .Kv("bg", "%lluKiB", static_cast<unsigned long long>(share.background_bytes / kKiB))
      .Kv("tq", "%.0fus", throttle_queue_time.micros());
  return f.str();
}

std::string ClusterRunReport::Summary() const {
  KvFormatter f;
  f.Kv("hosts", "%zu", hosts.size())
      .Kv("qps", "%.0f", aggregate_qps)
      .Kv("hit", "%.1f%%", mean_hit_rate * 100)
      .Kv("reads", "%llu", static_cast<unsigned long long>(sm_device_reads))
      .Kv("sf", "%llu", static_cast<unsigned long long>(io.singleflight_hits))
      .Kv("xhost", "%llu", static_cast<unsigned long long>(cross_host_hits))
      .Kv("dedup", "%.1fMiB", AsMiB(sm_logical_bytes - sm_unique_bytes))
      .Kv("fabric", "%.1fMiB(resp)", AsMiB(fabric.response_bytes))
      .Kv("fq", "%.0fus", fabric.queue_time.micros())
      .Kv("occ", "%.1f", io.BatchOccupancy())
      .Kv("drop", "%llu", static_cast<unsigned long long>(fabric.dropped))
      .Kv("part", "%llu", static_cast<unsigned long long>(fabric.partition_deferred))
      .Kv("ddl", "%llu", static_cast<unsigned long long>(io.deadline_expired))
      .Kv("hedge", "%llu/%llu", static_cast<unsigned long long>(io.hedges_won),
          static_cast<unsigned long long>(io.hedges_issued))
      .Kv("deg", "%llu", static_cast<unsigned long long>(queries_degraded))
      .Kv("rowsf", "%llu", static_cast<unsigned long long>(rows_failed))
      .Kv("rot", "%llu", static_cast<unsigned long long>(blocks_corrupt))
      .Kv("rrd", "%llu", static_cast<unsigned long long>(read_repairs))
      .Kv("rep", "%llu", static_cast<unsigned long long>(replica_reads))
      .Kv("xrep", "%llu", static_cast<unsigned long long>(extents_replicated));
  return f.str();
}

}  // namespace sdm
