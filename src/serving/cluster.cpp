#include "serving/cluster.h"

#include <cassert>
#include <cstdio>

#include "common/kv_format.h"
#include "fault/replication_manager.h"
#include "serving/arrival_loop.h"

namespace sdm {

namespace {

uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Per-host workload seed; derived exactly like MultiTenantHost's
/// per-tenant seed so a disaggregated cluster with kLocal routing and an
/// instant fabric serves byte-identical query streams to RunShared.
uint64_t HostWorkloadSeed(const WorkloadConfig& base, size_t host_index) {
  return base.seed ^ Mix64(0x7e0a + host_index);
}

}  // namespace

StickyRouter::StickyRouter(size_t num_hosts, RoutingPolicy policy, uint64_t seed)
    : num_hosts_(num_hosts), policy_(policy), rng_(seed) {
  assert(num_hosts >= 1);
}

size_t StickyRouter::Route(UserId user) const {
  if (policy_ == RoutingPolicy::kRandom) {
    return static_cast<size_t>(rng_.NextBounded(num_hosts_));
  }
  // kUserSticky; kLocal never reaches the router (the cluster keeps those
  // arrivals where they land), so the hash is a safe default.
  return static_cast<size_t>(Mix64(user) % num_hosts_);
}

ClusterSimulation::ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                                     RoutingPolicy policy)
    : ClusterSimulation(num_hosts, host_config, policy, DisaggregatedConfig{}) {}

ClusterSimulation::ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                                     RoutingPolicy policy,
                                     const DisaggregatedConfig& disaggregated)
    : base_config_(host_config), router_(num_hosts, policy, host_config.seed ^ 0xc1u) {
  assert(num_hosts >= 1);
  if (!disaggregated.enabled) {
    hosts_.reserve(num_hosts);
    for (size_t i = 0; i < num_hosts; ++i) {
      HostSimConfig cfg = host_config;
      cfg.seed = host_config.seed ^ Mix64(i + 1);
      hosts_.push_back(std::make_unique<HostSimulation>(cfg));
    }
    return;
  }

  // ---- Disaggregated: one fabric-attached device stack for all hosts ----
  FabricServiceConfig fcfg;
  for (const auto& ssd : base_config_.host.ssds) {
    fcfg.device.sm_specs.push_back(ssd);
    fcfg.device.sm_backing_bytes.push_back(base_config_.sm_backing_per_device);
  }
  fcfg.device.tuning = base_config_.tuning;
  fcfg.device.seed = base_config_.seed;
  fcfg.link.latency = base_config_.tuning.fabric_latency;
  fcfg.link.bandwidth_bytes_per_sec = base_config_.tuning.fabric_bandwidth_bytes_per_sec;
  fcfg.link.queueing = base_config_.tuning.fabric_queueing;
  if (base_config_.tuning.obs.enabled()) {
    // One instance for the whole single-loop cluster; the shared device
    // stack records under "svc/", host i's store under "host<i>/".
    obs_ = std::make_unique<Observability>(base_config_.tuning.obs);
    fcfg.device.obs = obs_.get();
    fcfg.device.obs_prefix = "svc/";
  }
  fabric_ = std::make_unique<FabricAttachedService>(std::move(fcfg), &dloop_);
  dhosts_.resize(num_hosts);
  for (size_t i = 0; i < num_hosts; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "host-%zu", i);
    dhosts_[i].id = fabric_->AttachHost(name, TenantClass::kForeground);
  }
}

size_t ClusterSimulation::size() const {
  return disaggregated() ? dhosts_.size() : hosts_.size();
}

size_t ClusterSimulation::RouteTarget(size_t source, UserId user) const {
  if (router_.policy() == RoutingPolicy::kLocal) return source % size();
  return router_.Route(user);
}

Status ClusterSimulation::LoadModel(const ModelConfig& model) {
  if (!disaggregated()) {
    for (auto& h : hosts_) {
      if (Status s = h->LoadModel(model); !s.ok()) return s;
    }
    return Status::Ok();
  }

  // ---- Disaggregated: each host is a shard on the fabric service ----
  if (Status s = base_config_.tuning.ValidateForDisaggregated(); !s.ok()) return s;
  if (fabric_->device_service().device_count() == 0) {
    return FailedPreconditionError("disaggregated cluster needs a host spec with SSDs");
  }
  if (!dhosts_.empty() && dhosts_[0].store != nullptr) {
    return FailedPreconditionError("model already loaded");
  }
  std::vector<SdmStore*> stores;
  stores.reserve(dhosts_.size());
  for (size_t i = 0; i < dhosts_.size(); ++i) {
    DisaggregatedHost& h = dhosts_[i];
    SdmStoreConfig scfg;
    scfg.fm_capacity = base_config_.fm_capacity;
    scfg.tuning = base_config_.tuning;
    scfg.seed = base_config_.seed ^ Mix64(i + 0x7e0a);
    scfg.shared_device = &fabric_->device_service();
    scfg.tenant_id = h.id;
    scfg.tenant_class = TenantClass::kForeground;
    if (obs_ != nullptr) {
      scfg.obs = obs_.get();
      scfg.obs_prefix = "host" + std::to_string(i) + "/";
    }
    h.store = std::make_unique<SdmStore>(scfg, &dloop_);
    stores.push_back(h.store.get());
  }

  // One pass for the whole cluster: each table is built once, host 0 places
  // it and every other host attaches to that extent.
  auto reports = ModelLoader::LoadReplicas(model, base_config_.loader, stores);
  if (!reports.ok()) return reports.status();

  for (size_t i = 0; i < dhosts_.size(); ++i) {
    DisaggregatedHost& h = dhosts_[i];
    InferenceConfig icfg = base_config_.inference;
    icfg.accelerator = base_config_.host.accelerator;
    icfg.dense.flops_per_sec = base_config_.host.dense_flops;
    if (icfg.max_concurrent_queries <= 0) {
      icfg.max_concurrent_queries = base_config_.host.cores();
    }
    h.engine = std::make_unique<InferenceEngine>(h.store.get(), model, icfg);

    WorkloadConfig wcfg = base_config_.workload;
    wcfg.seed = HostWorkloadSeed(base_config_.workload, i);
    h.workload = std::make_unique<QueryGenerator>(model, wcfg);
  }
  return Status::Ok();
}

ClusterRunReport ClusterSimulation::Run(double total_qps, uint64_t num_queries) {
  assert(!disaggregated());
  if (disaggregated()) return {};  // wrong-mode call: fail empty, not UB
  // Partition a global user stream by the router. Each host then serves its
  // sub-population at its share of the global rate. Hosts run on separate
  // event loops (they do not interact beyond routing), so running them
  // sequentially is exact.
  std::vector<std::vector<UserId>> per_host_users(hosts_.size());
  // Reuse the first host's generator distributions to draw the user stream.
  QueryGenerator& reference = hosts_[0]->workload();
  for (uint64_t i = 0; i < num_queries; ++i) {
    const Query q = reference.Next();  // draws a popularity-weighted user
    per_host_users[RouteTarget(i, q.user)].push_back(q.user);
  }

  ClusterRunReport report;
  report.hosts.reserve(hosts_.size());
  double hit_weighted = 0;
  uint64_t served_total = 0;
  for (size_t h = 0; h < hosts_.size(); ++h) {
    HostSimulation& host = *hosts_[h];
    const auto& users = per_host_users[h];
    if (users.empty()) {
      // Idle host: default report, distinguishable by queries_served == 0.
      report.hosts.push_back(HostRunReport{});
      continue;
    }
    // Serve this host's routed queries at the proportional rate by feeding
    // the exact user sequence through the host's own engine.
    const double host_qps =
        total_qps * static_cast<double>(users.size()) / static_cast<double>(num_queries);
    HostRunReport r = host.RunUsers(users, host_qps);
    hit_weighted += r.row_cache_hit_rate * static_cast<double>(r.queries_served);
    served_total += r.queries_served;
    report.aggregate_qps += r.achieved_qps;
    report.hosts.push_back(std::move(r));
  }
  // Weight by served queries: idle hosts must not deflate the mean, and a
  // host serving most of the traffic should dominate it.
  report.mean_hit_rate =
      served_total == 0 ? 0 : hit_weighted / static_cast<double>(served_total);
  return report;
}

DisaggregatedRunReport ClusterSimulation::RunDisaggregated(double total_qps,
                                                           uint64_t num_queries) {
  assert(disaggregated());
  assert(total_qps > 0);
  DisaggregatedRunReport report;
  if (dhosts_.empty() || dhosts_[0].engine == nullptr) return report;
  const size_t n = dhosts_.size();
  const double qps_each = total_qps / static_cast<double>(n);
  const uint64_t queries_each = num_queries / n;
  SharedDeviceService& service = fabric_->device_service();

  // ---- Per-run snapshots (counters are cumulative across runs) ----
  struct Snapshot {
    uint64_t cache_hits0 = 0;
    uint64_t cache_miss0 = 0;
    TenantIoShare share0;
    SimDuration queue_time0;
    uint64_t replica0 = 0;
    uint64_t repairs0 = 0;
  };
  std::vector<Snapshot> snaps(n);
  for (size_t i = 0; i < n; ++i) {
    if (DualRowCache* rc = dhosts_[i].store->row_cache(); rc != nullptr) {
      snaps[i].cache_hits0 = rc->stats().hits;
      snaps[i].cache_miss0 = rc->stats().misses;
    }
    snaps[i].share0 = fabric_->host_io_share(dhosts_[i].id);
    snaps[i].queue_time0 = fabric_->host_throttle_queue_time(dhosts_[i].id);
    snaps[i].replica0 = dhosts_[i].engine->lookups().stats().CounterValue("replica_reads");
    snaps[i].repairs0 = dhosts_[i].engine->lookups().stats().CounterValue("read_repairs");
  }
  uint64_t sm_reads0 = 0;
  uint64_t corrupt0 = 0;
  for (size_t d = 0; d < service.device_count(); ++d) {
    sm_reads0 += service.device(d).stats().CounterValue("reads");
    corrupt0 += service.device(d).stats().CounterValue("blocks_corrupt");
  }
  const ReplicationManager* repl = service.replication();
  const uint64_t replicated0 = repl != nullptr ? repl->extents_replicated() : 0;
  const CrossRequestIoStats io0 = service.cross_request_io_stats();
  const FabricLinkStats fab0 = fabric_->fabric_stats();

  // ---- Interleave every host's arrivals; the router redistributes ----
  std::vector<ArrivalParticipant> participants;
  participants.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    participants.push_back(ArrivalParticipant{dhosts_[i].engine.get(),
                                              dhosts_[i].workload.get(),
                                              base_config_.seed ^ Mix64(i + 1) ^ 0xa11e});
  }
  const SimTime t_begin = dloop_.Now();
  std::vector<ArrivalStats> states = RunInterleavedArrivals(
      dloop_, participants, qps_each, queries_each,
      [this](size_t source, const Query& q) { return RouteTarget(source, q.user); });
  const SimTime t_end = dloop_.Now();
  const double span_s = (t_end - t_begin).seconds();

  // ---- Reports ----
  double hit_weighted = 0;
  uint64_t served_total = 0;
  for (size_t i = 0; i < n; ++i) {
    const ArrivalStats& st = states[i];
    DisaggregatedHostReport hr;
    hr.run.queries_completed = st.completed;
    hr.run.queries_served = st.served;
    hr.run.offered_qps = qps_each;
    hr.run.achieved_qps =
        span_s > 0 ? static_cast<double>(st.completed) / span_s : 0;
    hr.run.p50 = SimDuration(st.latencies.P50());
    hr.run.p95 = SimDuration(st.latencies.P95());
    hr.run.p99 = SimDuration(st.latencies.P99());
    hr.run.mean = SimDuration(static_cast<int64_t>(st.latencies.mean()));
    if (DualRowCache* rc = dhosts_[i].store->row_cache(); rc != nullptr) {
      const uint64_t h = rc->stats().hits - snaps[i].cache_hits0;
      const uint64_t m = rc->stats().misses - snaps[i].cache_miss0;
      hr.run.row_cache_hit_rate =
          (h + m) == 0 ? 0 : static_cast<double>(h) / static_cast<double>(h + m);
    }
    hr.run.queries_degraded = st.degraded;
    hr.run.rows_failed = st.rows_failed;
    report.queries_degraded += st.degraded;
    report.rows_failed += st.rows_failed;
    hr.run.replica_reads =
        dhosts_[i].engine->lookups().stats().CounterValue("replica_reads") -
        snaps[i].replica0;
    hr.run.read_repairs =
        dhosts_[i].engine->lookups().stats().CounterValue("read_repairs") -
        snaps[i].repairs0;
    report.replica_reads += hr.run.replica_reads;
    report.read_repairs += hr.run.read_repairs;
    hr.share = fabric_->host_io_share(dhosts_[i].id).Since(snaps[i].share0);
    hr.run.singleflight_hits = hr.share.singleflight_hits;
    hr.throttle_queue_time =
        fabric_->host_throttle_queue_time(dhosts_[i].id) - snaps[i].queue_time0;
    report.cross_host_hits += hr.share.cross_tenant_hits;
    report.cross_host_bytes_saved += hr.share.cross_tenant_bytes_saved;
    report.sm_logical_bytes += dhosts_[i].store->sm_used_bytes();
    report.aggregate_qps += hr.run.achieved_qps;
    hit_weighted += hr.run.row_cache_hit_rate * static_cast<double>(st.served);
    served_total += st.served;
    report.hosts.push_back(std::move(hr));
  }
  report.mean_hit_rate =
      served_total == 0 ? 0 : hit_weighted / static_cast<double>(served_total);

  report.sm_unique_bytes = service.sm_used_bytes();
  uint64_t sm_reads1 = 0;
  uint64_t corrupt1 = 0;
  for (size_t d = 0; d < service.device_count(); ++d) {
    sm_reads1 += service.device(d).stats().CounterValue("reads");
    corrupt1 += service.device(d).stats().CounterValue("blocks_corrupt");
  }
  report.sm_device_reads = sm_reads1 - sm_reads0;
  report.blocks_corrupt = corrupt1 - corrupt0;
  if (repl != nullptr) report.extents_replicated = repl->extents_replicated() - replicated0;
  report.io = service.cross_request_io_stats().Since(io0);
  const FabricLinkStats fab1 = fabric_->fabric_stats();
  report.fabric.requests = fab1.requests - fab0.requests;
  report.fabric.responses = fab1.responses - fab0.responses;
  report.fabric.request_bytes = fab1.request_bytes - fab0.request_bytes;
  report.fabric.response_bytes = fab1.response_bytes - fab0.response_bytes;
  report.fabric.queue_time = fab1.queue_time - fab0.queue_time;
  report.fabric.dropped = fab1.dropped - fab0.dropped;
  report.fabric.partition_deferred = fab1.partition_deferred - fab0.partition_deferred;
  return report;
}

std::string ClusterSimulation::ObsMetricsJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->MetricsJson();
}

std::string ClusterSimulation::ObsTraceJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->TraceJson();
}

std::string ClusterSimulation::ObsSloJson() {
  if (obs_ == nullptr) return "{}";
  obs_->Finalize();
  return obs_->SloJson();
}

std::string DisaggregatedRunReport::Summary() const {
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
