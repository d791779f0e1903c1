#include "serving/sharded_cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "core/model_loader.h"
#include "fault/replication_manager.h"

namespace sdm {

namespace {

/// Must match cluster.cpp's Mix64 bit-for-bit: the sharded path replays the
/// single-loop path's seed derivations (host workload/store/arrival seeds)
/// so the two modes serve identical query streams.
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// 64B NVMe SQE on the request direction — same constant the IoEngine
/// fabric path uses (io_engine.cpp).
constexpr Bytes kFabricSqeBytes = 64;

}  // namespace

ShardedClusterRuntime::ShardedClusterRuntime(size_t num_hosts,
                                             const HostSimConfig& host_config,
                                             RoutingPolicy policy, size_t num_shards)
    : base_config_(host_config),
      router_(num_hosts, policy, host_config.seed ^ 0xc1u),
      num_shards_(num_shards),
      runtime_(num_shards) {
  assert(num_hosts >= 1);
  assert(num_shards >= 2);

  const size_t device_lp = runtime_.AddProcess();
  assert(device_lp == kDeviceLp);
  (void)device_lp;

  if (base_config_.tuning.obs.enabled()) {
    // One instance per LP so recording never crosses a thread boundary;
    // Merged*Json folds them back into one document at export time.
    obs_.resize(1 + num_hosts);
    for (auto& o : obs_) o = std::make_unique<Observability>(base_config_.tuning.obs);
  }

  // Device stack: configured exactly like the single-loop fabric service's
  // (same specs, tuning, seed — so NvmeDevice seeds match bit-for-bit).
  SharedDeviceConfig dcfg;
  for (const auto& ssd : base_config_.host.ssds) {
    dcfg.sm_specs.push_back(ssd);
    dcfg.sm_backing_bytes.push_back(base_config_.sm_backing_per_device);
  }
  dcfg.tuning = base_config_.tuning;
  dcfg.seed = base_config_.seed;
  if (!obs_.empty()) {
    dcfg.obs = obs_[kDeviceLp].get();
    dcfg.obs_prefix = "svc/";
  }
  stack_ = std::make_unique<SharedDeviceService>(std::move(dcfg),
                                                 &runtime_.loop(kDeviceLp));
  endpoint_ = std::make_unique<ShardDeviceEndpoint>(stack_.get(), num_hosts);

  FabricLinkConfig lcfg;
  lcfg.latency = base_config_.tuning.fabric_latency;
  lcfg.bandwidth_bytes_per_sec = base_config_.tuning.fabric_bandwidth_bytes_per_sec;
  lcfg.queueing = base_config_.tuning.fabric_queueing;

  const size_t ports = stack_->device_count();
  hosts_.resize(num_hosts);
  response_links_.reserve(num_hosts * ports);
  for (size_t i = 0; i < num_hosts; ++i) {
    HostShard& h = hosts_[i];
    const size_t host_lp = runtime_.AddProcess();
    assert(host_lp == 1 + i);

    char name[32];
    std::snprintf(name, sizeof(name), "host-%zu", i);
    h.stack_id = stack_->RegisterTenant(name, TenantClass::kForeground);
    h.channel = std::make_unique<HostChannel>(this, i);

    // Request direction lives host-side, response direction device-side:
    // each shard owns the busy/queue state of the direction it transmits
    // on, and arrivals cross shards through the runtime's mailboxes.
    for (size_t p = 0; p < ports; ++p) {
      auto req = std::make_unique<FabricLink>(lcfg, &runtime_.loop(host_lp));
      req->set_remote_delivery([this, host_lp](SimTime at, EventLoop::Callback cb) {
        runtime_.Post(host_lp, kDeviceLp, at, std::move(cb));
      });
      if (!obs_.empty()) {
        // Each direction records on the LP that transmits on it.
        req->set_obs(obs_[host_lp].get(),
                     "host" + std::to_string(i) + "/dev" + std::to_string(p) + "/");
      }
      h.request_links.push_back(std::move(req));

      auto resp = std::make_unique<FabricLink>(lcfg, &runtime_.loop(kDeviceLp));
      resp->set_remote_delivery([this, host_lp](SimTime at, EventLoop::Callback cb) {
        runtime_.Post(kDeviceLp, host_lp, at, std::move(cb));
      });
      if (!obs_.empty()) {
        resp->set_obs(obs_[kDeviceLp].get(), "svc/host" + std::to_string(i) +
                                                 "/dev" + std::to_string(p) + "/");
      }
      response_links_.push_back(std::move(resp));
    }
  }
}

Status ShardedClusterRuntime::LoadModel(const ModelConfig& model) {
  if (Status s = base_config_.tuning.ValidateForDisaggregated(); !s.ok()) return s;
  if (base_config_.tuning.fabric_latency <= SimDuration(0)) {
    return FailedPreconditionError(
        "sharded disaggregated mode needs fabric_latency > 0: the one-way "
        "latency is the conservative lookahead (use num_shards=1 for "
        "instant-fabric runs)");
  }
  if (stack_->device_count() == 0) {
    return FailedPreconditionError("disaggregated cluster needs a host spec with SSDs");
  }
  if (loaded_) return FailedPreconditionError("model already loaded");

  std::vector<SdmStore*> stores;
  stores.reserve(hosts_.size());
  for (size_t i = 0; i < hosts_.size(); ++i) {
    HostShard& h = hosts_[i];

    // Host-side slice of the device service: per-host engines, schedulers,
    // throttle, and BufferArena; doorbells ride h.channel.
    SharedDeviceConfig slice_cfg;
    slice_cfg.tuning = base_config_.tuning;
    slice_cfg.seed = base_config_.seed ^ Mix64(i + 0x51ce);
    slice_cfg.remote.stack = stack_.get();
    slice_cfg.remote.channel = h.channel.get();
    slice_cfg.remote.tenant = h.stack_id;
    if (!obs_.empty()) {
      slice_cfg.obs = obs_[1 + i].get();
      slice_cfg.obs_prefix = "host" + std::to_string(i) + "/";
    }
    h.slice = std::make_unique<SharedDeviceService>(std::move(slice_cfg),
                                                    &runtime_.loop(1 + i));
    const TenantId local_id =
        h.slice->RegisterTenant(stack_->tenant_name(h.stack_id),
                                TenantClass::kForeground);

    // Store / engine / workload: the single-loop path's exact construction
    // and seed derivations (cluster.cpp), per host LP.
    SdmStoreConfig scfg;
    scfg.fm_capacity = base_config_.fm_capacity;
    scfg.tuning = base_config_.tuning;
    scfg.seed = base_config_.seed ^ Mix64(i + 0x7e0a);
    scfg.shared_device = h.slice.get();
    scfg.tenant_id = local_id;
    scfg.tenant_class = TenantClass::kForeground;
    if (!obs_.empty()) {
      scfg.obs = obs_[1 + i].get();
      scfg.obs_prefix = "host" + std::to_string(i) + "/";
    }
    h.store = std::make_unique<SdmStore>(scfg, &runtime_.loop(1 + i));
    stores.push_back(h.store.get());
  }

  // One pass for the whole cluster, as on the single loop: each table is
  // built once, host 0's slice places it on the stack and every other
  // host's slice attaches to that extent.
  auto reports = ModelLoader::LoadReplicas(model, base_config_.loader, stores);
  if (!reports.ok()) return reports.status();

  for (size_t i = 0; i < hosts_.size(); ++i) {
    HostShard& h = hosts_[i];
    InferenceConfig icfg = base_config_.inference;
    icfg.accelerator = base_config_.host.accelerator;
    icfg.dense.flops_per_sec = base_config_.host.dense_flops;
    if (icfg.max_concurrent_queries <= 0) {
      icfg.max_concurrent_queries = base_config_.host.cores();
    }
    h.engine = std::make_unique<InferenceEngine>(h.store.get(), model, icfg);

    WorkloadConfig wcfg = base_config_.workload;
    wcfg.seed = base_config_.workload.seed ^ Mix64(0x7e0a + i);
    h.workload = std::make_unique<QueryGenerator>(model, wcfg);

    // Self-healing control plane: health is observed HOST-side (the slice's
    // monitor scores this host's completions), but re-replication runs on
    // the device shard, which owns the media. A sickness edge crosses the
    // fabric as a control message — one lookahead-respecting post, like any
    // doorbell.
    if (base_config_.tuning.enable_replication) {
      const size_t host_lp = 1 + i;
      h.slice->health().SetSickTransitionListener([this, host_lp](size_t endpoint) {
        runtime_.Post(host_lp, kDeviceLp,
                      runtime_.loop(host_lp).Now() + base_config_.tuning.fabric_latency,
                      [this, endpoint] {
                        stack_->replication()->OnEndpointSick(endpoint);
                      });
      });
    }
  }

  // Published replica routes propagate back to every host slice the same
  // way (device LP -> host LPs), so failover decisions stay shard-local.
  if (ReplicationManager* repl = stack_->replication(); repl != nullptr) {
    repl->SetPublishHook([this](uint64_t id, SharedDeviceService::ReplicaLocation loc) {
      for (size_t i = 0; i < hosts_.size(); ++i) {
        runtime_.Post(kDeviceLp, 1 + i,
                      runtime_.loop(kDeviceLp).Now() + base_config_.tuning.fabric_latency,
                      [this, i, id, loc] { hosts_[i].slice->AddReplicaRoute(id, loc); });
      }
    });
  }
  loaded_ = true;
  return Status::Ok();
}

Status ShardedClusterRuntime::InstallFaultPlan(const FaultPlan& plan, uint64_t seed) {
  for (const FaultWindow& w : plan.windows) {
    if (w.kind == FaultKind::kFabricDrop) {
      return FailedPreconditionError(
          "fabric-drop windows draw per-transfer RNG on per-shard links and "
          "cannot replay deterministically across shard counts; run drop "
          "experiments with num_shards=1");
    }
  }
  // Device windows interpret on the device shard's clock; every host gets a
  // CLONE for its request links' partition deferral — a deterministic plan
  // scan, so clones agree on heal times without sharing state.
  device_injector_ = std::make_unique<FaultInjector>(plan, &runtime_.loop(kDeviceLp), seed);
  stack_->InstallFaultInjector(device_injector_.get());
  const size_t ports = stack_->device_count();
  for (size_t i = 0; i < hosts_.size(); ++i) {
    for (size_t p = 0; p < ports; ++p) {
      response_links_[i * ports + p]->set_fault_injector(device_injector_.get(),
                                                         static_cast<int>(p));
    }
    hosts_[i].injector =
        std::make_unique<FaultInjector>(plan, &runtime_.loop(1 + i), seed);
    for (size_t p = 0; p < ports; ++p) {
      hosts_[i].request_links[p]->set_fault_injector(hosts_[i].injector.get(),
                                                     static_cast<int>(p));
    }
  }
  return Status::Ok();
}

void ShardedClusterRuntime::Doorbell(size_t host, size_t port,
                                     std::vector<RemoteReadOp> ops) {
  // On host `host`'s loop. Package the SQEs for the endpoint, then ring:
  // one request transfer carries the whole doorbell (64B per SQE), and its
  // delivery — posted cross-shard by the link's remote delivery hook —
  // lands on the device loop at arrival time.
  const size_t ports = stack_->device_count();
  std::vector<ShardDeviceEndpoint::Op> eops;
  eops.reserve(ops.size());
  for (RemoteReadOp& op : ops) {
    ShardDeviceEndpoint::Op e;
    e.offset = op.offset;
    e.length = op.length;
    e.sub_block = op.sub_block;
    e.payload_bytes = op.payload_bytes;
    e.host = host;
    // Runs on the DEVICE loop at completion: pay the response-direction
    // fabric timing and hand the payload back to the host shard. The
    // response transfer is byte-accounted even on error (empty payload),
    // like the single-loop WrapFabricCompletion path.
    e.respond = [this, link = response_links_[host * ports + port].get(),
                 payload_bytes = op.payload_bytes, oc = std::move(op.on_complete)](
                    Status status, std::vector<uint8_t> payload) mutable {
      link->Response(payload_bytes,
                     [oc = std::move(oc), status = std::move(status),
                      payload = std::move(payload)]() mutable {
                       oc(std::move(status), std::span<const uint8_t>(payload));
                     });
    };
    eops.push_back(std::move(e));
  }
  // Size the transfer BEFORE the call: argument evaluation order is
  // unspecified, and the lambda capture moves `eops` out.
  const Bytes doorbell_bytes = kFabricSqeBytes * static_cast<Bytes>(eops.size());
  hosts_[host].request_links[port]->Request(
      doorbell_bytes,
      [endpoint = endpoint_.get(), port, eops = std::move(eops)]() mutable {
        endpoint->OnDoorbell(port, std::move(eops));
      });
}

size_t ShardedClusterRuntime::RouteTarget(size_t source, UserId user) const {
  if (router_.policy() == RoutingPolicy::kLocal) return source % hosts_.size();
  return router_.Route(user);
}

CrossRequestIoStats ShardedClusterRuntime::SliceIoStats() const {
  // Scheduler effectiveness lives host-side in sharded mode — plus the
  // device stack's own schedulers, idle except for the self-healing layer's
  // re-replication copy chunks riding their background lanes (included so
  // the single-loop oracle sees the same flush/background totals).
  CrossRequestIoStats agg;
  auto add = [&agg](const CrossRequestIoStats& one) {
    agg.device_reads += one.device_reads;
    agg.cross_request_merges += one.cross_request_merges;
    agg.singleflight_hits += one.singleflight_hits;
    agg.singleflight_bytes_saved += one.singleflight_bytes_saved;
    agg.flushes += one.flushes;
    agg.prefetch_reads += one.prefetch_reads;
    agg.prefetch_dropped += one.prefetch_dropped;
    agg.prefetch_promoted += one.prefetch_promoted;
    agg.background_reads += one.background_reads;
    agg.background_parked += one.background_parked;
    agg.background_promoted += one.background_promoted;
    agg.deadline_expired += one.deadline_expired;
    agg.hedges_issued += one.hedges_issued;
    agg.hedges_won += one.hedges_won;
  };
  for (const HostShard& h : hosts_) {
    if (h.slice == nullptr) continue;
    add(h.slice->cross_request_io_stats());
  }
  add(stack_->cross_request_io_stats());
  return agg;
}

FabricLinkStats ShardedClusterRuntime::FabricStats() const {
  FabricLinkStats agg;
  auto add = [&agg](const FabricLinkStats& one) {
    agg.requests += one.requests;
    agg.responses += one.responses;
    agg.request_bytes += one.request_bytes;
    agg.response_bytes += one.response_bytes;
    agg.queue_time += one.queue_time;
    agg.dropped += one.dropped;
    agg.partition_deferred += one.partition_deferred;
  };
  for (const HostShard& h : hosts_) {
    for (const auto& link : h.request_links) add(link->stats());
  }
  for (const auto& link : response_links_) add(link->stats());
  return agg;
}

std::string ShardedClusterRuntime::ObsMetricsJson() {
  if (obs_.empty()) return "{}";
  std::vector<Observability*> all;
  all.reserve(obs_.size());
  for (auto& o : obs_) {
    o->Finalize();
    all.push_back(o.get());
  }
  return Observability::MergedMetricsJson(all);
}

std::string ShardedClusterRuntime::ObsTraceJson() {
  if (obs_.empty()) return "{}";
  std::vector<Observability*> all;
  all.reserve(obs_.size());
  for (auto& o : obs_) all.push_back(o.get());
  return Observability::MergedTraceJson(all);
}

std::string ShardedClusterRuntime::ObsSloJson() {
  if (obs_.empty()) return "{}";
  std::vector<Observability*> all;
  all.reserve(obs_.size());
  for (auto& o : obs_) {
    o->Finalize();
    all.push_back(o.get());
  }
  return Observability::MergedSloJson(all);
}

DisaggregatedRunReport ShardedClusterRuntime::Run(double total_qps,
                                                  uint64_t num_queries) {
  assert(total_qps > 0);
  DisaggregatedRunReport report;
  if (!loaded_) return report;
  const size_t n = hosts_.size();
  const double qps_each = total_qps / static_cast<double>(n);
  const uint64_t queries_each = num_queries / n;

  // ---- Per-run snapshots (counters are cumulative across runs) ----
  struct Snapshot {
    uint64_t cache_hits0 = 0;
    uint64_t cache_miss0 = 0;
    TenantIoShare share0;
    SimDuration queue_time0;
    uint64_t xhost_hits0 = 0;
    Bytes xhost_bytes0 = 0;
    uint64_t replica0 = 0;
    uint64_t repairs0 = 0;
  };
  std::vector<Snapshot> snaps(n);
  for (size_t i = 0; i < n; ++i) {
    if (DualRowCache* rc = hosts_[i].store->row_cache(); rc != nullptr) {
      snaps[i].cache_hits0 = rc->stats().hits;
      snaps[i].cache_miss0 = rc->stats().misses;
    }
    snaps[i].share0 = hosts_[i].slice->tenant_io_share(0);
    snaps[i].queue_time0 = hosts_[i].slice->throttle_queue_time(0);
    snaps[i].xhost_hits0 = endpoint_->cross_host_hits(i);
    snaps[i].xhost_bytes0 = endpoint_->cross_host_bytes_saved(i);
    snaps[i].replica0 =
        hosts_[i].engine->lookups().stats().CounterValue("replica_reads");
    snaps[i].repairs0 =
        hosts_[i].engine->lookups().stats().CounterValue("read_repairs");
  }
  uint64_t sm_reads0 = 0;
  uint64_t corrupt0 = 0;
  for (size_t d = 0; d < stack_->device_count(); ++d) {
    sm_reads0 += stack_->device(d).stats().CounterValue("reads");
    corrupt0 += stack_->device(d).stats().CounterValue("blocks_corrupt");
  }
  const ReplicationManager* repl = stack_->replication();
  const uint64_t replicated0 = repl != nullptr ? repl->extents_replicated() : 0;
  const CrossRequestIoStats io0 = SliceIoStats();
  const FabricLinkStats fab0 = FabricStats();

  // ---- Arrival precomputation ----
  // The single loop executes arrival events in (time, schedule-seq) order,
  // with the participant-major scheduling pass defining seq; workload and
  // router draws happen inside those events, in exactly that order, and
  // nothing else touches either RNG. Replaying the draws in a sequential
  // pre-pass over the SORTED arrival times therefore reproduces the
  // single-loop query stream bit-for-bit — and leaves the run itself free
  // of any cross-host RNG coupling.
  SimTime t0{0};
  for (size_t lp = 0; lp < runtime_.process_count(); ++lp) {
    t0 = std::max(t0, runtime_.loop(lp).Now());
  }
  struct Planned {
    SimTime at;
    uint32_t source;
  };
  std::vector<Planned> plan;
  plan.reserve(n * queries_each);
  for (size_t i = 0; i < n; ++i) {
    Rng arrivals(base_config_.seed ^ Mix64(i + 1) ^ 0xa11e);
    SimTime next_arrival = t0;
    for (uint64_t q = 0; q < queries_each; ++q) {
      next_arrival += Seconds(arrivals.NextExponential(1.0 / qps_each));
      plan.push_back(Planned{next_arrival, static_cast<uint32_t>(i)});
    }
  }
  // stable_sort keeps the participant-major order on time ties — the
  // single loop's FIFO tie-break for its scheduling pass.
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Planned& a, const Planned& b) { return a.at < b.at; });
  for (HostShard& h : hosts_) h.stats = ArrivalStats();
  for (const Planned& p : plan) {
    const Query query = hosts_[p.source].workload->Next();
    const size_t target = RouteTarget(p.source, query.user);
    runtime_.loop(1 + target).ScheduleAt(p.at, [this, target, query] {
      HostShard& h = hosts_[target];
      ++h.stats.served;
      h.engine->Submit(query, [&st = h.stats](Status status, const QueryTrace& trace) {
        if (status.ok()) {
          st.latencies.Record(trace.total);
          ++st.completed;
          if (trace.degraded) ++st.degraded;
          st.rows_failed += trace.rows_failed;
        }
      });
    });
  }

  // ---- The parallel run ----
  runtime_.Run(base_config_.tuning.fabric_latency);

  SimTime t_end = t0;
  for (size_t lp = 0; lp < runtime_.process_count(); ++lp) {
    t_end = std::max(t_end, runtime_.loop(lp).last_event_time());
  }
  const double span_s = (t_end - t0).seconds();

  // ---- Reports (mirrors ClusterSimulation::RunDisaggregated) ----
  double hit_weighted = 0;
  uint64_t served_total = 0;
  for (size_t i = 0; i < n; ++i) {
    const ArrivalStats& st = hosts_[i].stats;
    DisaggregatedHostReport hr;
    hr.run.queries_completed = st.completed;
    hr.run.queries_served = st.served;
    hr.run.offered_qps = qps_each;
    hr.run.achieved_qps = span_s > 0 ? static_cast<double>(st.completed) / span_s : 0;
    hr.run.p50 = SimDuration(st.latencies.P50());
    hr.run.p95 = SimDuration(st.latencies.P95());
    hr.run.p99 = SimDuration(st.latencies.P99());
    hr.run.mean = SimDuration(static_cast<int64_t>(st.latencies.mean()));
    if (DualRowCache* rc = hosts_[i].store->row_cache(); rc != nullptr) {
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
        hosts_[i].engine->lookups().stats().CounterValue("replica_reads") -
        snaps[i].replica0;
    hr.run.read_repairs =
        hosts_[i].engine->lookups().stats().CounterValue("read_repairs") -
        snaps[i].repairs0;
    report.replica_reads += hr.run.replica_reads;
    report.read_repairs += hr.run.read_repairs;
    hr.share = hosts_[i].slice->tenant_io_share(0).Since(snaps[i].share0);
    // Cross-host joins happen at the device endpoint in sharded mode (the
    // slice scheduler only sees this host); overlay its ledger so the
    // report fields keep their single-loop meaning.
    hr.share.cross_tenant_hits = endpoint_->cross_host_hits(i) - snaps[i].xhost_hits0;
    hr.share.cross_tenant_bytes_saved =
        endpoint_->cross_host_bytes_saved(i) - snaps[i].xhost_bytes0;
    hr.run.singleflight_hits = hr.share.singleflight_hits;
    hr.throttle_queue_time =
        hosts_[i].slice->throttle_queue_time(0) - snaps[i].queue_time0;
    report.cross_host_hits += hr.share.cross_tenant_hits;
    report.cross_host_bytes_saved += hr.share.cross_tenant_bytes_saved;
    report.sm_logical_bytes += hosts_[i].store->sm_used_bytes();
    report.aggregate_qps += hr.run.achieved_qps;
    hit_weighted += hr.run.row_cache_hit_rate * static_cast<double>(st.served);
    served_total += st.served;
    report.hosts.push_back(std::move(hr));
  }
  report.mean_hit_rate =
      served_total == 0 ? 0 : hit_weighted / static_cast<double>(served_total);

  report.sm_unique_bytes = stack_->sm_used_bytes();
  uint64_t sm_reads1 = 0;
  uint64_t corrupt1 = 0;
  for (size_t d = 0; d < stack_->device_count(); ++d) {
    sm_reads1 += stack_->device(d).stats().CounterValue("reads");
    corrupt1 += stack_->device(d).stats().CounterValue("blocks_corrupt");
  }
  report.sm_device_reads = sm_reads1 - sm_reads0;
  report.blocks_corrupt = corrupt1 - corrupt0;
  if (repl != nullptr) report.extents_replicated = repl->extents_replicated() - replicated0;
  report.io = SliceIoStats().Since(io0);
  const FabricLinkStats fab1 = FabricStats();
  report.fabric.requests = fab1.requests - fab0.requests;
  report.fabric.responses = fab1.responses - fab0.responses;
  report.fabric.request_bytes = fab1.request_bytes - fab0.request_bytes;
  report.fabric.response_bytes = fab1.response_bytes - fab0.response_bytes;
  report.fabric.queue_time = fab1.queue_time - fab0.queue_time;
  report.fabric.dropped = fab1.dropped - fab0.dropped;
  report.fabric.partition_deferred = fab1.partition_deferred - fab0.partition_deferred;
  return report;
}

}  // namespace sdm
