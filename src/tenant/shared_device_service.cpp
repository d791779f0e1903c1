#include "tenant/shared_device_service.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "fault/replication_manager.h"

namespace sdm {

SharedDeviceService::SharedDeviceService(SharedDeviceConfig config, EventLoop* loop)
    : config_(std::move(config)),
      loop_(loop),
      throttle_(config_.tuning.throttle, loop) {
  assert(loop != nullptr);
  assert(config_.sm_specs.size() == config_.sm_backing_bytes.size());

  Rng rng(config_.seed);
  const size_t ports = config_.sm_specs.size();
  for (size_t i = 0; i < ports; ++i) {
    DeviceSpec spec = config_.sm_specs[i];
    if (!config_.tuning.sub_block_reads) {
      // Tuning knob: force the plain block path even on capable devices.
      spec.supports_sub_block = false;
    }
    sm_.push_back(std::make_unique<NvmeDevice>(spec, config_.sm_backing_bytes[i], loop_,
                                               rng.Next()));
    // Per-4KB-block checksums, stamped at write and verified at
    // bounce-buffer fill (self-healing integrity layer). Off = byte-
    // identical device behaviour.
    if (config_.tuning.enable_checksums) sm_.back()->set_checksums(true);
    IoEngineConfig ecfg;
    ecfg.queue_depth = config_.tuning.io_queue_depth;
    ecfg.completion_mode = config_.tuning.completion_mode;
    engines_.push_back(std::make_unique<IoEngine>(sm_.back().get(), loop_, ecfg));
    BatchSchedulerConfig bcfg;
    bcfg.cross_request = config_.tuning.io_batching == IoBatching::kCrossRequest;
    bcfg.max_batch_sqes = config_.tuning.max_batch_sqes;
    bcfg.max_batch_delay = config_.tuning.max_batch_delay;
    bcfg.max_coalesce_bytes = config_.tuning.max_coalesce_bytes;
    bcfg.coalesce_gap_bytes = config_.tuning.coalesce_gap_bytes;
    bcfg.prefetch_max_inflight_bytes = config_.tuning.prefetch_max_inflight_bytes;
    bcfg.background_max_inflight_bytes = config_.tuning.background_max_inflight_bytes;
    bcfg.background_flush_delay = config_.tuning.background_flush_delay;
    bcfg.io_deadline = config_.tuning.io_deadline;
    bcfg.hedge_latency_factor = config_.tuning.hedge_latency_factor;
    bcfg.hedge_min_samples = config_.tuning.hedge_min_samples;
    schedulers_.push_back(std::make_unique<BatchScheduler>(engines_.back().get(),
                                                           &buffer_arena_, loop_, bcfg));
    if (config_.obs != nullptr) {
      const std::string dev_name =
          config_.obs_prefix + "dev" + std::to_string(i) + "/";
      engines_.back()->set_obs(config_.obs, dev_name);
      schedulers_.back()->set_obs(config_.obs, dev_name);
    }
  }
  sm_used_.assign(sm_.size(), 0);

  HealthMonitorConfig hcfg;
  hcfg.enabled = config_.tuning.enable_health_monitor;
  hcfg.sick_threshold = config_.tuning.health_sick_threshold;
  hcfg.window = config_.tuning.health_window;
  hcfg.probe_interval = config_.tuning.health_probe_interval;
  health_ = std::make_unique<HealthMonitor>(hcfg, ports);
  if (config_.obs != nullptr) {
    health_->set_obs(config_.obs, loop_, config_.obs_prefix);
  }

  if (config_.tuning.enable_replication) {
    // Cross-replica hedging: a scheduler whose demand read crosses its p99
    // deadline may hedge onto the span's replica instead of re-queueing on
    // the (possibly sick) primary.
    for (size_t i = 0; i < schedulers_.size(); ++i) {
      schedulers_[i]->set_replica_peer(
          [this, i](Bytes begin, Bytes end)
              -> std::optional<BatchScheduler::ReplicaPeer> {
            const auto route = ReplicaRouteForSpan(i, begin, end);
            if (!route.has_value()) return std::nullopt;
            return BatchScheduler::ReplicaPeer{engines_[route->device].get(),
                                               route->shift};
          });
    }
    replication_ = std::make_unique<ReplicationManager>(this, loop_);
    if (config_.obs != nullptr) {
      replication_->set_obs(config_.obs, config_.obs_prefix);
    }
    health_->SetSickTransitionListener(
        [this](size_t endpoint) { replication_->OnEndpointSick(endpoint); });
  }
}

SharedDeviceService::~SharedDeviceService() = default;

void SharedDeviceService::RecordExtentDemand(uint64_t id) {
  if (id == 0) return;
  if (auto it = extent_infos_.find(id); it != extent_infos_.end()) ++it->second.heat;
}

std::optional<SharedDeviceService::ReplicaRoute> SharedDeviceService::FindReplicaRoute(
    uint64_t id, size_t avoid_device) const {
  const auto it = extent_infos_.find(id);
  if (it == extent_infos_.end()) return std::nullopt;
  for (const ReplicaLocation& loc : it->second.replicas) {
    if (loc.device == avoid_device || health_->Sick(loc.device)) continue;
    return ReplicaRoute{loc.device, static_cast<int64_t>(loc.offset) -
                                        static_cast<int64_t>(it->second.offset)};
  }
  return std::nullopt;
}

void SharedDeviceService::AddReplicaRoute(uint64_t id, ReplicaLocation loc) {
  if (auto it = extent_infos_.find(id); it != extent_infos_.end()) {
    it->second.replicas.push_back(loc);
  }
}

std::vector<uint64_t> SharedDeviceService::HottestExtentsOn(size_t device,
                                                            size_t max) const {
  std::vector<std::pair<uint64_t, uint64_t>> heat_id;  // (heat, id)
  for (const auto& [id, info] : extent_infos_) {
    if (info.device != device || !info.replicas.empty()) continue;
    heat_id.emplace_back(info.heat, id);
  }
  std::sort(heat_id.begin(), heat_id.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<uint64_t> out;
  for (const auto& [heat, id] : heat_id) {
    if (out.size() >= max) break;
    out.push_back(id);
  }
  return out;
}

Result<size_t> SharedDeviceService::FindReplicaTarget(size_t source) const {
  std::optional<size_t> best;
  for (size_t i = 0; i < sm_.size(); ++i) {
    if (i == source || health_->Sick(i)) continue;
    if (!best.has_value() || sm_used_[i] < sm_used_[*best]) best = i;
  }
  if (!best.has_value()) {
    return ResourceExhaustedError("no healthy replica target device available");
  }
  return *best;
}

Result<SharedDeviceService::ReplicaLocation> SharedDeviceService::AllocateReplica(
    uint64_t id, size_t target) {
  const auto it = extent_infos_.find(id);
  if (it == extent_infos_.end()) return NotFoundError("unknown extent id");
  const ExtentInfo& info = it->second;
  // Round the bump cursor up to the next offset congruent with the primary
  // offset mod kBlockSize: routed spans then shift by a whole number of
  // blocks and keep their block geometry (and checksum block boundaries).
  const Bytes base = sm_used_[target];
  const Bytes want = info.offset % kBlockSize;
  const Bytes off = base + (want + kBlockSize - base % kBlockSize) % kBlockSize;
  if (off + info.size > sm_[target]->backing_size()) {
    return ResourceExhaustedError("replica target device over-committed");
  }
  sm_used_[target] = off + info.size;
  return ReplicaLocation{target, off};
}

std::optional<SharedDeviceService::ExtentSpan> SharedDeviceService::ExtentInfoFor(
    uint64_t id) const {
  const auto it = extent_infos_.find(id);
  if (it == extent_infos_.end()) return std::nullopt;
  return ExtentSpan{it->second.device, it->second.offset, it->second.size};
}

std::optional<SharedDeviceService::ReplicaRoute> SharedDeviceService::ReplicaRouteForSpan(
    size_t device, Bytes begin, Bytes end) const {
  for (const auto& [id, info] : extent_infos_) {
    if (info.device != device || info.replicas.empty()) continue;
    if (begin < info.offset || end > info.offset + info.size) continue;
    return FindReplicaRoute(id, device);
  }
  return std::nullopt;
}

void SharedDeviceService::InstallFaultInjector(FaultInjector* injector) {
  for (size_t i = 0; i < sm_.size(); ++i) {
    sm_[i]->set_fault_injector(injector, static_cast<int>(i));
  }
}

TenantId SharedDeviceService::RegisterTenant(TenantClass cls) {
  tenant_classes_.push_back(cls);
  return static_cast<TenantId>(tenant_classes_.size() - 1);
}

Result<SharedDeviceService::Extent> SharedDeviceService::PlaceTable(
    TenantId tenant, const std::string& table_name, std::span<const uint8_t> bytes,
    uint64_t content_hash) {
  if (sm_.empty()) return FailedPreconditionError("no SM devices configured");

  const ExtentKey key{table_name, bytes.size(), content_hash};
  if (auto it = extents_.find(key); it != extents_.end()) {
    // Cross-tenant dedup only: a tenant re-loading identical content (two
    // copies in one model) gets its own extent, matching what an
    // owned-device store would do.
    ExtentInfo& info = extent_infos_.at(it->second);
    if (!info.owners.contains(tenant)) {
      info.owners.insert(tenant);
      dedup_saved_ += bytes.size();
      SDM_LOG_INFO << "shared extent: tenant " << tenant << " attached to "
                   << table_name << " (" << AsMiB(bytes.size()) << " MiB deduped)";
      Extent ext;
      ext.device = info.device;
      ext.offset = info.offset;
      ext.id = it->second;
      return ext;
    }
  }

  // Least-filled device gets the table (simple balance; tables are the
  // striping unit, as in the paper's two-SSD hosts).
  size_t best = 0;
  for (size_t i = 1; i < sm_.size(); ++i) {
    if (sm_used_[i] < sm_used_[best]) best = i;
  }
  if (sm_used_[best] + bytes.size() > sm_[best]->backing_size()) {
    return ResourceExhaustedError("SM device over-committed by table " + table_name);
  }
  Extent ext;
  ext.device = best;
  ext.offset = sm_used_[best];
  auto wrote = sm_[best]->Write(ext.offset, bytes);
  if (!wrote.ok()) return wrote.status();
  ext.write_time = wrote.value();
  ext.id = next_extent_id_++;
  extent_infos_.emplace(ext.id,
                        ExtentInfo{ext.device, ext.offset, bytes.size(), 0, {}, {tenant}});
  sm_used_[best] += bytes.size();
  // A same-tenant duplicate (owner re-placing an identical table) keeps its
  // fresh extent PRIVATE: the registry entry — and any co-tenants attached
  // to it — must not be clobbered.
  extents_.try_emplace(key, ext.id);
  return ext;
}

bool SharedDeviceService::ExtentShared(uint64_t id) const {
  const auto it = extent_infos_.find(id);
  return it != extent_infos_.end() && it->second.owners.size() > 1;
}

Bytes SharedDeviceService::sm_used_bytes() const {
  Bytes total = 0;
  for (const Bytes b : sm_used_) total += b;
  return total;
}

CrossRequestIoStats SharedDeviceService::cross_request_io_stats() const {
  CrossRequestIoStats agg;
  for (const auto& s : schedulers_) agg += s->Snapshot();
  return agg;
}

TenantIoShare SharedDeviceService::tenant_io_share(TenantId id) const {
  TenantIoShare agg;
  for (const auto& s : schedulers_) {
    const TenantIoShare one = s->tenant_share(id);
    agg.demand_reads += one.demand_reads;
    agg.demand_bytes += one.demand_bytes;
    agg.background_reads += one.background_reads;
    agg.background_bytes += one.background_bytes;
    agg.prefetch_bytes += one.prefetch_bytes;
    agg.singleflight_hits += one.singleflight_hits;
    agg.cross_tenant_hits += one.cross_tenant_hits;
    agg.cross_tenant_bytes_saved += one.cross_tenant_bytes_saved;
  }
  return agg;
}

}  // namespace sdm
