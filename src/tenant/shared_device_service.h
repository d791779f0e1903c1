// SharedDeviceService — one SM device stack shared by N tenant stores
// (paper §5.3's capacity argument at IO granularity).
//
// The service owns everything that is per-DEVICE rather than per-tenant:
// the simulated NVMe devices, their IoEngines, the
// per-device BatchSchedulers, the shared BufferArena, the (tenant, table)
// scoped TableThrottle, and the device-space allocator. N SdmStore shards
// (one per tenant, or per NUMA node) attach to it, so concurrent tenants'
// reads flow through ONE scheduler per device and dedup / merge /
// single-flight across store boundaries — co-located tenants share each
// other's hot-block reads instead of issuing N copies.
//
// Table extents and content dedup: tenants serving the same model (A/B
// variants, replicas of a shared base) load byte-identical tables. The
// extent registry keys on (table name, size, content hash); a tenant
// loading a table another tenant already placed attaches to the existing
// extent — no second copy, no second write — which is exactly what makes
// their hot sets overlap at the device and the cross-tenant single-flight
// pay off. The same tenant never dedups against itself, so a single-tenant
// service behaves byte-identically to the owned-device path (SdmStore
// constructs a private service when not attached to a shared one). Shared
// extents are read-only: in-place model updates of a deduped table are not
// supported (refresh loads a new extent instead).
//
// QoS: RegisterTenant records each tenant's TenantClass; stores route
// their demand reads to the scheduler lane the class maps to (foreground =
// demand lane, background = byte-budgeted background lane). The service is
// also the aggregation point for per-tenant fair-share accounting: bus
// bytes per lane, cross-tenant single-flight hits, throttle queue time.
//
// Disaggregation (src/fabric): a FabricAttachedService wraps this service
// behind per-device FabricLinks so whole HOSTS — not just tenant stores
// within a host — share the stack; hosts register through the same
// RegisterTenant machinery and the ledger above becomes the per-host
// fair-share ledger.
//
// Single-threaded on one EventLoop, like every component it owns. The
// service must outlive every attached store.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/event_loop.h"
#include "common/result.h"
#include "core/tuning.h"
#include "device/nvme_device.h"
#include "io/buffer_arena.h"
#include "io/io_engine.h"
#include "fault/health_monitor.h"
#include "io/throttle.h"
#include "obs/observability.h"
#include "sched/batch_scheduler.h"
#include "tenant/tenant.h"

namespace sdm {

class FaultInjector;
class ReplicationManager;
class SharedDeviceService;

struct SharedDeviceConfig {
  /// SM devices (specs define latency/IOPS; backing sizes the byte store,
  /// which commits host memory only where tables are written).
  std::vector<DeviceSpec> sm_specs;
  std::vector<Bytes> sm_backing_bytes;
  /// Device-side knobs: queue depth, completion mode, scheduler batching,
  /// lane budgets, throttle. Tenant stores keep their own cache knobs.
  TuningConfig tuning;
  uint64_t seed = 42;

  // ---- Observability (src/obs) ----
  /// Per-loop observability instance for the stack's components (null =
  /// off). Must live on the same event loop as this service.
  Observability* obs = nullptr;
  /// Source prefix for the stack's metric names and trace tracks; devices
  /// get "<prefix>dev<i>/" ("svc/dev0/" on a fabric-attached stack).
  std::string obs_prefix;
};

class SharedDeviceService {
 public:
  /// One placed table extent on a shared device.
  struct Extent {
    size_t device = 0;
    Bytes offset = 0;
    /// Zero when this placement attached to bytes another tenant already
    /// wrote (no new device space, no write).
    SimDuration write_time;
    /// Registry id for replica routing and demand heat (0 = untracked).
    uint64_t id = 0;
  };

  SharedDeviceService(SharedDeviceConfig config, EventLoop* loop);
  ~SharedDeviceService();

  SharedDeviceService(const SharedDeviceService&) = delete;
  SharedDeviceService& operator=(const SharedDeviceService&) = delete;

  // ---- Tenants -------------------------------------------------------------

  /// Registers one tenant shard; the returned id scopes its throttle keys,
  /// scheduler attribution, and extent-dedup domain.
  TenantId RegisterTenant(TenantClass cls);

  [[nodiscard]] size_t tenant_count() const { return tenant_classes_.size(); }
  [[nodiscard]] TenantClass tenant_class(TenantId id) const {
    return tenant_classes_[id];
  }

  // ---- Table placement -----------------------------------------------------

  /// Places `bytes` for `tenant`: attaches to an existing extent when a
  /// DIFFERENT tenant already placed identical content under the same table
  /// name, otherwise allocates on the least-filled device and writes.
  /// `content_hash` is the caller's EmbeddingTableImage::ContentHash() of
  /// `bytes`: a loader placing one image into N stores hashes it once.
  [[nodiscard]] Result<Extent> PlaceTable(TenantId tenant, const std::string& table_name,
                                          std::span<const uint8_t> bytes,
                                          uint64_t content_hash);

  /// True when more than one tenant serves from extent `id` — its bytes are
  /// then read-only for every one of them, the first placer included.
  [[nodiscard]] bool ExtentShared(uint64_t id) const;

  // ---- Self-healing: extent heat, replicas, routing (src/fault) ------------

  /// One replica of an extent's bytes on another device. Replica offsets
  /// preserve the primary offset modulo the 4KB block, so routing a span to
  /// its replica is a block-aligned shift.
  struct ReplicaLocation {
    size_t device = 0;
    Bytes offset = 0;
  };
  /// A routable replica: read the primary-space span shifted by `shift`
  /// (always a multiple of kBlockSize) on `device`.
  struct ReplicaRoute {
    size_t device = 0;
    int64_t shift = 0;
  };
  /// Where an extent's primary bytes live (the ReplicationManager's copy
  /// source).
  struct ExtentSpan {
    size_t device = 0;
    Bytes offset = 0;
    Bytes size = 0;
  };

  /// Bumps demand heat on extent `id` (no-op for 0/unknown). Lookup engines
  /// call this once per lookup that reaches the IO phase; the heat ranking
  /// decides which extents a sick endpoint re-replicates first.
  void RecordExtentDemand(uint64_t id);

  /// Healthiest replica route for `id` avoiding `avoid_device`; nullopt
  /// when the extent has no replica on a non-sick device.
  [[nodiscard]] std::optional<ReplicaRoute> FindReplicaRoute(uint64_t id,
                                                             size_t avoid_device) const;

  /// Publishes a replica of `id` at `loc` so FindReplicaRoute can reach it.
  /// Unknown ids are ignored.
  void AddReplicaRoute(uint64_t id, ReplicaLocation loc);

  /// Extent ids resident on `device`, hottest demand first (ties broken by
  /// id for determinism); extents that already have a replica are excluded.
  [[nodiscard]] std::vector<uint64_t> HottestExtentsOn(size_t device, size_t max) const;

  /// Least-filled non-sick device other than `source` — the replica target.
  [[nodiscard]] Result<size_t> FindReplicaTarget(size_t source) const;

  /// Bump-allocates space for a replica of `id` on `target`, preserving the
  /// primary offset modulo the block size (routed spans keep their block
  /// geometry). Does not publish the route — the
  /// ReplicationManager does, after the copy lands.
  [[nodiscard]] Result<ReplicaLocation> AllocateReplica(uint64_t id, size_t target);

  /// Primary span of extent `id` (copy source for re-replication).
  [[nodiscard]] std::optional<ExtentSpan> ExtentInfoFor(uint64_t id) const;

  /// The re-replication engine (nullptr unless tuning.enable_replication).
  [[nodiscard]] ReplicationManager* replication() { return replication_.get(); }

  // ---- Device stack --------------------------------------------------------

  [[nodiscard]] size_t device_count() const { return sm_.size(); }
  [[nodiscard]] NvmeDevice& device(size_t i) { return *sm_[i]; }
  [[nodiscard]] IoEngine& io_engine(size_t i) { return *engines_[i]; }
  /// Whether reads on port `i` use SGL sub-block transfers: the tuning
  /// knob and the device behind the port must both allow it.
  [[nodiscard]] bool sub_block_reads(size_t i) const {
    return config_.tuning.sub_block_reads && engines_[i]->device()->spec().supports_sub_block;
  }
  [[nodiscard]] BatchScheduler& scheduler(size_t i) { return *schedulers_[i]; }
  [[nodiscard]] TableThrottle& throttle() { return throttle_; }
  [[nodiscard]] BufferArena& buffer_arena() { return buffer_arena_; }
  [[nodiscard]] EventLoop* loop() { return loop_; }
  [[nodiscard]] const SharedDeviceConfig& config() const { return config_; }

  /// Installs a scripted fault injector (src/fault) on every device in the
  /// stack (media errors, stalls, fail-slow). The injector must outlive the
  /// service; nullptr uninstalls.
  void InstallFaultInjector(FaultInjector* injector);

  /// Per-device health scores fed by lookup IO outcomes; lookup engines
  /// consult it to shed work from sick endpoints (inert unless
  /// tuning.enable_health_monitor).
  [[nodiscard]] HealthMonitor& health() { return *health_; }

  // ---- Accounting ----------------------------------------------------------

  /// Physical bytes occupied on the devices (after extent dedup).
  [[nodiscard]] Bytes sm_used_bytes() const;
  /// Bytes tenants did NOT have to place because an extent was shared.
  [[nodiscard]] Bytes sm_dedup_saved_bytes() const { return dedup_saved_; }

  /// Scheduler effectiveness aggregated over every device.
  [[nodiscard]] CrossRequestIoStats cross_request_io_stats() const;
  /// One tenant's fair-share ledger aggregated over every device.
  [[nodiscard]] TenantIoShare tenant_io_share(TenantId id) const;
  /// Virtual time `tenant`'s reads spent queued for a throttle slot.
  [[nodiscard]] SimDuration throttle_queue_time(TenantId id) const {
    return throttle_.QueueTime(id);
  }

 private:
  /// Registry key of one placed table's content.
  struct ExtentKey {
    std::string name;
    Bytes size = 0;
    uint64_t content_hash = 0;
    auto operator<=>(const ExtentKey&) const = default;
  };
  /// Replica-routing view of one placed extent.
  struct ExtentInfo {
    size_t device = 0;
    Bytes offset = 0;
    Bytes size = 0;
    uint64_t heat = 0;  ///< lookups that reached the IO phase on this extent
    std::vector<ReplicaLocation> replicas;
    /// Tenants serving from these bytes.
    std::set<TenantId> owners;
  };

  /// Replica-aware hedge target for a span on `device` (installed on the
  /// schedulers when replication is enabled).
  [[nodiscard]] std::optional<ReplicaRoute> ReplicaRouteForSpan(size_t device, Bytes begin,
                                                                Bytes end) const;

  SharedDeviceConfig config_;
  EventLoop* loop_;
  // Declared before the schedulers that hold a pointer to it so it
  // outlives them on destruction.
  BufferArena buffer_arena_;
  std::vector<std::unique_ptr<NvmeDevice>> sm_;
  std::vector<std::unique_ptr<IoEngine>> engines_;
  std::vector<std::unique_ptr<BatchScheduler>> schedulers_;
  TableThrottle throttle_;
  std::unique_ptr<HealthMonitor> health_;
  std::vector<TenantClass> tenant_classes_;  ///< by TenantId
  std::vector<Bytes> sm_used_;  // per-device bump allocator
  std::map<ExtentKey, uint64_t> extents_;  ///< content -> extent id
  Bytes dedup_saved_ = 0;
  uint64_t next_extent_id_ = 1;
  std::map<uint64_t, ExtentInfo> extent_infos_;
  std::unique_ptr<ReplicationManager> replication_;
};

}  // namespace sdm
