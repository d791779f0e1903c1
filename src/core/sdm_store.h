// SdmStore — the Software Defined Memory runtime (paper §4).
//
// Owns the two memory tiers and every mechanism the paper layers on top:
//   FM  : a DRAM arena holding direct-mapped tables, pruning mapping
//         tensors, and the storage budget of the software caches;
//   SM  : one or more simulated NVMe devices, each fronted by an io_uring
//         style IoEngine and a shared per-table throttle;
//   caches: the unified dual row cache (§4.3) + pooled-embedding cache
//         (§4.4), built at FinishLoading() so their FM budget can be
//         auto-sized to whatever direct tables and mapping tensors left.
//
// Device ownership (src/tenant): the SM device stack (devices, IO engines,
// batch schedulers, buffer arena, throttle) lives in a
// SharedDeviceService. A standalone store constructs a PRIVATE service
// from its own sm_specs — today's owned-device path, byte-identical to
// when the stack was inlined here. A multi-tenant shard instead ATTACHES
// to an external service (config.shared_device), sharing the device stack
// with its co-located tenants so their reads single-flight across store
// boundaries; the store keeps per-tenant FM, caches, and tables, and
// stamps its TenantId/TenantClass onto every scheduler request.
//
// Lifecycle: construct -> LoadTable()* -> FinishLoading() -> lookups via
// LookupEngine. Model refresh goes through ModelUpdater.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/dual_cache.h"
#include "cache/pooled_cache.h"
#include "common/event_loop.h"
#include "common/result.h"
#include "common/stats.h"
#include "core/placement.h"
#include "core/tuning.h"
#include "device/dram_device.h"
#include "device/nvme_device.h"
#include "embedding/pruning.h"
#include "embedding/embedding_table.h"
#include "io/buffer_arena.h"
#include "io/io_engine.h"
#include "io/throttle.h"
#include "obs/observability.h"
#include "prefetch/prefetcher.h"
#include "sched/batch_scheduler.h"
#include "tenant/shared_device_service.h"
#include "tenant/tenant.h"

namespace sdm {

struct SdmStoreConfig {
  /// Host FM (DRAM) available to the SDM: direct tables + mapping tensors +
  /// row/pooled cache storage must fit here. Per tenant in attach mode.
  Bytes fm_capacity = 256 * kMiB;

  /// SM devices on the host (specs define latency/IOPS; backing sizes the
  /// actual byte store for scaled-down runs, virtual until written). Owned
  /// mode only — must be empty when `shared_device` is set.
  std::vector<DeviceSpec> sm_specs;
  std::vector<Bytes> sm_backing_bytes;

  TuningConfig tuning;
  uint64_t seed = 42;

  // ---- Multi-tenant attach mode (src/tenant) ----
  /// Non-null: attach to this shared device stack instead of owning one.
  /// The service must outlive the store; tuning must pass
  /// ValidateForSharedDevice() (checked at LoadTable).
  SharedDeviceService* shared_device = nullptr;
  /// This shard's identity on the shared device (from RegisterTenant).
  TenantId tenant_id = 0;
  TenantClass tenant_class = TenantClass::kForeground;

  // ---- Observability (src/obs) ----
  /// The per-event-loop observability instance this store's components
  /// record into (null = off). Owned by the simulation layer and shared by
  /// everything on the same loop.
  Observability* obs = nullptr;
  /// Source prefix for metric names and trace tracks ("host0/", ...), so
  /// stores sharing one instance record under disjoint names.
  std::string obs_prefix;
};

/// Runtime state of one loaded table.
struct TableRuntime {
  TableId id{};
  TableConfig config;  ///< post-transform (deprune/dequant) configuration
  MemoryTier tier = MemoryTier::kSm;
  bool cache_enabled = true;
  size_t sm_device = 0;  ///< valid when tier == kSm
  Bytes offset = 0;      ///< byte offset on its tier's store
  /// Present for pruned tables served with an FM-resident mapping tensor.
  std::optional<MappingTensor> mapping;
  /// Size of the index domain requests use (unpruned row count).
  uint64_t index_domain = 0;
  /// Extent-registry id of this table's SM bytes (0 for FM tables) — the
  /// key for demand heat, replica routing, and read-repair (src/fault).
  uint64_t extent_id = 0;
  /// Rows of this table that pooled as zeros (exhausted retries, checksum
  /// failures, or sheds from a sick endpoint). Degraded-row-aware
  /// placement feeds on this: the ModelUpdater migrates chronically
  /// degraded tables toward FM at the next refresh.
  uint64_t degraded_rows = 0;
};

class SdmStore {
 public:
  SdmStore(SdmStoreConfig config, EventLoop* loop);

  SdmStore(const SdmStore&) = delete;
  SdmStore& operator=(const SdmStore&) = delete;

  // ---- Loading ------------------------------------------------------------

  /// Writes `image` to the placed tier and registers the table. `mapping`
  /// accompanies pruned tables (nullopt when dense or de-pruned);
  /// `index_domain` is the unpruned row count requests address.
  /// `content_hash` is image.ContentHash(), the device service's dedup key
  /// for SM placements (ignored for FM) — computed once by a caller loading
  /// the same image into several stores.
  Result<TableId> LoadTable(const EmbeddingTableImage& image, const TablePlacement& placement,
                            std::optional<MappingTensor> mapping, uint64_t index_domain,
                            uint64_t content_hash);

  /// Seals loading: sizes and builds the caches from the remaining FM
  /// budget; fails if FM is over-committed. No lookups before this.
  Status FinishLoading();

  [[nodiscard]] bool loading_finished() const { return finished_; }

  // ---- Table access --------------------------------------------------------

  [[nodiscard]] size_t table_count() const { return tables_.size(); }
  [[nodiscard]] const TableRuntime& table(TableId id) const { return tables_[Raw(id)]; }
  /// True when `id`'s SM extent is served by more than one tenant
  /// (shared-device content dedup): its bytes are read-only for every
  /// owner, whichever placed them first.
  [[nodiscard]] bool extent_shared(TableId id) const {
    const TableRuntime& t = tables_[Raw(id)];
    return t.tier == MemoryTier::kSm && device_service_->ExtentShared(t.extent_id);
  }

  // ---- Components ----------------------------------------------------------

  [[nodiscard]] DualRowCache* row_cache() { return row_cache_.get(); }
  [[nodiscard]] PooledEmbeddingCache* pooled_cache() { return pooled_cache_.get(); }
  /// Second-level block cache (nullptr unless tuning.enable_block_cache).
  [[nodiscard]] BlockCache* block_cache() { return block_cache_.get(); }
  [[nodiscard]] TableThrottle& throttle() { return device_service_->throttle(); }
  [[nodiscard]] DramDevice& fm() { return *fm_; }
  [[nodiscard]] size_t sm_device_count() const { return device_service_->device_count(); }
  [[nodiscard]] NvmeDevice& sm_device(size_t i) { return device_service_->device(i); }
  [[nodiscard]] IoEngine& io_engine(size_t i) { return device_service_->io_engine(i); }
  /// Per-device cross-request batch scheduler (src/sched). All concurrent
  /// lookups on the host — every attached tenant's, in shared mode —
  /// funnel their planned reads through these.
  [[nodiscard]] BatchScheduler& scheduler(size_t i) { return device_service_->scheduler(i); }
  /// The device stack this store reads from — private in owned mode,
  /// shared across tenants in attach mode.
  [[nodiscard]] SharedDeviceService& device_service() { return *device_service_; }
  [[nodiscard]] bool attached() const { return owned_service_ == nullptr; }

  // ---- Tenant identity (src/tenant) -----------------------------------------

  [[nodiscard]] TenantId tenant_id() const { return config_.tenant_id; }
  [[nodiscard]] TenantClass tenant_class() const { return config_.tenant_class; }
  /// Scheduler lane this store's demand reads ride: foreground tenants use
  /// the demand lane, background tenants the byte-budgeted background lane.
  [[nodiscard]] BatchScheduler::ReadRequest::Kind demand_kind() const {
    return config_.tenant_class == TenantClass::kBackground
               ? BatchScheduler::ReadRequest::Kind::kBackground
               : BatchScheduler::ReadRequest::Kind::kDemand;
  }
  /// Tenant-scoped throttle admission (§4.1): slots are keyed by
  /// (tenant, table) so co-located tenants cannot eat each other's budget.
  void AcquireIoSlot(TableId table, TableThrottle::Runner fn) {
    throttle().Acquire(config_.tenant_id, table, std::move(fn));
  }
  void ReleaseIoSlot(TableId table) { throttle().Release(config_.tenant_id, table); }

  /// Speculative readahead through the schedulers' low-priority lane.
  /// Null unless tuning.enable_prefetch — and inert by construction when
  /// io_batching is an ablation mode (the scheduler runs in bypass) or
  /// there is no row cache to fill.
  [[nodiscard]] Prefetcher* prefetcher() { return prefetcher_.get(); }
  [[nodiscard]] PrefetchStats prefetch_stats() const {
    return prefetcher_ == nullptr ? PrefetchStats{} : prefetcher_->stats();
  }
  /// Shared pool of device-read bounce buffers (coalesced IO path).
  [[nodiscard]] BufferArena& buffer_arena() { return device_service_->buffer_arena(); }
  [[nodiscard]] EventLoop* loop() { return loop_; }
  [[nodiscard]] const TuningConfig& tuning() const { return config_.tuning; }
  [[nodiscard]] const SdmStoreConfig& config() const { return config_; }
  /// How `table`'s missing rows plan into reads on `device`: the one planner
  /// config of demand lookups and the Prefetcher. The block-cache ablation
  /// reads whole blocks, so it turns SGL off.
  [[nodiscard]] PlannerConfig planner_config(const TableRuntime& table, size_t device) const;

  // ---- Observability (src/obs) ----
  [[nodiscard]] Observability* obs() const { return config_.obs; }
  [[nodiscard]] const std::string& obs_prefix() const { return config_.obs_prefix; }

  // ---- FM accounting --------------------------------------------------------

  [[nodiscard]] Bytes fm_capacity() const { return config_.fm_capacity; }
  [[nodiscard]] Bytes fm_direct_bytes() const { return fm_direct_bytes_; }
  [[nodiscard]] Bytes fm_mapping_bytes() const { return fm_mapping_bytes_; }
  /// FM left for cache storage after direct tables and mapping tensors.
  [[nodiscard]] Bytes fm_cache_budget() const;

  /// Aggregate SM bytes of this store's loaded tables — the tenant's
  /// LOGICAL footprint; shared extents are counted here but occupy device
  /// space only once (see SharedDeviceService::sm_used_bytes()).
  [[nodiscard]] Bytes sm_used_bytes() const { return sm_used_total_; }

  /// Virtual time spent writing table images during load (per §A.3 updates
  /// take longer when embeddings must be saved to SM).
  [[nodiscard]] SimDuration load_write_time() const { return load_write_time_; }

  [[nodiscard]] StatsRegistry& stats() { return stats_; }

  /// Invalidates one row in the row cache (model update path).
  void InvalidateRow(TableId table, RowIndex row);

  /// Drops every pooled-cache entry for `table` (any row change invalidates
  /// pooled outputs that may contain it).
  void InvalidatePooledFor(TableId table);

  // ---- Self-healing feedback (src/fault) ------------------------------------

  /// Charges `n` zero-pooled rows to `table`'s degraded tally (fed by the
  /// LookupEngine's degraded accounting).
  void RecordTableDegradedRows(TableId table, uint64_t n) {
    tables_[Raw(table)].degraded_rows += n;
  }

  /// Moves a chronically degraded SM table's bytes into FM (refresh-time,
  /// offline — the ModelUpdater's degraded-placement feedback). Fails when
  /// the table is FM-resident already, its extent is shared (other tenants
  /// still serve from it), or FM lacks headroom beyond what the caches and
  /// direct tables committed. The vacated SM extent is not reclaimed (bump
  /// allocator), matching how table space behaves everywhere else.
  Status MigrateTableToFm(TableId table);

 private:
  SdmStoreConfig config_;
  EventLoop* loop_;
  std::unique_ptr<DramDevice> fm_;
  /// The private device stack of an owned-mode store (null when attached).
  /// Declared before the caches/prefetcher that point into it.
  std::unique_ptr<SharedDeviceService> owned_service_;
  SharedDeviceService* device_service_ = nullptr;
  std::unique_ptr<DualRowCache> row_cache_;
  std::unique_ptr<PooledEmbeddingCache> pooled_cache_;
  std::unique_ptr<BlockCache> block_cache_;
  // Declared after the caches and the service whose schedulers it points into.
  std::unique_ptr<Prefetcher> prefetcher_;

  std::vector<TableRuntime> tables_;
  Bytes fm_used_ = 0;  // direct-table arena bump allocator
  Bytes fm_direct_bytes_ = 0;
  Bytes fm_mapping_bytes_ = 0;
  Bytes sm_used_total_ = 0;
  /// FM the caches committed at FinishLoading (row + block + pooled
  /// capacities) — the part of fm_capacity no later migration may eat.
  Bytes fm_cache_committed_ = 0;
  SimDuration load_write_time_;
  bool finished_ = false;
  StatsRegistry stats_;
};

}  // namespace sdm
