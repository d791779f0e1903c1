#include "core/sdm_store.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace sdm {

SdmStore::SdmStore(SdmStoreConfig config, EventLoop* loop)
    : config_(std::move(config)), loop_(loop) {
  assert(loop != nullptr);

  fm_ = std::make_unique<DramDevice>(config_.fm_capacity);

  if (config_.shared_device != nullptr) {
    // Attach mode: the device stack (and its throttle, schedulers, arena)
    // is shared with co-located tenant stores.
    assert(config_.sm_specs.empty() &&
           "attached stores must not configure their own SM devices");
    device_service_ = config_.shared_device;
  } else {
    // Owned mode: a private service, built exactly as the shared one would
    // be — one code path, so a single-tenant shared-device run is
    // byte-identical to this store owning its stack outright.
    SharedDeviceConfig dcfg;
    dcfg.sm_specs = config_.sm_specs;
    dcfg.sm_backing_bytes = config_.sm_backing_bytes;
    dcfg.tuning = config_.tuning;
    dcfg.seed = config_.seed;
    dcfg.obs = config_.obs;
    dcfg.obs_prefix = config_.obs_prefix;
    owned_service_ = std::make_unique<SharedDeviceService>(std::move(dcfg), loop_);
    device_service_ = owned_service_.get();
    if (device_service_->tenant_count() == 0) {
      (void)device_service_->RegisterTenant(config_.tenant_class);
    }
  }
}

Result<TableId> SdmStore::LoadTable(const EmbeddingTableImage& image,
                                    const TablePlacement& placement,
                                    std::optional<MappingTensor> mapping,
                                    uint64_t index_domain, uint64_t content_hash) {
  if (finished_) return FailedPreconditionError("LoadTable after FinishLoading");
  if (attached()) {
    // The seam every tenant/lane knob must hold for: reject inconsistent
    // configurations here (with a Status) instead of asserting deep in the
    // IO path at serving time.
    if (Status s = config_.tuning.ValidateForSharedDevice(); !s.ok()) return s;
  }

  TableRuntime rt;
  rt.id = MakeTableId(static_cast<uint32_t>(tables_.size()));
  rt.config = image.config();
  rt.tier = placement.tier;
  rt.cache_enabled = placement.cache_enabled;
  rt.index_domain = index_domain;

  const Bytes size = image.size_bytes();
  if (rt.tier == MemoryTier::kFm) {
    if (fm_used_ + size > config_.fm_capacity) {
      return ResourceExhaustedError("FM over-committed by direct table " + rt.config.name);
    }
    rt.offset = fm_used_;
    if (Status s = fm_->Write(rt.offset, image.bytes()); !s.ok()) return s;
    fm_used_ += size;
    fm_direct_bytes_ += size;
  } else {
    auto placed = device_service_->PlaceTable(config_.tenant_id, rt.config.name,
                                              image.bytes(), content_hash);
    if (!placed.ok()) return placed.status();
    rt.sm_device = placed.value().device;
    rt.offset = placed.value().offset;
    rt.extent_id = placed.value().id;
    load_write_time_ += placed.value().write_time;
    sm_used_total_ += size;
  }

  if (mapping.has_value()) {
    fm_mapping_bytes_ += mapping->size_bytes();
    rt.mapping = std::move(mapping);
  }

  tables_.push_back(std::move(rt));
  return tables_.back().id;
}

Bytes SdmStore::fm_cache_budget() const {
  const Bytes committed = fm_direct_bytes_ + fm_mapping_bytes_;
  return committed >= config_.fm_capacity ? 0 : config_.fm_capacity - committed;
}

Status SdmStore::FinishLoading() {
  if (finished_) return FailedPreconditionError("FinishLoading called twice");

  const Bytes budget = fm_cache_budget();
  TuningConfig& tuning = config_.tuning;

  Bytes pooled_capacity = 0;
  if (tuning.enable_pooled_cache) {
    pooled_capacity = std::min<Bytes>(tuning.pooled_cache.capacity, budget / 4);
  }

  if (tuning.enable_row_cache) {
    DualCacheConfig ccfg = tuning.row_cache;
    if (ccfg.capacity == 0) {
      // Auto-size: whatever FM the direct tables and mapping tensors left,
      // minus the pooled cache's cut. This is how de-pruning "frees up the
      // memory used by mapping tensors" into cache space (§4.5).
      ccfg.capacity = budget - pooled_capacity;
    }
    Bytes block_capacity = 0;
    if (tuning.enable_block_cache) {
      // The block layer takes its share out of the same FM budget — the
      // dilution that made the paper reject the multi-level arrangement.
      block_capacity = static_cast<Bytes>(static_cast<double>(ccfg.capacity) *
                                          tuning.block_cache_fraction);
      ccfg.capacity -= block_capacity;
    }
    if (ccfg.capacity + block_capacity + pooled_capacity + fm_direct_bytes_ +
            fm_mapping_bytes_ >
        config_.fm_capacity) {
      return ResourceExhaustedError("FM over-committed: caches + tables exceed capacity");
    }
    if (ccfg.capacity < 4 * kKiB) {
      return ResourceExhaustedError("FM budget leaves no usable row-cache space");
    }
    fm_cache_committed_ = ccfg.capacity + block_capacity + pooled_capacity;
    row_cache_ = std::make_unique<DualRowCache>(ccfg);
    for (const auto& t : tables_) {
      row_cache_->RegisterTable(t.id, t.config.row_bytes());
    }
    if (tuning.enable_block_cache) {
      BlockCacheConfig bcfg = tuning.block_cache;
      bcfg.capacity = block_capacity;
      block_cache_ = std::make_unique<BlockCache>(bcfg);
    }
  }

  if (tuning.enable_pooled_cache) {
    PooledCacheConfig pcfg = tuning.pooled_cache;
    pcfg.capacity = pooled_capacity;
    pooled_cache_ = std::make_unique<PooledEmbeddingCache>(pcfg);
  }

  // Speculative prefetch rides the cross-request scheduler's low-priority
  // lane and pays off by filling the row cache ahead of demand — so it is
  // only built when all three exist. In particular it stays inert in the
  // io_batching ablation modes (bypass-mode parity: the ablation baselines
  // must not gain a speculation side channel).
  if (tuning.enable_prefetch && tuning.io_batching == IoBatching::kCrossRequest &&
      device_service_->device_count() > 0 && row_cache_ != nullptr) {
    PrefetchConfig pfcfg;
    pfcfg.strategy = tuning.prefetch_strategy;
    pfcfg.depth = tuning.prefetch_depth;
    pfcfg.min_confidence = tuning.prefetch_min_confidence;
    pfcfg.tenant = config_.tenant_id;
    std::vector<BatchScheduler*> scheds;
    scheds.reserve(device_service_->device_count());
    for (size_t i = 0; i < device_service_->device_count(); ++i) {
      scheds.push_back(&device_service_->scheduler(i));
    }
    prefetcher_ = std::make_unique<Prefetcher>(pfcfg, row_cache_.get(),
                                               block_cache_.get(), std::move(scheds));
    if (config_.obs != nullptr) {
      prefetcher_->set_obs(config_.obs, loop_, config_.obs_prefix);
    }
    for (const TableRuntime& t : tables_) {
      if (t.tier != MemoryTier::kSm) continue;
      // A cache-bypassing table (kPerTableCacheEnablement) has nowhere to
      // put prefetched rows — speculation for it would be pure wasted IO
      // that also can never be claimed.
      if (!t.cache_enabled) continue;
      Prefetcher::TableInfo info;
      info.id = t.id;
      info.table_offset = t.offset;
      info.num_rows = t.config.num_rows;
      info.device = t.sm_device;
      info.block_mode = block_cache_ != nullptr;
      info.plan = planner_config(t, t.sm_device);
      prefetcher_->RegisterTable(info);
    }
  }

  finished_ = true;
  SDM_LOG_INFO << "SdmStore ready: " << tables_.size() << " tables, FM direct "
               << AsMiB(fm_direct_bytes_) << " MiB, mappings " << AsMiB(fm_mapping_bytes_)
               << " MiB, cache budget " << AsMiB(fm_cache_budget()) << " MiB, SM "
               << AsMiB(sm_used_total_) << " MiB"
               << (attached() ? " (shared device)" : "");
  return Status::Ok();
}

PlannerConfig SdmStore::planner_config(const TableRuntime& table, size_t device) const {
  PlannerConfig p;
  p.row_bytes = table.config.row_bytes();
  p.sub_block = !(block_cache_ != nullptr && table.cache_enabled) &&
                device_service_->sub_block_reads(device);
  p.merge = config_.tuning.io_batching != IoBatching::kPerRow;
  p.max_coalesce_bytes = config_.tuning.max_coalesce_bytes;
  p.coalesce_gap_bytes = config_.tuning.coalesce_gap_bytes;
  return p;
}

void SdmStore::InvalidateRow(TableId table, RowIndex row) {
  if (row_cache_ != nullptr) {
    (void)row_cache_->Erase(RowKey{table, row});
  }
}

void SdmStore::InvalidatePooledFor(TableId table) {
  if (pooled_cache_ != nullptr) {
    pooled_cache_->InvalidateTable(table);
  }
}

Status SdmStore::MigrateTableToFm(TableId table) {
  TableRuntime& rt = tables_[Raw(table)];
  if (rt.tier != MemoryTier::kSm) {
    return FailedPreconditionError("table is already FM-resident");
  }
  if (extent_shared(table)) {
    return FailedPreconditionError(
        "cannot migrate a shared extent: co-tenants still serve from it");
  }
  const Bytes size =
      static_cast<Bytes>(rt.config.num_rows) * rt.config.row_bytes();
  if (fm_used_ + size + fm_mapping_bytes_ + fm_cache_committed_ >
      config_.fm_capacity) {
    return ResourceExhaustedError("FM lacks headroom for degraded-table migration");
  }
  // The device backing store is ground truth (bit rot is in-flight only),
  // so this is the same offline copy a refresh-time re-load would do.
  NvmeDevice& dev = device_service_->device(rt.sm_device);
  const Bytes new_offset = fm_used_;
  if (Status s = fm_->Write(new_offset, dev.backing().subspan(rt.offset, size));
      !s.ok()) {
    return s;
  }
  rt.tier = MemoryTier::kFm;
  rt.offset = new_offset;
  fm_used_ += size;
  fm_direct_bytes_ += size;
  sm_used_total_ -= size;
  rt.extent_id = 0;  // no longer routable SM bytes
  SDM_LOG_INFO << "degraded placement: migrated table " << rt.config.name
               << " (" << AsMiB(size) << " MiB, " << rt.degraded_rows
               << " degraded rows) to FM";
  return Status::Ok();
}

}  // namespace sdm
