#include "core/model_updater.h"

#include <cassert>
#include <vector>

#include "embedding/quantization.h"

namespace sdm {

Result<UpdateReport> ModelUpdater::Update(const UpdateOptions& options) {
  if (!store_->loading_finished()) {
    return FailedPreconditionError("store not sealed; nothing to update");
  }
  if (options.row_fraction < 0 || options.row_fraction > 1) {
    return InvalidArgumentError("row_fraction must be in [0,1]");
  }

  UpdateReport report;
  Rng rng(options.seed);

  // Degraded-row-aware placement (self-healing layer): a refresh is the
  // natural point to act on serving-time health feedback — the host is
  // already touching every table. SM tables that lost at least
  // degraded_rows_min rows to exhausted retries / sick-endpoint sheds move
  // to FM, where no SM fault can reach them. A migration that cannot
  // proceed (no FM headroom, shared extent) is skipped, not fatal: degraded
  // service beats a failed refresh.
  if (store_->tuning().degraded_placement_feedback) {
    for (size_t t = 0; t < store_->table_count(); ++t) {
      const TableId id = MakeTableId(static_cast<uint32_t>(t));
      const TableRuntime& table = store_->table(id);
      if (table.tier != MemoryTier::kSm || store_->extent_shared(id)) continue;
      if (table.degraded_rows < store_->tuning().degraded_rows_min) continue;
      if (store_->MigrateTableToFm(id).ok()) ++report.tables_migrated;
    }
  }

  for (size_t t = 0; t < store_->table_count(); ++t) {
    const TableId id = MakeTableId(static_cast<uint32_t>(t));
    const TableRuntime& table = store_->table(id);
    if (store_->extent_shared(id)) {
      // Shared-device content dedup (src/tenant): these bytes are another
      // tenant's extent too, whichever of them placed it first, so an
      // in-place update would corrupt every co-tenant reading it.
      // Copy-on-write refresh is a ROADMAP item; until then updating a
      // deduped table is an error, not corruption.
      return FailedPreconditionError("table " + table.config.name +
                                     " is served from a shared extent; in-place "
                                     "updates of deduped tables are not supported");
    }
    const Bytes row_bytes = table.config.row_bytes();
    const uint64_t rows = table.config.num_rows;
    const auto updates = static_cast<uint64_t>(static_cast<double>(rows) *
                                               options.row_fraction);
    if (updates == 0) continue;

    std::vector<float> values(table.config.dim);
    std::vector<uint8_t> stored(row_bytes);
    bool pooled_invalidated = false;

    for (uint64_t u = 0; u < updates; ++u) {
      // Full updates sweep sequentially; partial updates sample rows.
      const RowIndex row = options.row_fraction >= 1.0 ? u : rng.NextBounded(rows);
      for (auto& v : values) v = static_cast<float>(rng.NextDouble(-1.0, 1.0));
      QuantizeRow(table.config.dtype, values, stored);

      const Bytes off = table.offset + row * row_bytes;
      if (table.tier == MemoryTier::kSm) {
        auto wrote = store_->sm_device(table.sm_device).Write(off, stored);
        if (!wrote.ok()) return wrote.status();
        report.write_time += wrote.value();
      } else {
        if (Status s = store_->fm().Write(off, stored); !s.ok()) return s;
      }
      report.bytes_written += row_bytes;
      ++report.rows_updated;

      if (options.online) {
        // Write-through: replace the stale cached row (if any) with the new
        // bytes so readers never see torn data, and drop pooled outputs
        // that may embed the old value.
        if (table.tier == MemoryTier::kSm && table.cache_enabled &&
            store_->row_cache() != nullptr) {
          store_->InvalidateRow(id, row);
          store_->row_cache()->Insert(RowKey{id, row}, stored);
        }
        if (!pooled_invalidated) {
          store_->InvalidatePooledFor(id);
          pooled_invalidated = true;
        }
      }
    }
  }

  if (!options.online) {
    // Offline refresh: the host rejoins with cold caches (A.4 warmup).
    if (store_->row_cache() != nullptr) store_->row_cache()->Clear();
    if (store_->pooled_cache() != nullptr) store_->pooled_cache()->Clear();
  }

  double drive_writes = 0;
  for (size_t d = 0; d < store_->sm_device_count(); ++d) {
    drive_writes = std::max(drive_writes, store_->sm_device(d).wear().DriveWrites());
  }
  report.sm_drive_writes = drive_writes;
  return report;
}

double ModelUpdater::WarmupCapacityOverhead(double rolling_fraction, double warmup_minutes,
                                            double warmup_relative_perf,
                                            double update_interval_minutes) {
  assert(warmup_relative_perf > 0);
  assert(update_interval_minutes > 0);
  return (rolling_fraction * warmup_minutes) /
         (warmup_relative_perf * update_interval_minutes);
}

}  // namespace sdm
