#include "core/tuning.h"

namespace sdm {

const char* ToString(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kSmOnlyWithCache: return "sm_only_with_cache";
    case PlacementPolicy::kFixedFmSmWithCache: return "fixed_fm_sm_with_cache";
    case PlacementPolicy::kPerTableCacheEnablement: return "per_table_cache_enablement";
  }
  return "unknown";
}

Status TuningConfig::Validate() const {
  if (io_queue_depth < 1) {
    return InvalidArgumentError("io_queue_depth must be >= 1");
  }
  if (io_batching != IoBatching::kPerRow && max_coalesce_bytes < kBlockSize) {
    return InvalidArgumentError("max_coalesce_bytes must be >= one 4KB block");
  }
  if (max_batch_sqes < 1) {
    return InvalidArgumentError("max_batch_sqes must be >= 1");
  }
  if (max_batch_delay < SimDuration(0)) {
    return InvalidArgumentError("max_batch_delay must be >= 0");
  }
  if (enable_prefetch && prefetch_depth < 1) {
    return InvalidArgumentError("prefetch_depth must be >= 1");
  }
  if (prefetch_min_confidence < 0 || prefetch_min_confidence > 1) {
    return InvalidArgumentError("prefetch_min_confidence must be in [0,1]");
  }
  if (background_max_inflight_bytes == 0) {
    return InvalidArgumentError(
        "background_max_inflight_bytes must be > 0: background-tenant demand "
        "is parked, not dropped, so a zero budget would never admit it");
  }
  if (background_flush_delay < SimDuration(0)) {
    return InvalidArgumentError("background_flush_delay must be >= 0");
  }
  if (io_deadline < SimDuration(0)) {
    return InvalidArgumentError("io_deadline must be >= 0");
  }
  if (retry_backoff_base < SimDuration(0)) {
    return InvalidArgumentError("retry_backoff_base must be >= 0");
  }
  if (hedge_latency_factor < 0) {
    return InvalidArgumentError("hedge_latency_factor must be >= 0");
  }
  if (hedge_latency_factor > 0 && hedge_min_samples < 1) {
    return InvalidArgumentError("hedge_min_samples must be >= 1 when hedging");
  }
  if (health_sick_threshold <= 0 || health_sick_threshold > 1) {
    return InvalidArgumentError("health_sick_threshold must be in (0,1]");
  }
  if (health_window < 1) {
    return InvalidArgumentError("health_window must be >= 1");
  }
  if (health_probe_interval < 1) {
    return InvalidArgumentError("health_probe_interval must be >= 1");
  }
  if (enable_replication) {
    if (!enable_health_monitor) {
      return InvalidArgumentError(
          "enable_replication requires enable_health_monitor: re-replication "
          "is driven by health-monitor sickness transitions");
    }
    if (replication_hot_extents < 1) {
      return InvalidArgumentError("replication_hot_extents must be >= 1");
    }
    if (replication_chunk_bytes < kBlockSize) {
      return InvalidArgumentError("replication_chunk_bytes must be >= one 4KB block");
    }
    if (replication_byte_budget < replication_chunk_bytes) {
      return InvalidArgumentError(
          "replication_byte_budget must admit at least one chunk");
    }
  }
  if (row_cache.memory_optimized_fraction < 0 || row_cache.memory_optimized_fraction > 1) {
    return InvalidArgumentError("memory_optimized_fraction must be in [0,1]");
  }
  if (cache_enable_min_alpha < 0) {
    return InvalidArgumentError("cache_enable_min_alpha must be >= 0");
  }
  if (placement == PlacementPolicy::kFixedFmSmWithCache && placement_dram_budget == 0) {
    return InvalidArgumentError("kFixedFmSmWithCache requires a placement_dram_budget");
  }
  return Status::Ok();
}

Status TuningConfig::ValidateForSharedDevice() const {
  if (Status s = Validate(); !s.ok()) return s;
  if (io_batching != IoBatching::kCrossRequest) {
    return InvalidArgumentError(
        "shared device requires io_batching = kCrossRequest: with the batch "
        "scheduler in bypass, tenants cannot single-flight each other's "
        "reads and the QoS lanes are inert");
  }
  return Status::Ok();
}

Status TuningConfig::ValidateForDisaggregated() const {
  if (Status s = ValidateForSharedDevice(); !s.ok()) return s;
  if (fabric_latency < SimDuration(0)) {
    return InvalidArgumentError("fabric_latency must be >= 0");
  }
  if (fabric_bandwidth_bytes_per_sec < 0) {
    return InvalidArgumentError("fabric_bandwidth_bytes_per_sec must be >= 0");
  }
  return Status::Ok();
}

}  // namespace sdm
