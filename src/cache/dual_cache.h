// Unified row cache with dual internal organization (paper §4.3).
//
// One logical cache over all SM-resident tables ("unified" beats per-table
// partitioning for space efficiency), implemented as two internal caches:
// tables whose stored row is <= routing_threshold bytes go to the
// memory-optimized cache, larger rows to the CPU-optimized cache — exactly
// the paper's routing rule ("Embedding dim <= 255 will be routed to memory
// optimized cache").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cpu_optimized_cache.h"
#include "cache/memory_optimized_cache.h"
#include "cache/row_cache.h"

namespace sdm {

struct DualCacheConfig {
  Bytes capacity = 128 * kMiB;
  /// Fraction of capacity given to the memory-optimized partition.
  double memory_optimized_fraction = 0.5;
  /// Stored-row-size routing boundary (<= goes to memory-optimized).
  Bytes routing_threshold = 255;
  int shards = 8;
  MemoryOptimizedCacheConfig memory_optimized;  // capacity overridden
  CpuOptimizedCacheConfig cpu_optimized;        // capacity/shards overridden
};

class DualRowCache final : public RowCache {
 public:
  explicit DualRowCache(DualCacheConfig config);

  /// Declares a table's stored row size so lookups can route without
  /// knowing the value. Must be called before the first access for that
  /// table (the model loader does this).
  void RegisterTable(TableId table, Bytes row_bytes);

  [[nodiscard]] bool IsMemoryOptimizedRoute(TableId table) const;

  bool Lookup(const RowKey& key, std::span<uint8_t> out, size_t* out_len) override;
  void Insert(const RowKey& key, std::span<const uint8_t> value) override;
  bool Erase(const RowKey& key) override;
  [[nodiscard]] bool Contains(const RowKey& key) const override;

  [[nodiscard]] const RowCacheStats& stats() const override;
  [[nodiscard]] size_t entry_count() const override;
  [[nodiscard]] Bytes memory_used() const override;
  [[nodiscard]] Bytes capacity() const override { return config_.capacity; }

  /// Cost of a lookup depends on the route; this returns the blended cost of
  /// the last routed table — callers wanting exact costs use RouteCpuCost.
  [[nodiscard]] SimDuration LookupCpuCost() const override;
  [[nodiscard]] SimDuration RouteCpuCost(TableId table) const;

  void Clear() override;

  [[nodiscard]] const MemoryOptimizedCache& memory_optimized() const { return *mem_; }
  [[nodiscard]] const CpuOptimizedCache& cpu_optimized() const { return *cpu_; }

 private:
  [[nodiscard]] RowCache* Route(TableId table);
  [[nodiscard]] const RowCache* Route(TableId table) const;

  DualCacheConfig config_;
  std::unique_ptr<MemoryOptimizedCache> mem_;
  std::unique_ptr<CpuOptimizedCache> cpu_;
  enum class RouteKind : uint8_t { kUnregistered, kMemoryOptimized, kCpuOptimized };
  /// Indexed by Raw(TableId); grows on RegisterTable.
  std::vector<RouteKind> routes_;
  mutable RowCacheStats combined_;
};

}  // namespace sdm
