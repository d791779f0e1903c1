#include "cache/dual_cache.h"

#include <algorithm>
#include <cassert>

namespace sdm {

DualRowCache::DualRowCache(DualCacheConfig config) : config_(config) {
  assert(config_.memory_optimized_fraction >= 0 && config_.memory_optimized_fraction <= 1);
  MemoryOptimizedCacheConfig mcfg = config_.memory_optimized;
  mcfg.capacity = static_cast<Bytes>(static_cast<double>(config_.capacity) *
                                     config_.memory_optimized_fraction);
  CpuOptimizedCacheConfig ccfg = config_.cpu_optimized;
  ccfg.capacity = config_.capacity - mcfg.capacity;
  ccfg.shards = config_.shards;
  // Degenerate splits still need a minimally functional partition.
  mcfg.capacity = std::max<Bytes>(mcfg.capacity, 4 * kKiB);
  ccfg.capacity = std::max<Bytes>(ccfg.capacity, 4 * kKiB);
  mem_ = std::make_unique<MemoryOptimizedCache>(mcfg);
  cpu_ = std::make_unique<CpuOptimizedCache>(ccfg);
}

void DualRowCache::RegisterTable(TableId table, Bytes row_bytes) {
  if (Raw(table) >= routes_.size()) routes_.resize(Raw(table) + 1, RouteKind::kUnregistered);
  routes_[Raw(table)] = row_bytes <= config_.routing_threshold ? RouteKind::kMemoryOptimized
                                                               : RouteKind::kCpuOptimized;
}

bool DualRowCache::IsMemoryOptimizedRoute(TableId table) const {
  assert(Raw(table) < routes_.size() && routes_[Raw(table)] != RouteKind::kUnregistered &&
         "table not registered with the cache");
  return routes_[Raw(table)] == RouteKind::kMemoryOptimized;
}

RowCache* DualRowCache::Route(TableId table) {
  return IsMemoryOptimizedRoute(table) ? static_cast<RowCache*>(mem_.get())
                                       : static_cast<RowCache*>(cpu_.get());
}

const RowCache* DualRowCache::Route(TableId table) const {
  return IsMemoryOptimizedRoute(table) ? static_cast<const RowCache*>(mem_.get())
                                       : static_cast<const RowCache*>(cpu_.get());
}

bool DualRowCache::Lookup(const RowKey& key, std::span<uint8_t> out, size_t* out_len) {
  return Route(key.table)->Lookup(key, out, out_len);
}

void DualRowCache::Insert(const RowKey& key, std::span<const uint8_t> value) {
  Route(key.table)->Insert(key, value);
}

bool DualRowCache::Erase(const RowKey& key) { return Route(key.table)->Erase(key); }

bool DualRowCache::Contains(const RowKey& key) const {
  return Route(key.table)->Contains(key);
}

const RowCacheStats& DualRowCache::stats() const {
  combined_ = RowCacheStats{};
  const auto& m = mem_->stats();
  const auto& c = cpu_->stats();
  combined_.hits = m.hits + c.hits;
  combined_.misses = m.misses + c.misses;
  combined_.inserts = m.inserts + c.inserts;
  combined_.evictions = m.evictions + c.evictions;
  return combined_;
}

size_t DualRowCache::entry_count() const {
  return mem_->entry_count() + cpu_->entry_count();
}

Bytes DualRowCache::memory_used() const {
  return mem_->memory_used() + cpu_->memory_used();
}

SimDuration DualRowCache::LookupCpuCost() const {
  // Blend weighted by traffic so simulators without per-table routing info
  // still charge a sensible cost.
  const auto& m = mem_->stats();
  const auto& c = cpu_->stats();
  const uint64_t mt = m.hits + m.misses;
  const uint64_t ct = c.hits + c.misses;
  if (mt + ct == 0) {
    return SimDuration((mem_->LookupCpuCost().nanos() + cpu_->LookupCpuCost().nanos()) / 2);
  }
  const double blended =
      (static_cast<double>(mt) * static_cast<double>(mem_->LookupCpuCost().nanos()) +
       static_cast<double>(ct) * static_cast<double>(cpu_->LookupCpuCost().nanos())) /
      static_cast<double>(mt + ct);
  return SimDuration(static_cast<int64_t>(blended));
}

SimDuration DualRowCache::RouteCpuCost(TableId table) const {
  return Route(table)->LookupCpuCost();
}

void DualRowCache::Clear() {
  mem_->Clear();
  cpu_->Clear();
}

}  // namespace sdm
