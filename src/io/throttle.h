// Per-table and global IO admission control (paper §4.1 Tuning API:
// "Total number of outstanding IOs per table and total number of tables
// that can be processed at given time").
//
// The throttle sits in front of an IoEngine: lookups acquire a slot for
// their table before submitting; excess work queues FIFO per table, and
// tables themselves queue for one of the global table slots.
//
// Multi-tenant scoping (src/tenant): on a shared device the same throttle
// is shared by every tenant's store, so slots are keyed by (tenant, table)
// — one tenant saturating its tables cannot consume another tenant's
// per-table budget. Single-tenant stores pass tenant 0 everywhere (the
// TableId-only overloads), which reduces to the original behavior. When
// constructed with an EventLoop the throttle also accounts, per tenant,
// the virtual time work spent queued for a slot — the queueing component
// of a tenant's IO latency, reported by ClusterHostReport.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "common/event_loop.h"
#include "common/stats.h"
#include "common/types.h"

namespace sdm {

struct ThrottleConfig {
  /// Max IOs in flight per (tenant, table) (<=0 means unlimited).
  int max_outstanding_per_table = 32;
  /// Max distinct (tenant, table) keys with in-flight IO at once
  /// (<=0 means unlimited).
  int max_concurrent_tables = 0;
};

class TableThrottle {
 public:
  using Runner = std::function<void()>;

  /// `loop` (optional) enables per-tenant queue-time accounting.
  explicit TableThrottle(ThrottleConfig config, EventLoop* loop = nullptr);

  /// Runs `fn` now if the (tenant, table) key has a free slot (and a table
  /// slot is free), otherwise queues it. `fn` performs the submission.
  void Acquire(uint32_t tenant, TableId table, Runner fn);
  void Acquire(TableId table, Runner fn) { Acquire(0, table, std::move(fn)); }

  /// Releases one slot for the key and dispatches queued work.
  void Release(uint32_t tenant, TableId table);
  void Release(TableId table) { Release(0, table); }

  [[nodiscard]] int InFlight(uint32_t tenant, TableId table) const;
  [[nodiscard]] int InFlight(TableId table) const { return InFlight(0, table); }
  [[nodiscard]] int ActiveTables() const { return active_tables_; }
  [[nodiscard]] uint64_t deferred() const { return deferred_; }
  [[nodiscard]] size_t QueuedFor(uint32_t tenant, TableId table) const;
  [[nodiscard]] size_t QueuedFor(TableId table) const { return QueuedFor(0, table); }

  /// Cumulative virtual time `tenant`'s work spent waiting for a slot
  /// (zero unless constructed with an EventLoop).
  [[nodiscard]] SimDuration QueueTime(uint32_t tenant) const;

 private:
  /// (tenant, table) composite — tenants are dense small ints, table ids
  /// are dense per store, so the pair packs into one ordered key.
  using Key = uint64_t;
  [[nodiscard]] static Key MakeKey(uint32_t tenant, TableId table) {
    return (static_cast<Key>(tenant) << 32) | Raw(table);
  }
  [[nodiscard]] static uint32_t TenantOf(Key key) {
    return static_cast<uint32_t>(key >> 32);
  }

  struct Waiter {
    SimTime since;
    Runner fn;
  };
  struct TableState {
    int in_flight = 0;
    std::deque<Waiter> waiting;
  };

  [[nodiscard]] bool CanDispatch(const TableState& st) const;
  void TryDispatch(Key key, TableState& st);

  ThrottleConfig config_;
  EventLoop* loop_;
  std::map<Key, TableState> tables_;
  int active_tables_ = 0;
  uint64_t deferred_ = 0;
  std::map<uint32_t, int64_t> queue_ns_;  // per-tenant waiting time
};

}  // namespace sdm
