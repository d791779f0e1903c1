// Prefetcher — speculative readahead through the BatchScheduler's
// low-priority lane (ROADMAP "Prefetching").
//
// The LookupEngine feeds each SM-resident table's demand stream into a
// per-table PrefetchPredictor; after a request's demand runs are enqueued,
// MaybeIssue() turns the predictor's current candidates into planned runs
// and enqueues them as Kind::kPrefetch ReadRequests. Planning, the
// run-to-read translation and the block-cache fill are the demand path's
// own: the same IoPlanner under the store's planner config, ReadForRun at
// shift 0, and FillBlockCache. The scheduler gives those runs strictly
// lower priority: they ride demand doorbells, are byte-budgeted
// (`prefetch_max_inflight_bytes`), and are dropped under pressure. On
// completion the prefetched rows fill the row cache (and block cache in
// block mode) directly — no query's counters or latency are charged; the
// payoff shows up as demand cache hits (`LookupTrace::rows_prefetch_hit`).
//
// Admission discipline on the issue side:
//  - rows already cached, already speculated (issued-but-unclaimed), or
//    below `min_confidence` are filtered before planning;
//  - the prefetcher holds NO TableThrottle slots — the demand throttle
//    budgets demand device reads; speculation is bounded by the scheduler's
//    prefetch byte budget instead (two independent admission domains);
//  - a boundary-straddling row is planned like any other, as a two-block
//    run; the block-layer residency filter checks single-block rows only.
//
// Accounting: `bytes_issued` is bus bytes of prefetch SQEs this component
// owns; a row counts as hit when a demand lookup first claims it from a
// cache (ClaimHit). WastedBytes() = issued minus hit-backed bytes, i.e.
// speculation not (yet) justified by demand — the bench's waste metric.
//
// Single-threaded on the EventLoop thread, like the rest of the IO path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "cache/block_cache.h"
#include "cache/dual_cache.h"
#include "prefetch/prefetch_predictor.h"
#include "sched/batch_scheduler.h"
#include "sched/io_planner.h"

namespace sdm {

struct PrefetchConfig {
  PrefetchStrategy strategy = PrefetchStrategy::kHotSet;
  /// Max candidate rows per issue opportunity.
  int depth = 8;
  /// Candidates below this predictor confidence are not issued. Confidence
  /// for kHotSet is the row's share of recent traffic, so useful marginal
  /// rows sit at ~1/(ranks x harmonic) — keep this floor low.
  double min_confidence = 1e-5;
  /// Owning tenant stamped on every speculative request (shared-device
  /// fair-share attribution; 0 for single-tenant stores).
  uint32_t tenant = 0;
};

struct PrefetchStats {
  uint64_t predictions = 0;   ///< candidate rows the predictor proposed
  uint64_t rows_issued = 0;   ///< rows accepted into the prefetch lane
  uint64_t reads_issued = 0;  ///< prefetch SQEs this component owns
  uint64_t runs_shared = 0;   ///< runs served by riding an existing read
  uint64_t bytes_issued = 0;  ///< bus bytes of owned prefetch SQEs
  uint64_t dropped_runs = 0;  ///< runs rejected by the lane's byte budget
  uint64_t dropped_rows = 0;
  uint64_t rows_hit = 0;  ///< prefetched rows later claimed by demand
  uint64_t bytes_hit = 0;
  uint64_t errors = 0;

  [[nodiscard]] double HitRate() const {
    return rows_issued == 0
               ? 0
               : static_cast<double>(rows_hit) / static_cast<double>(rows_issued);
  }
  [[nodiscard]] uint64_t WastedBytes() const {
    return bytes_issued > bytes_hit ? bytes_issued - bytes_hit : 0;
  }
};

class Prefetcher {
 public:
  /// Everything the prefetcher needs to know about one SM-resident,
  /// row-cached table (SdmStore registers these at FinishLoading).
  struct TableInfo {
    TableId id{};
    Bytes table_offset = 0;  ///< device byte offset of row 0
    uint64_t num_rows = 0;
    size_t device = 0;
    /// Multi-level ablation: fill the block cache with whole blocks.
    bool block_mode = false;
    /// The demand path's planner config for this table on `device` (row
    /// bytes, SGL mode, coalescing caps).
    PlannerConfig plan;
  };

  /// Every registered table fills `row_cache`, so it is never null;
  /// `block_cache` is null unless the multi-level ablation is on.
  /// `schedulers` is indexed by device.
  Prefetcher(PrefetchConfig config, DualRowCache* row_cache, BlockCache* block_cache,
             std::vector<BatchScheduler*> schedulers);

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  void RegisterTable(const TableInfo& info);

  /// One demand access to a distinct row of `table` (post-dedup).
  void RecordAccess(TableId table, RowIndex row);

  /// `row` missed every cache and is going to the device.
  void RecordMiss(TableId table, RowIndex row);

  /// Predict-and-issue opportunity; LookupEngine calls this once per
  /// request that had SM misses, after the demand runs are enqueued (so
  /// speculation rides the demand doorbell, never the other way around).
  void MaybeIssue(TableId table);

  /// A demand lookup hit `row` in a cache: returns true (once) if that
  /// residency was this prefetcher's doing. The caller credits the hit in
  /// its trace; repeated hits on the same prefetched row count once.
  bool ClaimHit(TableId table, RowIndex row);

  [[nodiscard]] const PrefetchStats& stats() const { return stats_; }
  [[nodiscard]] const PrefetchConfig& config() const { return config_; }

  /// Observability (src/obs): windowed metrics under `<name>prefetch/`. The
  /// prefetcher has no clock of its own, so the caller lends it `loop`.
  void set_obs(Observability* obs, EventLoop* loop, const std::string& name);

 private:
  struct TableState {
    TableInfo info;
    std::unique_ptr<PrefetchPredictor> predictor;
    /// Rows issued to the lane and not yet claimed by a demand hit. Also
    /// the re-issue filter: a row speculated once is not speculated again
    /// until demand claims it (or its read errors out).
    std::unordered_set<RowIndex> unclaimed;
  };

  /// Outstanding-speculation bound per table: when this many issued rows
  /// sit unclaimed, the predictor is clearly ahead of (or wrong about)
  /// demand and issuing more would only grow WastedBytes().
  static constexpr size_t kMaxUnclaimedRows = 8192;
  /// Cap on the candidate pool requested per issue opportunity (the
  /// residency filter consumes most of the ranking's head).
  static constexpr size_t kMaxCandidatePool = 4096;

  void IssueRuns(TableState& st, std::vector<IoPlanner::Miss> misses,
                 const std::vector<RowIndex>& rows);

  PrefetchConfig config_;
  DualRowCache* row_cache_;
  BlockCache* block_cache_;
  std::vector<BatchScheduler*> schedulers_;
  std::map<TableId, TableState> tables_;
  PrefetchStats stats_;

  // ---- Observability (src/obs); all null when off ----
  EventLoop* obs_loop_ = nullptr;
  WindowedCounter* obs_rows_issued_ = nullptr;
  WindowedCounter* obs_rows_hit_ = nullptr;
  WindowedCounter* obs_dropped_ = nullptr;
};

}  // namespace sdm
