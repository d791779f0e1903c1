// LookupEngine — pooled embedding lookup over the SDM (paper Algorithm 1).
//
// One Lookup() call is one embedding-bag operator execution:
//
//   if len(indices) > LenThreshold and pooled cache hits -> done
//   map indices through the pruning mapping tensor (if present)
//   for each index: row cache probe; misses become throttled async SM IOs
//   when every row is in FM: fused dequantize+pool; insert rows and the
//   pooled output into their caches
//
// The engine orchestrates; the IO policy lives in src/sched. There is one
// IO path: misses are planned into runs by IoPlanner (pure, per request;
// a row straddling a block boundary is a two-block run like any other) and
// handed to the device's BatchScheduler, which merges and single-flights
// reads across every concurrent lookup before ringing the IoEngine
// doorbell. This engine's run completions then scatter rows out of the
// (possibly shared) read buffers, fill the caches, and own every retry,
// backoff and read-repair. The tuning.io_batching ablations are
// configurations of this path: kPerRow plans one run per row without
// dedup, and both ablations run the scheduler in bypass.
//
// Timing: CPU phases run in virtual time before (probe/hash/map) and after
// (dequant/pool/insert) the IO phase; IOs from one request proceed
// concurrently, so request latency = cpu_pre + max(io latencies) + cpu_post
// — matching how an async operator with io_uring behaves.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/histogram.h"
#include "core/sdm_store.h"
#include "embedding/pooling.h"
#include "sched/batch_scheduler.h"
#include "sched/io_planner.h"

namespace sdm {

struct LookupRequest {
  TableId table{};
  std::vector<RowIndex> indices;  ///< in the unpruned index domain
  PoolingMode mode = PoolingMode::kSum;
  /// Query tracing (src/obs): set by the inference layer on sampled
  /// queries; the engine records a lookup span when tracing is on. Purely
  /// observational — never changes scheduling.
  bool traced = false;
};

/// Per-request execution trace (for tests, tuning, and the benches).
struct LookupTrace {
  bool pooled_cache_hit = false;
  uint32_t rows_requested = 0;
  uint32_t rows_pruned_skipped = 0;  ///< mapped to kPrunedRow
  uint32_t rows_from_fm_direct = 0;
  uint32_t rows_from_cache = 0;
  uint32_t rows_from_block_cache = 0;  ///< multi-level ablation path
  uint32_t rows_from_sm = 0;
  /// Of the cache hits above, rows resident because the Prefetcher read
  /// them ahead of demand (tuning.enable_prefetch) — each prefetched row
  /// is credited to the first request that demands it.
  uint32_t rows_prefetch_hit = 0;

  // ---- Coalesced-IO effectiveness (tuning.io_batching) ----
  /// Duplicate-index slots served by a sibling slot's fetch instead of
  /// their own (counted on top of the category counters above).
  uint32_t rows_deduped = 0;
  /// SM device IOs issued (or merged into a shared SQE) for this request.
  /// With coalescing, N missing rows in one block (or an adjacent-block
  /// run) cost one device read, so device_reads <= rows_from_sm.
  uint32_t device_reads = 0;
  /// Runs of this request served by another in-flight request's device
  /// read (cross-request single-flight in the BatchScheduler); these issue
  /// no IO of their own and are not part of device_reads.
  uint32_t singleflight_hits = 0;
  /// Bus bytes avoided versus issuing every missing row as its own read.
  Bytes io_bytes_saved = 0;

  // ---- Graceful degradation ----
  /// Rows whose IO exhausted retries (or was shed from a sick endpoint):
  /// they pooled as zero vectors instead of failing the query.
  uint32_t rows_failed = 0;
  /// True when any row failed — the query completed Ok but its pooled
  /// output is missing rows_failed contributions.
  bool degraded = false;

  // ---- Self-healing (tuning.enable_replication) ----
  /// Device reads this request routed to an extent replica because the
  /// primary endpoint was sick (failover instead of shedding).
  uint32_t replica_reads = 0;
  /// Terminally-failed reads re-driven against a replica and served — rows
  /// that would otherwise have pooled as zeros.
  uint32_t read_repairs = 0;

  SimDuration cpu_time;
  SimDuration latency;
};

using LookupCallback =
    std::function<void(Status, std::vector<float> pooled, const LookupTrace& trace)>;

class LookupEngine {
 public:
  explicit LookupEngine(SdmStore* store);

  LookupEngine(const LookupEngine&) = delete;
  LookupEngine& operator=(const LookupEngine&) = delete;

  /// Executes one embedding-bag lookup; the callback fires on the event
  /// loop when the pooled vector is ready.
  void Lookup(LookupRequest request, LookupCallback cb);

  // ---- Aggregate observability ----

  [[nodiscard]] const Histogram& latency() const { return latency_; }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }

  /// Total modeled CPU ns across all requests (operator-side work only;
  /// IO-engine CPU is tracked by the engines).
  [[nodiscard]] SimDuration cpu_time() const { return SimDuration(cpu_ns_->value()); }

  /// Cost model used for CPU-phase charging (exposed for calibration).
  [[nodiscard]] PoolingCostModel& cost_model() { return cost_; }

 private:
  struct RequestState;
  struct RunContext;

  /// Routes the request (health shed / replica failover), plans its
  /// misses into runs and submits each.
  void StartIoPhase(std::shared_ptr<RequestState> st);
  /// Scheduler-aware throttle admission of one planned run: a run the
  /// scheduler will share enqueues at once, any other waits for a throttle
  /// slot first.
  void SubmitRun(const std::shared_ptr<RequestState>& st,
                 const std::shared_ptr<RunContext>& run);
  /// Enqueues one admitted run with the scheduler. Trace/counter accounting
  /// happens only on the first attempt (retries must not double-count).
  /// `acquired_slot` says whether the caller holds a throttle slot for this
  /// run — WouldShare runs skip the throttle entirely, and a slot-holding
  /// run that ends up sharing releases its slot here (admission budgets
  /// device reads after merging, not logical runs).
  void EnqueueRun(const std::shared_ptr<RequestState>& st,
                  const std::shared_ptr<RunContext>& run, int attempts_left,
                  bool first_attempt, bool acquired_slot);
  /// Completion for one planned run: scatter rows out of the (possibly
  /// shared) read buffer and fill caches; retry transient device errors
  /// `attempts_left` more times, then re-drive the run once against the
  /// extent's other copy before surfacing the failure.
  BatchScheduler::Completion MakeRunCompletion(const std::shared_ptr<RequestState>& st,
                                               const std::shared_ptr<RunContext>& run,
                                               int attempts_left);
  /// Where a terminally-failed read on `failed_device` can be re-driven: the
  /// extent's replica when the primary failed, the (healthy) primary when a
  /// replica read failed, nullopt when no second copy exists.
  std::optional<SharedDeviceService::ReplicaRoute> RepairRoute(TableId table_id,
                                                               size_t failed_device);
  void FinishRequest(const std::shared_ptr<RequestState>& st);
  /// Both completion tails (pooled-cache hit, FinishRequest): stamps and
  /// records the latency, the windowed metrics and the (sampled) lookup
  /// span, then calls back with `pooled`.
  void Complete(RequestState& st, std::vector<float> pooled);
  /// Modeled CPU time of copying `bytes`.
  [[nodiscard]] static SimDuration CopyCost(Bytes bytes);

  /// Intra-bag dedup map, physical row -> first slot holding it: open
  /// addressing over a power-of-two table kept across calls. Each bag
  /// stamps its entries, so starting a bag clears nothing.
  class BagDedup {
   public:
    /// Starts a bag of up to `rows` rows (grows the table to >= 2x that).
    void Reset(size_t rows);
    /// The first slot recorded for `row` in this bag; records `slot` when
    /// `row` is new to it.
    [[nodiscard]] uint32_t FirstSlot(RowIndex row, uint32_t slot);

   private:
    struct Entry {
      RowIndex row = 0;
      uint32_t slot = 0;
      uint32_t stamp = 0;  // 0 never matches: stamp_ starts at 1
    };
    std::vector<Entry> table_;
    int shift_ = 0;  // 64 - log2(table_.size()), set by Reset
    uint32_t stamp_ = 0;
  };

  SdmStore* store_;
  EventLoop* loop_;
  PoolingCostModel cost_;
  BagDedup dedup_;
  Histogram latency_;
  StatsRegistry stats_;
  Counter* lookups_ = nullptr;
  Counter* pooled_hits_ = nullptr;
  Counter* rows_cache_hit_ = nullptr;
  Counter* rows_block_hit_ = nullptr;
  Counter* rows_sm_read_ = nullptr;
  Counter* rows_fm_read_ = nullptr;
  Counter* rows_pruned_ = nullptr;
  Counter* rows_deduped_ = nullptr;
  Counter* prefetch_hits_ = nullptr;
  Counter* device_reads_ = nullptr;
  Counter* singleflight_hits_ = nullptr;
  Counter* io_bytes_saved_ = nullptr;
  Counter* cpu_ns_ = nullptr;
  Counter* io_errors_ = nullptr;
  Counter* io_retries_ = nullptr;
  Counter* rows_failed_ = nullptr;
  Counter* degraded_lookups_ = nullptr;
  Counter* shed_lookups_ = nullptr;
  Counter* replica_reads_ = nullptr;
  Counter* read_repairs_ = nullptr;

  // ---- Observability (src/obs); all null when off ----
  WindowedCounter* obs_lookups_ = nullptr;
  WindowedCounter* obs_cache_rows_ = nullptr;
  WindowedCounter* obs_sm_rows_ = nullptr;
  WindowedCounter* obs_degraded_ = nullptr;
  WindowedCounter* obs_shed_ = nullptr;
  WindowedHistogram* obs_lat_ = nullptr;
  SpanRecorder* obs_spans_ = nullptr;
  SpanRecorder::TrackId obs_track_ = 0;
};

}  // namespace sdm
