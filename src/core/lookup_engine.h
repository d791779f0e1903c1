// LookupEngine — pooled embedding lookup over the SDM (paper Algorithm 1).
//
// One Lookup() call is one embedding-bag operator execution. After the
// pooled-cache probe (a hit ends the lookup), it runs three stages:
//
//  - Resolve (lookup_engine.cpp, Lookup): map each index through the
//    pruning mapping tensor, dedup the bag, read FM-resident rows, probe
//    the row cache and the block cache, credit prefetched rows, feed the
//    predictor. Each slot ends with a source, or none when it needs IO.
//  - Fetch (lookup_fetch.cpp): route the request (health shed, replica
//    failover), plan its misses into runs (IoPlanner) and hand them to the
//    device's BatchScheduler, which merges and single-flights reads across
//    every concurrent lookup. Run completions scatter rows, fill the
//    caches and own every retry, backoff and read-repair. A scattered slot's
//    source becomes kSm.
//  - Pool (lookup_engine.cpp, FinishRequest): one pass over the slots fans
//    duplicates out from the slot that fetched their row, credits every
//    slot once by its final source, and pools. This pass is the only
//    writer of the per-source row counters (rows_pruned, rows_fm_read,
//    rows_cache_hit, rows_block_hit, rows_sm_read, rows_failed,
//    rows_deduped) and their LookupTrace fields; a slot with no source lost
//    its IO and pools as zeros. Of the other row and read counters,
//    Resolve writes only the prefetch credit (prefetch_hits) and Fetch the
//    per-read ones (device_reads, singleflight_hits, io_bytes_saved,
//    replica_reads, read_repairs, io_retries, io_errors).
//
// The tuning.io_batching ablations are configurations of the one Fetch
// path: kPerRow plans one run per row without dedup, and both ablations run
// the scheduler in bypass.
//
// Timing: CPU phases run in virtual time before (probe/hash/map) and after
// (dequant/pool/insert) the IO phase; IOs from one request proceed
// concurrently, so request latency = cpu_pre + max(io latencies) + cpu_post
// — matching how an async operator with io_uring behaves.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
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

  /// One planned run plus the submission context this engine needs when its
  /// (possibly shared, possibly retried) device read completes.
  struct RunContext {
    RequestState* st = nullptr;  ///< the request this run belongs to
    /// Its rows are st->run_slots[run.first_miss, run.end_miss).
    PlannedRun run;
    /// The run is read on `device`, shifted `shift` bytes from the primary's
    /// address space (a whole number of blocks on a replica); read-repair
    /// re-routes it.
    size_t device = 0;
    int64_t shift = 0;
    bool sub_block = false;
    /// Bus bytes this run saves as its own SQE versus per-row reads —
    /// request-level accounting; the scheduler recomputes SQE-level numbers
    /// after cross-request merging.
    Bytes bytes_saved = 0;
    /// Whether this run fills the block cache with its blocks: set in
    /// block-cache mode, cleared for single-flight joiners, which ride a read
    /// whose owner already inserts those blocks.
    bool insert_blocks = false;
    /// Scheduler-aware throttling: only runs that became their own SQE
    /// (Admission::kNewRead) keep holding a throttle slot until completion —
    /// admission budgets *device reads after merging*.
    bool holds_slot = true;
    /// True until the run's first enqueue; every later one (a retry or a
    /// read-repair re-drive) is the same logical read.
    bool first_attempt = true;
    /// Transient-error re-reads left before the run fails or is repaired.
    int attempts_left = 0;
    /// Set when this run is being re-driven against a second copy after its
    /// terminal failure (one repair attempt per run).
    bool repairing = false;
  };

  /// One lookup in progress. States come from the engine's requests_ slab
  /// and go back to it once the lookup's callback has returned, which is
  /// after its last run completion: a retry, backoff event or read-repair
  /// keeps a run, and so its request, outstanding.
  struct RequestState {
    LookupRequest request;
    LookupCallback cb;
    SimTime start;

    /// One requested index, resolved in the mapped (physical) space.
    struct Slot {
      /// Where the slot's row came from; kNone until resolved, and still
      /// kNone at Pool when its IO was shed or failed.
      enum class Source : uint8_t { kNone, kPruned, kFmDirect, kCache, kBlockCache, kSm };
      static constexpr size_t kSources = static_cast<size_t>(Source::kSm) + 1;

      RowIndex physical_row = 0;
      /// >= 0: this slot repeats slots[dup_of]'s physical row; its bytes are
      /// fanned out from that slot at Pool.
      int32_t dup_of = -1;
      Source source = Source::kNone;
    };
    std::vector<Slot> slots;
    std::vector<uint8_t> row_bytes;  // slots.size() * row_bytes contiguous
    Bytes stored_row_bytes = 0;
    /// The slot of every row the IO phase reads, in device-offset order, so
    /// each run's rows are one range of it. Keeps its capacity across reuse.
    std::vector<uint32_t> run_slots;
    std::vector<float> pooled;  ///< handed to the callback

    SimDuration cpu_pre;   // before/at IO issue
    SimDuration cpu_post;  // after last IO
    int outstanding_ios = 0;
    bool io_phase_started = false;
    LookupTrace trace;
  };

  /// libstdc++'s std::function stores a callable inline, with no heap
  /// allocation, when it is trivially copyable and at most two pointers
  /// wide. Every closure on the lookup path goes through here, so one that
  /// grows past that fails to compile instead of allocating per run.
  template <typename F>
  static F Inline(F f) {
    static_assert(sizeof(F) <= 2 * sizeof(void*), "closure too wide for inline storage");
    static_assert(std::is_trivially_copyable_v<F>, "closure must be trivially copyable");
    return f;
  }

  /// An object cache in the manner of Bonwick's slab allocator: objects
  /// are carved from fixed chunks that never move, so pointers to them stay
  /// valid, and a released object goes back on a free list. Memory tracks
  /// the engine's peak of objects in use at once.
  template <typename T, size_t kPerChunk>
  class Slab {
   public:
    /// A free object: a new default-constructed one, or one Release took
    /// back as its caller left it.
    T* Acquire() {
      if (free_.empty()) {
        chunks_.push_back(std::make_unique<T[]>(kPerChunk));
        for (size_t i = kPerChunk; i-- > 0;) free_.push_back(&chunks_.back()[i]);
      }
      T* obj = free_.back();
      free_.pop_back();
      return obj;
    }
    /// Takes `obj` back; the caller has cleared it.
    void Release(T* obj) { free_.push_back(obj); }

   private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<T*> free_;
  };

  /// Clears `st` and returns it to requests_; it must have no outstanding
  /// run.
  void ReleaseRequest(RequestState* st);
  /// Fetch: routes the request (health shed / replica failover), plans its
  /// misses into runs and submits each.
  void StartIoPhase(RequestState* st);
  /// Throttle admission of one run, and the one re-drive path (a retry after
  /// backoff, or read-repair on a new route). A first attempt the scheduler
  /// will share enqueues at once; every other attempt waits for a throttle
  /// slot first.
  void SubmitRun(RunContext* run);
  /// Enqueues one admitted run with the scheduler. Per-read accounting
  /// happens only on the first attempt (retries must not double-count).
  /// `acquired_slot` says whether the caller holds a throttle slot for this
  /// run; a slot-holding run that ends up sharing releases it here.
  void EnqueueRun(RunContext* run, bool acquired_slot);
  /// Completion for one run: scatter rows out of the (possibly shared) read
  /// buffer and fill caches; retry transient device errors, then re-drive the
  /// run once against the extent's other copy before surfacing the failure.
  void CompleteRun(RunContext* run, const Status& status, const uint8_t* data, Bytes base);
  /// Where a terminally-failed read on `failed_device` can be re-driven: the
  /// extent's replica when the primary failed, the (healthy) primary when a
  /// replica read failed, nullopt when no second copy exists.
  std::optional<SharedDeviceService::ReplicaRoute> RepairRoute(TableId table_id,
                                                               size_t failed_device);
  /// Pool: fan-out, per-source row accounting, dequantize and pool.
  void FinishRequest(RequestState* st);
  /// Both completion tails (pooled-cache hit, FinishRequest): stamps and
  /// records the latency, the windowed metrics and the (sampled) lookup
  /// span, calls back with st->pooled, and releases `st`.
  void Complete(RequestState* st);
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
  /// Lookups in progress, and their runs: closures on the event loop and
  /// run completions point into these. Every object goes back cleared.
  Slab<RequestState, 16> requests_;
  Slab<RunContext, 64> runs_;
  /// Planner scratch, cleared (not reallocated) by every IO phase.
  std::vector<IoPlanner::Miss> misses_;
  std::vector<PlannedRun> planned_;
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
