// BatchScheduler — cross-request IO batching for one SM device.
//
// The IoPlanner decides *what* to read for one lookup; the scheduler
// decides *when* and *how often*. It accumulates planned runs from every
// concurrent lookup on the host and:
//
//  - single-flights duplicate work: a run whose span is already covered by
//    a pending or in-flight read subscribes to that read instead of issuing
//    its own (N requests missing the same hot block share one device read).
//    In-flight reads are found through a block index (InFlightIndex): a
//    lookup probes the one block holding the run's first byte, and when
//    several live reads cover the run, the earliest-issued one wins — so
//    the cost does not grow with the number of reads at the device;
//  - merges overlapping/adjacent spans across requests into one SQE, the
//    same policy the planner applies within a request;
//  - flushes the accumulated batch as ONE ring doorbell
//    (IoEngine::SubmitBatch) when it reaches `max_batch_sqes`, or at the
//    `max_batch_delay` deadline armed by the first run of the batch — so a
//    lone run is never starved waiting for co-travellers.
//
// Priority lanes: every ReadRequest carries a Kind, and each Kind maps to a
// row of a small lane-policy table (LanePolicy). kDemand runs behave as
// above: full flush rights, never parked or dropped. The two LOW-PRIORITY
// lanes have strictly weaker rights — they never trigger a size or deadline
// flush of the demand batch, they ride whatever doorbell room a demand
// flush leaves (up to max_batch_sqes total), and they are admitted against
// a per-lane byte budget (pending + in-flight bus bytes) — but they differ
// in what happens under pressure, because one carries speculation and the
// other carries real demand:
//
//  - kPrefetch (speculative readahead from src/prefetch) is DROPPED — not
//    queued — when over budget, so speculation can never starve demand of
//    ring slots or arena buffers; a prefetch-only lane drains on its own
//    unhurried `prefetch_flush_delay` timer only when no demand is pending;
//    a demand run that overlaps a pending prefetch SQE PROMOTES it into the
//    demand batch (merged-read admission).
//  - kBackground (demand reads of background-class tenants, src/tenant) is
//    PARKED when over budget: the run waits in FIFO order and is admitted
//    as budget releases — background demand is correctness-bearing and must
//    eventually run. Its drain timer (`background_flush_delay`) fires even
//    while foreground demand keeps the doorbell busy, which bounds how long
//    sustained foreground pressure can starve a background SQE. Foreground
//    overlap promotes a pending background SQE exactly like a prefetch one,
//    and a background run covered by a pending prefetch SQE promotes it
//    into the background lane.
//
// One pending set holds every unflushed SQE, in three sections: demand (in
// enqueue-or-promotion order), then background, then prefetch (each FIFO).
// A flush takes a prefix of it: every demand SQE, plus lane SQEs up to the
// doorbell's free room. Every run enters through one path — join a live
// read, else ride or grow the first compatible pending SQE (demand first),
// else become a new SQE at the end of its section. A run grows only an SQE
// of its own kind, except that demand may grow any; a covered run rides an
// SQE of its own or higher priority in place, and moves a lower-priority
// one to the end of its own section (promotion).
//
// Pending-set prefilter: a flat table (BlockTable) counts, per block, the
// pending SQEs whose block range touches it. WouldShare and Enqueue scan
// the pending set only when some pending SQE touches the run's
// neighbourhood — blocks first_block - 1 .. last_block + 1, widened in
// sub-block mode to the bytes within coalesce_gap_bytes of the span.
// The skip is exact: Compatible holds only for an SQE that covers the run
// (it shares the run's first block), fuses with it in block mode (their
// block ranges overlap or abut), or lies within the gap in sub-block mode,
// and every such SQE touches that window. It relies on a run's and an SQE's
// block range being the blocks of its span, which Enqueue asserts and
// Widen keeps. Bypass mode (below) reads no prefilter and keeps no counts.
//
// With `cross_request = false` (bypass, the io_batching ablation modes) the
// scheduler never merges or single-flights across enqueues, and both
// low-priority lanes are INERT (their enqueues assert/drop); a delay-0
// flush timer rings one doorbell for the runs enqueued at each virtual
// instant.
//
// Multi-tenant attribution: every ReadRequest names its tenant (0 for the
// single tenant of an owned-device store). The scheduler keeps a per-tenant
// TenantIoShare ledger — bus bytes issued per lane (the fair-share
// accounting a shared-device operator bills on) and how often one tenant's
// runs were served by a read another tenant owns (the §5.3 co-location win
// at IO granularity). HOST attribution on a disaggregated, fabric-attached
// device (src/fabric) rides the same field: each cluster host registers as
// one tenant of the shared service, so TenantIoShare doubles as the
// per-HOST fair-share ledger and `cross_tenant_hits` counts cross-HOST
// single-flight — the scheduler itself needs no cluster awareness.
//
// Buffers: a read's bounce buffer is acquired from the shared BufferArena
// at flush time (pending spans may still grow) and is released when the
// last subscriber callback returns. Subscribers receive a borrowed pointer
// into the buffer plus the device byte its first byte corresponds to; they
// must copy what they need during the callback.
//
// Single-threaded by design: all scheduling happens on the EventLoop
// thread, like the rest of the IO path.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/event_loop.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "io/buffer_arena.h"
#include "io/io_engine.h"
#include "obs/observability.h"
#include "sched/in_flight_index.h"

namespace sdm {

/// Effectiveness counters of one scheduler (or, aggregated by SdmStore,
/// of every scheduler on a host) — the single home of the occupancy math.
struct CrossRequestIoStats {
  uint64_t device_reads = 0;          ///< demand SQEs actually issued
  uint64_t cross_request_merges = 0;  ///< spans fused across requests
  uint64_t singleflight_hits = 0;     ///< runs served by another request's read
  uint64_t singleflight_bytes_saved = 0;
  uint64_t flushes = 0;  ///< ring doorbells
  // ---- Prefetch lane ----
  uint64_t prefetch_reads = 0;     ///< prefetch SQEs issued to the device
  uint64_t prefetch_dropped = 0;   ///< prefetch runs rejected at admission
  uint64_t prefetch_promoted = 0;  ///< prefetch reads upgraded/joined by demand
  // ---- Background lane (background-tenant demand, src/tenant) ----
  uint64_t background_reads = 0;     ///< background SQEs issued to the device
  uint64_t background_parked = 0;    ///< runs deferred by the lane byte budget
  uint64_t background_promoted = 0;  ///< background SQEs upgraded by foreground
  // ---- Fault-tolerance responses (src/fault) ----
  uint64_t deadline_expired = 0;  ///< reads abandoned past the IO deadline
  uint64_t hedges_issued = 0;     ///< duplicate reads submitted for slow IOs
  uint64_t hedges_won = 0;        ///< hedges that delivered before the original
  /// Mean SQEs (all lanes) per ring doorbell (0 when no doorbell rang yet).
  [[nodiscard]] double BatchOccupancy() const {
    return flushes == 0 ? 0
                        : static_cast<double>(device_reads + background_reads +
                                              prefetch_reads) /
                              static_cast<double>(flushes);
  }

  /// This-minus-base, field by field. Counters are cumulative across runs;
  /// every run report subtracts its start-of-run snapshot through here.
  [[nodiscard]] CrossRequestIoStats Since(const CrossRequestIoStats& base) const;
  /// Field-by-field sum (aggregating schedulers or device stacks).
  CrossRequestIoStats& operator+=(const CrossRequestIoStats& o);
};

/// One tenant's slice of a scheduler's device traffic — the fair-share
/// ledger of a shared device (src/tenant). Bytes are bus bytes of SQEs the
/// tenant OWNED (first enqueuer); riders pay nothing, which is the point.
struct TenantIoShare {
  uint64_t demand_reads = 0;  ///< foreground-lane SQEs owned
  Bytes demand_bytes = 0;     ///< bus bytes of those SQEs
  uint64_t background_reads = 0;
  Bytes background_bytes = 0;
  Bytes prefetch_bytes = 0;
  uint64_t singleflight_hits = 0;  ///< runs served by an existing read
  uint64_t cross_tenant_hits = 0;  ///< ...whose read another tenant owns
  Bytes cross_tenant_bytes_saved = 0;

  /// This-minus-base per-run delta (see CrossRequestIoStats::Since).
  [[nodiscard]] TenantIoShare Since(const TenantIoShare& base) const;
};

struct BatchSchedulerConfig {
  /// Combine reads across concurrent requests. false = bypass (no sharing,
  /// one doorbell per virtual instant, low-priority lanes inert) for
  /// ablation.
  bool cross_request = true;
  /// Flush when this many SQEs have accumulated.
  int max_batch_sqes = 64;
  /// Flush deadline, armed when the first run enters an empty batch. Zero
  /// means "the end of the current virtual instant": runs submitted at the
  /// same timestamp still share a doorbell, but no latency is added.
  SimDuration max_batch_delay{0};
  /// Span cap for cross-request merging (same knob the planner uses).
  Bytes max_coalesce_bytes = 64 * kKiB;
  /// Largest dead gap a sub-block (SGL) merge may bridge across requests.
  Bytes coalesce_gap_bytes = 512;
  /// Byte budget of the prefetch lane: pending + in-flight prefetch reads
  /// (bus bytes) above this are dropped at admission.
  Bytes prefetch_max_inflight_bytes = 256 * kKiB;
  /// Drain timer for a prefetch-only lane (no demand pending to ride).
  /// Deliberately longer than typical demand deadlines: background work.
  SimDuration prefetch_flush_delay = Micros(5);
  /// Byte budget of the background lane: pending + in-flight background
  /// reads above this are PARKED (FIFO) until budget releases — the cap on
  /// how much device occupancy background tenants can hold at once.
  Bytes background_max_inflight_bytes = 256 * kKiB;
  /// Drain timer of the background lane. Unlike the prefetch timer it fires
  /// even while demand is pending, so this is the starvation bound: a
  /// background SQE waits at most this long for a doorbell of its own.
  /// Clamped up to max_batch_delay at construction — a starvation bound
  /// must never hand background demand a faster doorbell than foreground's
  /// own batching window.
  SimDuration background_flush_delay = Micros(10);
  /// Deadline on every issued read, armed at its flush doorbell. A read
  /// that has not completed by then delivers kDeadlineExceeded to every
  /// subscriber (once) and releases its lane budget — the rescue for
  /// stalled devices and fabric-dropped transfers. Zero disables deadlines
  /// (byte-identical to pre-deadline behavior).
  SimDuration io_deadline{0};
  /// Hedged reads: an in-flight DEMAND read still incomplete after
  /// `hedge_latency_factor * p99` of this scheduler's observed demand-read
  /// latency gets a duplicate submission; the first completion wins and the
  /// loser's payload is discarded. Zero disables hedging.
  double hedge_latency_factor = 0;
  /// Completed demand reads required before the adaptive p99 threshold
  /// arms (the estimate needs a population).
  uint64_t hedge_min_samples = 64;
};

class BatchScheduler {
 public:
  /// Read completion. On success `data` points at the shared bounce buffer
  /// and `base` is the device byte offset of data[0]; the row at device
  /// offset `o` lives at data + (o - base). Both are valid only for the
  /// duration of the callback. On error `data` is nullptr. Dropped prefetch
  /// runs never invoke their callback (Enqueue returns kDropped instead).
  using Completion = std::function<void(Status, const uint8_t* data, Bytes base)>;

  /// One planned run, as produced by the IoPlanner (plus its completion).
  struct ReadRequest {
    /// Scheduling lane (see file header). kDemand has full flush rights;
    /// kBackground is byte-budgeted background-tenant demand (parked under
    /// pressure); kPrefetch is byte-budgeted speculation (dropped under
    /// pressure). Order matters: lanes fill doorbell room in Kind order.
    enum class Kind : uint8_t { kDemand = 0, kBackground = 1, kPrefetch = 2 };

    Bytes span_begin = 0;
    Bytes span_end = 0;
    uint64_t first_block = 0;
    uint64_t last_block = 0;
    bool sub_block = false;
    Kind kind = Kind::kDemand;
    /// Owning tenant for fair-share attribution (0 = single owned-device
    /// tenant). Purely accounting; scheduling policy keys off `kind`.
    uint32_t tenant = 0;
    /// Logical per-row reads this run coalesces (engine counter fodder);
    /// retries pass 0 so the same rows are not counted twice.
    uint32_t rows = 0;
    /// Bus bytes the per-row path would have moved for those rows.
    Bytes per_row_bus = 0;
    /// Both endpoints of this read live on the device side (e.g. a
    /// re-replication copy chunk): on a fabric-attached stack the SQE and
    /// its payload never cross the host fabric. Cleared if any serving-path
    /// request merges into the same SQE — its payload must reach a host.
    bool service_local = false;
    Completion cb;
  };

  /// How a run was admitted — returned synchronously so the caller can keep
  /// per-request accounting (a shared read is not a new device read).
  enum class Admission : uint8_t {
    kNewRead,         ///< became a new SQE in the accumulating batch (a
                      ///< parked background run also reports this: it WILL
                      ///< become its own SQE once the lane budget admits it)
    kMergedPending,   ///< extended a not-yet-flushed SQE from another request
    kJoinedPending,   ///< fully covered by a not-yet-flushed SQE
    kJoinedInFlight,  ///< fully covered by a read already at the device
    kDropped,         ///< prefetch lane over budget (never demand); cb discarded
  };

  BatchScheduler(IoEngine* engine, BufferArena* arena, EventLoop* loop,
                 BatchSchedulerConfig config);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  Admission Enqueue(ReadRequest req);

  /// Cross-replica hedging (self-healing layer, src/fault): where a slow
  /// demand read's duplicate may go instead of the same — possibly sick —
  /// device. `shift` is the block-aligned offset delta from primary space
  /// to the replica's bytes on `engine`'s device.
  struct ReplicaPeer {
    IoEngine* engine = nullptr;
    int64_t shift = 0;
  };
  /// Installs the span -> replica resolver consulted at hedge time; the
  /// default (none) hedges on this scheduler's own engine as before.
  void set_replica_peer(
      std::function<std::optional<ReplicaPeer>(Bytes begin, Bytes end)> fn) {
    replica_peer_fn_ = std::move(fn);
  }

  /// Demand-read latency samples recorded so far. Exactly one sample lands
  /// per successful logical demand read — the winner of a hedge race, and
  /// never a replica-served hedge (whose latency would pollute THIS
  /// device's p99 estimate that arms the hedge timer).
  [[nodiscard]] uint64_t demand_latency_samples() const {
    return demand_latency_.count();
  }

  /// Whether a demand run with this shape would be admitted WITHOUT a new
  /// device read (joined or merged into existing pending/in-flight work).
  /// Callers use this for scheduler-aware throttle admission: a run that
  /// will share needs no outstanding-IO slot, so it must not queue for one
  /// — by the time a slot frees, the read it would have joined may have
  /// retired. Exact (not heuristic) when the Enqueue follows on the same
  /// event-loop turn, since scheduler state only changes on this thread.
  [[nodiscard]] bool WouldShare(Bytes span_begin, Bytes span_end, uint64_t first_block,
                                uint64_t last_block, bool sub_block) const;

  /// Flushes the accumulating batch immediately (tests; drain paths).
  /// Pending background and prefetch SQEs ride along, in that order, up to
  /// the doorbell's free room.
  void Flush();

  [[nodiscard]] size_t pending_sqes() const { return SectionSize(Kind::kDemand); }
  [[nodiscard]] size_t background_pending_sqes() const {
    return SectionSize(Kind::kBackground);
  }
  [[nodiscard]] size_t background_parked_runs() const {
    return LaneOf(Kind::kBackground).parked.size();
  }
  [[nodiscard]] Bytes background_budget_used() const {
    return LaneOf(Kind::kBackground).pending_bytes + LaneOf(Kind::kBackground).inflight_bytes;
  }
  [[nodiscard]] size_t prefetch_pending_sqes() const { return SectionSize(Kind::kPrefetch); }
  [[nodiscard]] Bytes prefetch_budget_used() const {
    return LaneOf(Kind::kPrefetch).pending_bytes + LaneOf(Kind::kPrefetch).inflight_bytes;
  }
  [[nodiscard]] size_t in_flight_reads() const { return live_reads_.size(); }
  [[nodiscard]] const BatchSchedulerConfig& config() const { return config_; }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }

  [[nodiscard]] CrossRequestIoStats Snapshot() const;

  /// Fair-share ledger of one tenant (zeroes for a tenant this scheduler
  /// has not seen). `tenant_span` is 1 + the highest tenant id seen.
  [[nodiscard]] TenantIoShare tenant_share(uint32_t tenant) const;
  [[nodiscard]] size_t tenant_span() const { return tenant_shares_.size(); }

  /// Mean SQEs per ring doorbell — the amortization the paper's io_uring
  /// deployment lives on (§4).
  [[nodiscard]] double BatchOccupancy() const { return Snapshot().BatchOccupancy(); }

  /// Observability (src/obs): registers this scheduler's windowed metrics
  /// under `<name>sched/` and its trace track. Null (or metrics-off) obs
  /// leaves every handle null, so recording stays a dead branch.
  void set_obs(Observability* obs, const std::string& name);

 private:
  using Kind = ReadRequest::Kind;
  static constexpr size_t kNumKinds = 3;

  /// One SQE (any lane). It sits in the pending set, accumulating runs,
  /// until a flush issues it. From then until it settles it is live:
  /// indexed in `live_reads_`, where late arrivals whose span its window
  /// covers find it and subscribe (single-flight on in-flight IO).
  struct Read {
    Bytes span_begin = 0;
    Bytes span_end = 0;
    uint64_t first_block = 0;
    uint64_t last_block = 0;
    bool sub_block = false;
    Kind kind = Kind::kDemand;  ///< its section while pending
    uint32_t tenant = 0;  ///< owner (first enqueuer) for fair-share billing
    /// Bus bytes this SQE holds against its lane's byte budget, released to
    /// the lane when the read settles. Every device read is admitted by
    /// exactly one domain: a throttle slot on the demand side, or these
    /// bytes on a low-priority lane. A covered-promotion keeps its budget
    /// (no slot ever existed for it); a merge-promotion transfers to the
    /// demand run's slot and zeroes it.
    Bytes budget_bytes = 0;
    /// Lane the budget is charged against (survives promotion to demand;
    /// kDemand means "no budget held").
    Kind budget_kind = Kind::kDemand;
    uint32_t rows = 0;
    Bytes per_row_bus = 0;
    /// AND of every participant's ReadRequest::service_local: the SQE may
    /// skip the host fabric only if NO subscriber needs the payload host-side.
    bool service_local = false;
    std::vector<Completion> subscribers;

    // ---- Set when a flush issues the read ----
    Bytes base = 0;
    Bytes window_end = 0;  ///< base + buffer size: the device bytes it lands
    SimTime issued_at;     ///< doorbell time (deadline/hedge anchors)
    /// Cleared when the read settles (completion, deadline or hedge win):
    /// its subscribers are served, so late device or hedge completions
    /// only release buffers, and no new run may join it.
    bool live = true;
    bool hedged = false;     ///< a duplicate submission is in flight
    bool hedge_on_replica = false;  ///< the duplicate went to a replica device
    std::shared_ptr<BufferArena::Buffer> buf;
    /// The hedge's own bounce buffer: the original device read may still
    /// land in `buf` (the device memcpy targets it at dispatch), so the
    /// duplicate needs separate backing.
    std::shared_ptr<BufferArena::Buffer> hedge_buf;
  };

  /// Scheduling rights of one lane — the priority-lane table rows (demand
  /// is the implicit full-rights row and needs no entry).
  struct LanePolicy {
    Bytes max_inflight_bytes = 0;  ///< pending + in-flight budget
    SimDuration drain_delay;       ///< self-drain timer period
    bool droppable = false;        ///< over budget: drop (else park)
    bool drains_despite_demand = false;  ///< timer fires under demand pressure
  };

  /// Queued state of one low-priority lane (its SQEs are a section of the
  /// pending set).
  struct Lane {
    std::deque<ReadRequest> parked;  ///< over-budget runs awaiting admission
    Bytes pending_bytes = 0;
    Bytes inflight_bytes = 0;
    bool drain_armed = false;
  };

  [[nodiscard]] static size_t Index(Kind kind) { return static_cast<size_t>(kind); }
  [[nodiscard]] Lane& LaneOf(Kind kind) { return lanes_[Index(kind) - 1]; }
  [[nodiscard]] const Lane& LaneOf(Kind kind) const { return lanes_[Index(kind) - 1]; }
  [[nodiscard]] size_t SectionSize(Kind kind) const { return section_size_[Index(kind)]; }
  /// Index of the first pending SQE past `kind`'s section.
  [[nodiscard]] size_t SectionEnd(Kind kind) const;

  /// Memory backstop on a lane's SQE count (the byte budget is the real
  /// admission control; this only bounds a degenerate many-tiny-spans lane).
  static constexpr size_t kMaxLaneSqes = 256;
  /// Subscriber slots a new SQE reserves with cross-request batching: its
  /// owner and up to three riders join without regrowing the list. Measured
  /// subscribers per settled SQE (perfbench, seed 1): on disagg16 23% have
  /// one, 21% two, 16% three, 11% four and 28% more, and a run's operator
  /// new calls per SQE read 18.5 unreserved, 17.8 with two slots, 17.2 with
  /// four and 16.9 with eight (256 B each). On m1_cached and m2_refresh
  /// 99.8% have one, and the reserve moves that count by under 0.3%.
  static constexpr size_t kReservedSubscribers = 4;

  [[nodiscard]] LanePolicy Policy(Kind lane) const;

  /// Whether [begin, end) (blocks [first_block, last_block]) can ride on
  /// pending read `p`: fully covered by what `p` will pull across the bus
  /// (`*covered` = true), or fusable under the cap/gap merge rules.
  [[nodiscard]] bool Compatible(const Read& p, Bytes begin, Bytes end,
                                uint64_t first_block, uint64_t last_block,
                                bool sub_block, bool* covered) const;
  /// `req` rides (covered) or grows pending_[i], which sits in `section`;
  /// an SQE of lower priority than `req` is promoted into `req`'s section.
  [[nodiscard]] Admission Join(ReadRequest& req, size_t i, Kind section, bool covered);
  /// Appends `req` to the end of its section as a new SQE holding `budget`
  /// bus bytes of its lane's budget (0 for demand).
  Admission Append(ReadRequest& req, Bytes budget);
  /// Over-budget lane run: dropped (prefetch) or parked (background).
  Admission Refuse(ReadRequest& req);
  /// After pending_[i] grew, fuses any other pending demand reads it now
  /// covers or abuts, so one block never crosses the bus twice in one flush.
  void FuseOverlappingPending(size_t i);
  /// Size-trigger / deadline arming after the demand batch grew.
  void MaybeFlushOrArm();
  void ArmLaneDrain(Kind lane);
  /// Re-admits parked background runs that now fit the lane budget.
  void DrainParked(Kind lane);
  void CompleteRead(const std::shared_ptr<Read>& read, Status status);
  /// Deadline expiry: if `read` is still in flight, deliver
  /// kDeadlineExceeded to every subscriber exactly once and release its
  /// budget. Its buffer stays alive for the (possibly still coming) device
  /// memcpy; the late completion frees it.
  void ExpireRead(const std::shared_ptr<Read>& read);
  /// Hedge trigger: if `read` is still in flight and not yet hedged,
  /// submit a duplicate read into a fresh buffer.
  void MaybeHedge(const std::shared_ptr<Read>& read);
  void CompleteHedge(const std::shared_ptr<Read>& read, Status status);
  /// Arms the per-read deadline and (for demand reads, once the latency
  /// population suffices) the adaptive hedge timer. Called at flush.
  void ArmReadResponses(const std::shared_ptr<Read>& read);
  /// Marks `read` settled and unindexes it, delivers (status, data, base)
  /// to every subscriber exactly once, releases its budget, and re-admits
  /// parked background work. Shared tail of genuine completion / expiry /
  /// hedge win. A replica-served hedge win's latency reflects the OTHER
  /// device and must not enter this scheduler's demand-p99 population.
  void SettleRead(const std::shared_ptr<Read>& read, const Status& status,
                  const uint8_t* data, bool replica_win = false);
  /// Grows pending SQE `p` to cover run (or SQE) `r` too, counting the
  /// blocks it gains in the prefilter.
  template <typename Span>
  void Widen(Read& p, const Span& r);
  /// Adds `delta` (+1 or -1) to the pending-SQE count of every block in
  /// [first_block, last_block].
  void CountPending(uint64_t first_block, uint64_t last_block, int delta);
  /// False only when no pending SQE can be Compatible with the run (see the
  /// file header); true also when the window is wider than the pending set,
  /// which is then cheaper to scan than to probe.
  [[nodiscard]] bool PendingNear(Bytes begin, Bytes end, uint64_t first_block,
                                 uint64_t last_block, bool sub_block) const;
  /// Bus bytes of a run or pending SQE.
  template <typename Span>
  [[nodiscard]] static Bytes BusOf(const Span& s) {
    return NvmeDevice::BusBytes(s.span_begin, s.span_end - s.span_begin, s.sub_block);
  }
  /// Counts `req` as served by an existing read that `owner_tenant` owns.
  void RecordJoin(const ReadRequest& req, uint32_t owner_tenant);
  TenantIoShare& Share(uint32_t tenant);

  IoEngine* engine_;
  BufferArena* arena_;
  EventLoop* loop_;
  BatchSchedulerConfig config_;

  /// Every unflushed SQE: the demand section, then background, then
  /// prefetch. `section_size_` holds each section's length, by Kind.
  std::vector<Read> pending_;
  size_t section_size_[kNumKinds] = {};
  /// Per block, how many pending SQEs' block ranges touch it (the
  /// prefilter); blocks no pending SQE touches have no entry. Empty in
  /// bypass mode.
  BlockTable<uint32_t> pending_blocks_;
  Lane lanes_[kNumKinds - 1];
  /// Live reads in issue order, indexed by the blocks their windows touch.
  InFlightIndex<Read> live_reads_;
  /// Invalidates armed flush timers when the batch they were armed for has
  /// already been flushed by the size trigger.
  uint64_t flush_generation_ = 0;
  bool flush_armed_ = false;

  std::vector<TenantIoShare> tenant_shares_;

  StatsRegistry stats_;
  // Per-kind counters, indexed by Kind (promoted_ has no demand entry).
  Counter* enqueued_[kNumKinds] = {};
  Counter* reads_[kNumKinds] = {};        ///< SQEs issued
  Counter* singleflight_[kNumKinds] = {};  ///< runs served by an existing read
  Counter* promoted_[kNumKinds] = {};      ///< lane SQEs upgraded by a higher lane
  Counter* cross_request_merges_ = nullptr;
  Counter* singleflight_bytes_saved_ = nullptr;
  Counter* flushes_ = nullptr;
  Counter* flush_deadline_ = nullptr;
  Counter* flush_size_ = nullptr;
  Counter* flush_prefetch_ = nullptr;
  Counter* flush_background_ = nullptr;
  Counter* prefetch_dropped_ = nullptr;
  Counter* background_parked_ = nullptr;
  Counter* cross_tenant_hits_ = nullptr;
  Counter* deadline_expired_ = nullptr;
  Counter* hedges_issued_ = nullptr;
  Counter* hedges_won_ = nullptr;
  Counter* replica_hedges_ = nullptr;
  Counter* replica_hedge_wins_ = nullptr;

  std::function<std::optional<ReplicaPeer>(Bytes, Bytes)> replica_peer_fn_;

  /// Observed demand-read completion latency (doorbell -> delivery), the
  /// population behind the adaptive hedge threshold.
  Histogram demand_latency_;

  // ---- Observability (src/obs); all null when off ----
  WindowedCounter* obs_sqes_ = nullptr;         ///< SQEs issued, all lanes
  WindowedCounter* obs_singleflight_ = nullptr; ///< demand runs served by sharing
  WindowedCounter* obs_merges_ = nullptr;
  WindowedCounter* obs_hedges_ = nullptr;
  WindowedCounter* obs_expired_ = nullptr;
  WindowedCounter* obs_pf_dropped_ = nullptr;
  WindowedCounter* obs_bg_parked_ = nullptr;
  WindowedGauge* obs_inflight_ = nullptr;
  WindowedHistogram* obs_read_lat_ = nullptr;   ///< doorbell -> settle, demand
  SpanRecorder* obs_spans_ = nullptr;
  SpanRecorder::TrackId obs_track_ = 0;
};

}  // namespace sdm
