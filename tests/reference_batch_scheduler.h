// Test-only reference: the BatchScheduler that kept demand SQEs in one
// vector and each low-priority lane's SQEs in a deque of its own, with a
// separate enqueue path per lane. Kept verbatim (class renamed; `Snapshot`
// no longer fills the deleted `CrossRequestIoStats::replica_hedges`) so the
// differential fuzzer in sched_fuzz_test.cpp can pin the one-pending-set
// scheduler in src/sched to it operation by operation: admissions,
// callbacks, stats, accessors and the engine and device counters.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "device/nvme_device.h"
#include "sched/batch_scheduler.h"

namespace sdm {

class ReferenceBatchScheduler {
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

  ReferenceBatchScheduler(IoEngine* engine, BufferArena* arena, EventLoop* loop,
                 BatchSchedulerConfig config);

  ReferenceBatchScheduler(const ReferenceBatchScheduler&) = delete;
  ReferenceBatchScheduler& operator=(const ReferenceBatchScheduler&) = delete;

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

  [[nodiscard]] size_t pending_sqes() const { return pending_.size(); }
  [[nodiscard]] size_t background_pending_sqes() const {
    return lanes_[kBackgroundLane].pending.size();
  }
  [[nodiscard]] size_t background_parked_runs() const {
    return lanes_[kBackgroundLane].parked.size();
  }
  [[nodiscard]] Bytes background_budget_used() const {
    return lanes_[kBackgroundLane].pending_bytes + lanes_[kBackgroundLane].inflight_bytes;
  }
  [[nodiscard]] size_t prefetch_pending_sqes() const {
    return lanes_[kPrefetchLane].pending.size();
  }
  [[nodiscard]] Bytes prefetch_budget_used() const {
    return lanes_[kPrefetchLane].pending_bytes + lanes_[kPrefetchLane].inflight_bytes;
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

  /// An SQE accumulating in the unflushed batch (any lane).
  struct PendingRead {
    Bytes span_begin = 0;
    Bytes span_end = 0;
    uint64_t first_block = 0;
    uint64_t last_block = 0;
    bool sub_block = false;
    Kind kind = Kind::kDemand;
    uint32_t tenant = 0;  ///< owner (first enqueuer) for fair-share billing
    /// Bus bytes this SQE holds against its lane's byte budget. Every
    /// device read is admitted by exactly one domain: a throttle slot on
    /// the demand side, or these bytes on a low-priority lane. A
    /// covered-promotion keeps its budget (no slot ever existed for it);
    /// a merge-promotion transfers to the demand run's slot and zeroes it.
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
  };

  /// A read submitted to the engine. Until it settles it is live: indexed
  /// in `live_reads_`, where late arrivals whose span its window covers
  /// find it and subscribe (single-flight on in-flight IO).
  struct InFlightRead {
    Bytes span_begin = 0;
    Bytes span_end = 0;
    Bytes base = 0;
    Bytes window_end = 0;  ///< base + buffer size: the device bytes it lands
    bool sub_block = false;
    Kind kind = Kind::kDemand;
    uint32_t tenant = 0;
    Bytes budget_bytes = 0;  ///< released to the lane when the read completes
    Kind budget_kind = Kind::kDemand;
    SimTime issued_at;       ///< doorbell time (deadline/hedge anchors)
    /// Cleared when the read settles (completion, deadline or hedge win):
    /// its subscribers are served, so late device or hedge completions
    /// only release buffers, and no new run may join it.
    bool live = true;
    bool hedged = false;     ///< a duplicate submission is in flight
    bool hedge_on_replica = false;  ///< the duplicate went to a replica device
    /// Set when a replica-served hedge wins: its latency reflects the OTHER
    /// device and must not enter this scheduler's demand-p99 population.
    bool suppress_latency_sample = false;
    std::shared_ptr<BufferArena::Buffer> buf;
    /// The hedge's own bounce buffer: the original device read may still
    /// land in `buf` (the device memcpy targets it at dispatch), so the
    /// duplicate needs separate backing.
    std::shared_ptr<BufferArena::Buffer> hedge_buf;
    std::vector<Completion> subscribers;
  };

  /// Scheduling rights of one lane — the priority-lane table rows (demand
  /// is the implicit full-rights row and needs no entry).
  struct LanePolicy {
    Bytes max_inflight_bytes = 0;  ///< pending + in-flight budget
    SimDuration drain_delay;       ///< self-drain timer period
    bool droppable = false;        ///< over budget: drop (else park)
    bool drains_despite_demand = false;  ///< timer fires under demand pressure
  };

  /// Queued state of one low-priority lane.
  struct Lane {
    std::deque<PendingRead> pending;  ///< SQEs waiting for doorbell room (FIFO)
    std::deque<ReadRequest> parked;   ///< over-budget runs awaiting admission
    Bytes pending_bytes = 0;
    Bytes inflight_bytes = 0;
    bool drain_armed = false;
  };

  static constexpr size_t kBackgroundLane = 0;
  static constexpr size_t kPrefetchLane = 1;
  static constexpr size_t kNumLanes = 2;
  [[nodiscard]] static size_t LaneIndex(Kind kind) {
    return static_cast<size_t>(kind) - 1;
  }

  /// Memory backstop on a lane's SQE count (the byte budget is the real
  /// admission control; this only bounds a degenerate many-tiny-spans lane).
  static constexpr size_t kMaxLaneSqes = 256;

  [[nodiscard]] LanePolicy Policy(size_t lane) const;

  /// Whether [begin, end) (blocks [first_block, last_block]) can ride on
  /// pending read `p`: fully covered by what `p` will pull across the bus
  /// (`*covered` = true), or fusable under the cap/gap merge rules.
  [[nodiscard]] bool Compatible(const PendingRead& p, Bytes begin, Bytes end,
                                uint64_t first_block, uint64_t last_block,
                                bool sub_block, bool* covered) const;
  [[nodiscard]] Admission EnqueueDemand(ReadRequest& req);
  [[nodiscard]] Admission EnqueueLane(ReadRequest& req, size_t lane);
  /// Appends `req` to `lane` as a new SQE, charging its lane budget.
  Admission AdmitToLane(ReadRequest& req, size_t lane, Bytes bus);
  [[nodiscard]] bool TryAbsorbIntoPending(ReadRequest& req, Admission* admission);
  [[nodiscard]] bool TryJoinInFlight(ReadRequest& req);
  /// Demand-side probe of a low-priority lane: a compatible pending SQE is
  /// moved into the demand batch (promotion) and the run rides it.
  [[nodiscard]] bool TryPromoteLane(ReadRequest& req, size_t lane, Admission* admission);
  /// After pending_[i] grew, fuses any other pending reads it now covers
  /// or abuts, so one block never crosses the bus twice in one flush.
  void FuseOverlappingPending(size_t i);
  /// Size-trigger / deadline arming after the demand batch grew.
  void MaybeFlushOrArm();
  void ArmFlush();
  void ArmLaneDrain(size_t lane);
  /// Re-admits parked background runs that now fit the lane budget.
  void DrainParked(size_t lane);
  void CompleteRead(const std::shared_ptr<InFlightRead>& read, Status status);
  /// Deadline expiry: if `read` is still in flight, deliver
  /// kDeadlineExceeded to every subscriber exactly once and release its
  /// budget. Its buffer stays alive for the (possibly still coming) device
  /// memcpy; the late completion frees it.
  void ExpireRead(const std::shared_ptr<InFlightRead>& read);
  /// Hedge trigger: if `read` is still in flight and not yet hedged,
  /// submit a duplicate read into a fresh buffer.
  void MaybeHedge(const std::shared_ptr<InFlightRead>& read);
  void CompleteHedge(const std::shared_ptr<InFlightRead>& read, Status status);
  /// Arms the per-read deadline and (for demand reads, once the latency
  /// population suffices) the adaptive hedge timer. Called at flush.
  void ArmReadResponses(const std::shared_ptr<InFlightRead>& read);
  /// Marks `read` settled and unindexes it, delivers (status, data, base)
  /// to every subscriber exactly once, releases its budget, and re-admits
  /// parked background work. Shared tail of genuine completion / expiry /
  /// hedge win.
  void SettleRead(const std::shared_ptr<InFlightRead>& read, const Status& status,
                  const uint8_t* data);
  [[nodiscard]] Bytes BusOf(const PendingRead& p) const;
  void RecordJoin(const ReadRequest& req, Kind owner_kind, uint32_t owner_tenant);
  TenantIoShare& Share(uint32_t tenant);

  IoEngine* engine_;
  BufferArena* arena_;
  EventLoop* loop_;
  BatchSchedulerConfig config_;

  std::vector<PendingRead> pending_;  ///< demand batch (full flush rights)
  Lane lanes_[kNumLanes];
  /// Live reads in issue order, indexed by the blocks their windows touch.
  InFlightIndex<InFlightRead> live_reads_;
  /// Invalidates armed flush timers when the batch they were armed for has
  /// already been flushed by the size trigger.
  uint64_t flush_generation_ = 0;
  bool flush_armed_ = false;

  std::vector<TenantIoShare> tenant_shares_;

  StatsRegistry stats_;
  Counter* enqueued_ = nullptr;
  Counter* device_reads_ = nullptr;
  Counter* cross_request_merges_ = nullptr;
  Counter* singleflight_hits_ = nullptr;
  Counter* singleflight_bytes_saved_ = nullptr;
  Counter* flushes_ = nullptr;
  Counter* flush_deadline_ = nullptr;
  Counter* flush_size_ = nullptr;
  Counter* flush_prefetch_ = nullptr;
  Counter* flush_background_ = nullptr;
  Counter* prefetch_enqueued_ = nullptr;
  Counter* prefetch_reads_ = nullptr;
  Counter* prefetch_dropped_ = nullptr;
  Counter* prefetch_promoted_ = nullptr;
  Counter* prefetch_singleflight_ = nullptr;
  Counter* background_enqueued_ = nullptr;
  Counter* background_reads_ = nullptr;
  Counter* background_parked_ = nullptr;
  Counter* background_promoted_ = nullptr;
  Counter* background_singleflight_ = nullptr;
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

inline ReferenceBatchScheduler::ReferenceBatchScheduler(IoEngine* engine, BufferArena* arena, EventLoop* loop,
                               BatchSchedulerConfig config)
    : engine_(engine), arena_(arena), loop_(loop), config_(config) {
  assert(engine != nullptr);
  assert(arena != nullptr);
  assert(loop != nullptr);
  assert(config.max_batch_sqes >= 1);
  // The background lane's drain timer is a STARVATION bound, not a latency
  // privilege: it must never give background demand a faster doorbell than
  // the foreground batching window itself.
  config_.background_flush_delay =
      std::max(config_.background_flush_delay, config_.max_batch_delay);
  enqueued_ = stats_.GetCounter("enqueued");
  device_reads_ = stats_.GetCounter("device_reads");
  cross_request_merges_ = stats_.GetCounter("cross_request_merges");
  singleflight_hits_ = stats_.GetCounter("singleflight_hits");
  singleflight_bytes_saved_ = stats_.GetCounter("singleflight_bytes_saved");
  flushes_ = stats_.GetCounter("flushes");
  flush_deadline_ = stats_.GetCounter("flush_deadline");
  flush_size_ = stats_.GetCounter("flush_size");
  flush_prefetch_ = stats_.GetCounter("flush_prefetch");
  flush_background_ = stats_.GetCounter("flush_background");
  prefetch_enqueued_ = stats_.GetCounter("prefetch_enqueued");
  prefetch_reads_ = stats_.GetCounter("prefetch_reads");
  prefetch_dropped_ = stats_.GetCounter("prefetch_dropped");
  prefetch_promoted_ = stats_.GetCounter("prefetch_promoted");
  prefetch_singleflight_ = stats_.GetCounter("prefetch_singleflight");
  background_enqueued_ = stats_.GetCounter("background_enqueued");
  background_reads_ = stats_.GetCounter("background_reads");
  background_parked_ = stats_.GetCounter("background_parked");
  background_promoted_ = stats_.GetCounter("background_promoted");
  background_singleflight_ = stats_.GetCounter("background_singleflight");
  cross_tenant_hits_ = stats_.GetCounter("cross_tenant_hits");
  deadline_expired_ = stats_.GetCounter("deadline_expired");
  hedges_issued_ = stats_.GetCounter("hedges_issued");
  hedges_won_ = stats_.GetCounter("hedges_won");
  replica_hedges_ = stats_.GetCounter("replica_hedges");
  replica_hedge_wins_ = stats_.GetCounter("replica_hedge_wins");
}

inline void ReferenceBatchScheduler::set_obs(Observability* obs, const std::string& name) {
  obs_sqes_ = ObsCounter(obs, name + "sched/sqes");
  obs_singleflight_ = ObsCounter(obs, name + "sched/singleflight");
  obs_merges_ = ObsCounter(obs, name + "sched/merges");
  obs_hedges_ = ObsCounter(obs, name + "sched/hedges");
  obs_expired_ = ObsCounter(obs, name + "sched/expired");
  obs_pf_dropped_ = ObsCounter(obs, name + "sched/prefetch_dropped");
  obs_bg_parked_ = ObsCounter(obs, name + "sched/background_parked");
  obs_inflight_ = ObsGauge(obs, name + "sched/inflight");
  obs_read_lat_ = ObsHist(obs, name + "sched/read_latency_ns");
  obs_spans_ = ObsSpans(obs);
  if (obs_spans_ != nullptr) {
    std::string process = name;
    if (!process.empty() && process.back() == '/') process.pop_back();
    obs_track_ = obs_spans_->Track(process, "sched");
  }
}

inline CrossRequestIoStats ReferenceBatchScheduler::Snapshot() const {
  CrossRequestIoStats s;
  s.device_reads = device_reads_->value();
  s.cross_request_merges = cross_request_merges_->value();
  s.singleflight_hits = singleflight_hits_->value();
  s.singleflight_bytes_saved = singleflight_bytes_saved_->value();
  s.flushes = flushes_->value();
  s.prefetch_reads = prefetch_reads_->value();
  s.prefetch_dropped = prefetch_dropped_->value();
  s.prefetch_promoted = prefetch_promoted_->value();
  s.background_reads = background_reads_->value();
  s.background_parked = background_parked_->value();
  s.background_promoted = background_promoted_->value();
  s.deadline_expired = deadline_expired_->value();
  s.hedges_issued = hedges_issued_->value();
  s.hedges_won = hedges_won_->value();
  return s;
}

inline ReferenceBatchScheduler::LanePolicy ReferenceBatchScheduler::Policy(size_t lane) const {
  LanePolicy p;
  if (lane == kBackgroundLane) {
    p.max_inflight_bytes = config_.background_max_inflight_bytes;
    p.drain_delay = config_.background_flush_delay;
    p.droppable = false;
    p.drains_despite_demand = true;
  } else {
    p.max_inflight_bytes = config_.prefetch_max_inflight_bytes;
    p.drain_delay = config_.prefetch_flush_delay;
    p.droppable = true;
    p.drains_despite_demand = false;
  }
  return p;
}

inline TenantIoShare& ReferenceBatchScheduler::Share(uint32_t tenant) {
  if (tenant >= tenant_shares_.size()) tenant_shares_.resize(tenant + 1);
  return tenant_shares_[tenant];
}

inline TenantIoShare ReferenceBatchScheduler::tenant_share(uint32_t tenant) const {
  return tenant < tenant_shares_.size() ? tenant_shares_[tenant] : TenantIoShare{};
}

inline void ReferenceBatchScheduler::RecordJoin(const ReadRequest& req, Kind owner_kind,
                                uint32_t owner_tenant) {
  (void)owner_kind;
  // Speculation riding an existing read saves no tenant any demand bytes;
  // the ledger tracks demand-side sharing only.
  if (req.kind == Kind::kPrefetch) return;
  TenantIoShare& share = Share(req.tenant);
  share.singleflight_hits += 1;
  if (owner_tenant != req.tenant) {
    const Bytes bus =
        NvmeDevice::BusBytes(req.span_begin, req.span_end - req.span_begin, req.sub_block);
    share.cross_tenant_hits += 1;
    share.cross_tenant_bytes_saved += bus;
    cross_tenant_hits_->Add(1);
  }
}

inline Bytes ReferenceBatchScheduler::BusOf(const PendingRead& p) const {
  return NvmeDevice::BusBytes(p.span_begin, p.span_end - p.span_begin, p.sub_block);
}

inline bool ReferenceBatchScheduler::WouldShare(Bytes span_begin, Bytes span_end, uint64_t first_block,
                                uint64_t last_block, bool sub_block) const {
  if (!config_.cross_request) return false;
  if (live_reads_.FindCovering(span_begin, span_end, sub_block) != nullptr) return true;
  // Only full coverage counts as sharing here. A span-GROWING merge still
  // adds media occupancy (service time scales with bus bytes), so it must
  // queue for an outstanding-IO slot like any other device work — letting
  // growth skip the throttle snowballs pending SQEs into cap-sized reads
  // that serialize one device channel.
  bool covered = false;
  for (const PendingRead& p : pending_) {
    if (Compatible(p, span_begin, span_end, first_block, last_block, sub_block,
                   &covered) &&
        covered) {
      return true;
    }
  }
  for (const Lane& lane : lanes_) {
    for (const PendingRead& p : lane.pending) {
      if (Compatible(p, span_begin, span_end, first_block, last_block, sub_block,
                     &covered) &&
          covered) {
        return true;  // demand would promote (and fully ride) this lane SQE
      }
    }
  }
  return false;
}

inline ReferenceBatchScheduler::Admission ReferenceBatchScheduler::Enqueue(ReadRequest req) {
  if (req.kind == Kind::kDemand) return EnqueueDemand(req);
  return EnqueueLane(req, LaneIndex(req.kind));
}

inline ReferenceBatchScheduler::Admission ReferenceBatchScheduler::EnqueueDemand(ReadRequest& req) {
  enqueued_->Add(1);
  if (config_.cross_request) {
    if (TryJoinInFlight(req)) return Admission::kJoinedInFlight;
    Admission admission{};
    if (TryAbsorbIntoPending(req, &admission)) return admission;
    // Foreground overlap upgrades low-priority work (merged-read admission):
    // background-tenant SQEs first (real demand), then speculation.
    if (TryPromoteLane(req, kBackgroundLane, &admission)) return admission;
    if (TryPromoteLane(req, kPrefetchLane, &admission)) return admission;
  }

  PendingRead p;
  p.span_begin = req.span_begin;
  p.span_end = req.span_end;
  p.first_block = req.first_block;
  p.last_block = req.last_block;
  p.sub_block = req.sub_block;
  p.tenant = req.tenant;
  p.rows = req.rows;
  p.per_row_bus = req.per_row_bus;
  p.service_local = req.service_local;
  p.subscribers.push_back(std::move(req.cb));
  pending_.push_back(std::move(p));

  MaybeFlushOrArm();
  return Admission::kNewRead;
}

inline ReferenceBatchScheduler::Admission ReferenceBatchScheduler::EnqueueLane(ReadRequest& req, size_t lane_idx) {
  if (!config_.cross_request) {
    // Background runs are demand: without cross-request batching (a valid
    // owned-store ablation config) they degrade to the demand lane rather
    // than losing the read.
    if (req.kind == Kind::kBackground) return EnqueueDemand(req);
    // Bypass-mode parity: the ablation baselines gain no speculation side
    // channel, so the prefetch lane is inert without cross-request
    // batching (the Prefetcher is not even constructed then; a prefetch
    // enqueue here is a wiring bug, hence the debug assert).
    assert(false && "prefetch lanes require cross_request batching");
    prefetch_dropped_->Add(1);
    return Admission::kDropped;
  }
  Lane& lane = lanes_[lane_idx];
  const LanePolicy policy = Policy(lane_idx);
  Counter* lane_singleflight =
      lane_idx == kPrefetchLane ? prefetch_singleflight_ : background_singleflight_;
  (lane_idx == kPrefetchLane ? prefetch_enqueued_ : background_enqueued_)->Add(1);

  // Free rides first: an in-flight or pending read that already covers the
  // span serves the run for nothing (and keeps demand counters clean —
  // lane sharing is tracked separately).
  if (InFlightRead* read =
          live_reads_.FindCovering(req.span_begin, req.span_end, req.sub_block)) {
    lane_singleflight->Add(1);
    // Background demand catching up with speculation: the prefetch read
    // proved useful before it even completed.
    if (read->kind == Kind::kPrefetch && req.kind != Kind::kPrefetch) {
      prefetch_promoted_->Add(1);
    }
    RecordJoin(req, read->kind, read->tenant);
    read->subscribers.push_back(std::move(req.cb));
    return Admission::kJoinedInFlight;
  }
  for (PendingRead& p : pending_) {
    bool covered = false;
    if (Compatible(p, req.span_begin, req.span_end, req.first_block, req.last_block,
                   req.sub_block, &covered) &&
        covered) {
      // Pure subscription: a lane run may ride a demand SQE but never grow
      // one (that would inflate a foreground read for low-priority bytes).
      lane_singleflight->Add(1);
      RecordJoin(req, p.kind, p.tenant);
      p.service_local = p.service_local && req.service_local;
      p.subscribers.push_back(std::move(req.cb));
      return Admission::kJoinedPending;
    }
  }
  // Cross-lane coverage (keeps WouldShare exact for slot-free callers):
  //  - background demand covered by a pending PREFETCH SQE promotes it into
  //    the background lane — demand must not wait out the unhurried
  //    prefetch drain timer, and the lane's own timer now bounds it. The
  //    budget charge moves with it (demand is never dropped, so the
  //    transfer may transiently exceed the background budget).
  //  - a prefetch run covered by a pending BACKGROUND SQE just subscribes:
  //    that read flushes no later than the speculation would have.
  {
    Lane& other = lanes_[lane_idx == kPrefetchLane ? kBackgroundLane : kPrefetchLane];
    for (size_t i = 0; i < other.pending.size(); ++i) {
      PendingRead& q = other.pending[i];
      bool covered = false;
      if (!Compatible(q, req.span_begin, req.span_end, req.first_block, req.last_block,
                      req.sub_block, &covered) ||
          !covered) {
        continue;
      }
      lane_singleflight->Add(1);
      RecordJoin(req, q.kind, q.tenant);
      if (req.kind == Kind::kBackground) {
        PendingRead promoted = std::move(q);
        other.pending.erase(other.pending.begin() + static_cast<std::ptrdiff_t>(i));
        other.pending_bytes -= promoted.budget_bytes;
        prefetch_promoted_->Add(1);
        promoted.kind = Kind::kBackground;
        promoted.budget_kind = Kind::kBackground;
        lane.pending_bytes += promoted.budget_bytes;
        promoted.service_local = promoted.service_local && req.service_local;
        promoted.subscribers.push_back(std::move(req.cb));
        lane.pending.push_back(std::move(promoted));
        ArmLaneDrain(lane_idx);
      } else {
        q.service_local = q.service_local && req.service_local;
        q.subscribers.push_back(std::move(req.cb));
      }
      return Admission::kJoinedPending;
    }
  }
  // Merge within the lane (same cap/gap rules as demand merging). Growth
  // is charged to the byte budget up front — an over-budget merge drops
  // (prefetch) or parks (background) like an over-budget new SQE would.
  for (size_t i = 0; i < lane.pending.size(); ++i) {
    PendingRead& p = lane.pending[i];
    bool covered = false;
    if (!Compatible(p, req.span_begin, req.span_end, req.first_block, req.last_block,
                    req.sub_block, &covered)) {
      continue;
    }
    if (covered) {
      lane_singleflight->Add(1);
      RecordJoin(req, p.kind, p.tenant);
      p.service_local = p.service_local && req.service_local;
      p.subscribers.push_back(std::move(req.cb));
      return Admission::kJoinedPending;
    }
    PendingRead grown = p;
    grown.span_begin = std::min(p.span_begin, req.span_begin);
    grown.span_end = std::max(p.span_end, req.span_end);
    const Bytes delta = BusOf(grown) - BusOf(p);
    if (lane.pending_bytes + lane.inflight_bytes + delta > policy.max_inflight_bytes) {
      if (policy.droppable) {
        prefetch_dropped_->Add(1);
        if (obs_pf_dropped_ != nullptr) obs_pf_dropped_->Add(loop_->Now());
        return Admission::kDropped;
      }
      background_parked_->Add(1);
      if (obs_bg_parked_ != nullptr) obs_bg_parked_->Add(loop_->Now());
      lane.parked.push_back(std::move(req));
      return Admission::kNewRead;
    }
    p.span_begin = grown.span_begin;
    p.span_end = grown.span_end;
    p.first_block = std::min(p.first_block, req.first_block);
    p.last_block = std::max(p.last_block, req.last_block);
    p.rows += req.rows;
    p.per_row_bus += req.per_row_bus;
    p.service_local = p.service_local && req.service_local;
    p.subscribers.push_back(std::move(req.cb));
    p.budget_bytes += delta;
    lane.pending_bytes += delta;
    return Admission::kMergedPending;
  }

  // Admission against the lane's byte budget — under pressure speculation
  // is dropped and background demand parks (FIFO), so neither can starve
  // foreground demand of ring slots or arena buffers.
  const Bytes bus =
      NvmeDevice::BusBytes(req.span_begin, req.span_end - req.span_begin, req.sub_block);
  if (lane.pending_bytes + lane.inflight_bytes + bus > policy.max_inflight_bytes ||
      lane.pending.size() >= kMaxLaneSqes) {
    if (policy.droppable) {
      prefetch_dropped_->Add(1);
      if (obs_pf_dropped_ != nullptr) obs_pf_dropped_->Add(loop_->Now());
      return Admission::kDropped;
    }
    // Same escape hatch as DrainParked: a run larger than the whole budget
    // must still make progress when the lane is otherwise idle — parking it
    // would strand it forever (no completion ever calls DrainParked).
    const bool lane_idle =
        lane.pending.empty() && lane.inflight_bytes == 0 && lane.parked.empty();
    if (!lane_idle) {
      background_parked_->Add(1);
      if (obs_bg_parked_ != nullptr) obs_bg_parked_->Add(loop_->Now());
      lane.parked.push_back(std::move(req));
      return Admission::kNewRead;
    }
  }
  return AdmitToLane(req, lane_idx, bus);
}

inline ReferenceBatchScheduler::Admission ReferenceBatchScheduler::AdmitToLane(ReadRequest& req, size_t lane_idx,
                                                      Bytes bus) {
  Lane& lane = lanes_[lane_idx];
  PendingRead p;
  p.span_begin = req.span_begin;
  p.span_end = req.span_end;
  p.first_block = req.first_block;
  p.last_block = req.last_block;
  p.sub_block = req.sub_block;
  p.kind = req.kind;
  p.tenant = req.tenant;
  p.budget_bytes = bus;
  p.budget_kind = req.kind;
  p.rows = req.rows;
  p.per_row_bus = req.per_row_bus;
  p.service_local = req.service_local;
  p.subscribers.push_back(std::move(req.cb));
  lane.pending_bytes += bus;
  lane.pending.push_back(std::move(p));

  // No flush rights: ride the next demand doorbell, or the lane's own
  // drain timer when no doorbell comes.
  ArmLaneDrain(lane_idx);
  return Admission::kNewRead;
}

inline bool ReferenceBatchScheduler::TryJoinInFlight(ReadRequest& req) {
  // The buffer covers [base, base + size): whole blocks in block mode, the
  // DWORD-rounded span in sub-block mode. Any run inside that window can be
  // served by this read's completion.
  InFlightRead* read =
      live_reads_.FindCovering(req.span_begin, req.span_end, req.sub_block);
  if (read == nullptr) return false;
  singleflight_hits_->Add(1);
  if (obs_singleflight_ != nullptr) obs_singleflight_->Add(loop_->Now());
  singleflight_bytes_saved_->Add(
      NvmeDevice::BusBytes(req.span_begin, req.span_end - req.span_begin, req.sub_block));
  // Demand catching up with speculation: the prefetch read proved useful
  // before it even completed.
  if (read->kind == Kind::kPrefetch) prefetch_promoted_->Add(1);
  RecordJoin(req, read->kind, read->tenant);
  read->subscribers.push_back(std::move(req.cb));
  return true;
}

inline bool ReferenceBatchScheduler::Compatible(const PendingRead& p, Bytes begin, Bytes end,
                                uint64_t first_block, uint64_t last_block,
                                bool sub_block, bool* covered) const {
  if (p.sub_block != sub_block) return false;

  // Coverage bounds of the eventual read: whole blocks cross the bus in
  // block mode, so any row inside the block range rides along for free.
  const Bytes cover_begin = p.sub_block ? p.span_begin : p.first_block * kBlockSize;
  const Bytes cover_end = p.sub_block ? p.span_end : (p.last_block + 1) * kBlockSize;
  if (begin >= cover_begin && end <= cover_end) {
    *covered = true;
    return true;
  }
  *covered = false;

  const uint64_t merged_first = std::min(p.first_block, first_block);
  const uint64_t merged_last = std::max(p.last_block, last_block);
  if ((merged_last - merged_first + 1) * kBlockSize > config_.max_coalesce_bytes) {
    return false;
  }
  if (p.sub_block) {
    // Gap-bounded span merging, like the planner's sub-block rule.
    const Bytes gap = begin > p.span_end      ? begin - p.span_end
                      : p.span_begin > end    ? p.span_begin - end
                                              : 0;
    return gap <= config_.coalesce_gap_bytes;
  }
  // Overlapping or adjacent block ranges fuse into one read.
  return first_block <= p.last_block + 1 && p.first_block <= last_block + 1;
}

inline bool ReferenceBatchScheduler::TryAbsorbIntoPending(ReadRequest& req, Admission* admission) {
  for (size_t i = 0; i < pending_.size(); ++i) {
    PendingRead& p = pending_[i];
    bool covered = false;
    if (!Compatible(p, req.span_begin, req.span_end, req.first_block, req.last_block,
                    req.sub_block, &covered)) {
      continue;
    }
    p.span_begin = std::min(p.span_begin, req.span_begin);
    p.span_end = std::max(p.span_end, req.span_end);
    p.first_block = std::min(p.first_block, req.first_block);
    p.last_block = std::max(p.last_block, req.last_block);
    p.rows += req.rows;
    p.per_row_bus += req.per_row_bus;
    if (covered) {
      singleflight_hits_->Add(1);
      if (obs_singleflight_ != nullptr) obs_singleflight_->Add(loop_->Now());
      singleflight_bytes_saved_->Add(NvmeDevice::BusBytes(
          req.span_begin, req.span_end - req.span_begin, req.sub_block));
      RecordJoin(req, p.kind, p.tenant);
      *admission = Admission::kJoinedPending;
    } else {
      cross_request_merges_->Add(1);
      if (obs_merges_ != nullptr) obs_merges_->Add(loop_->Now());
      *admission = Admission::kMergedPending;
    }
    p.service_local = p.service_local && req.service_local;
    p.subscribers.push_back(std::move(req.cb));
    if (!covered) FuseOverlappingPending(i);
    return true;
  }
  return false;
}

inline bool ReferenceBatchScheduler::TryPromoteLane(ReadRequest& req, size_t lane_idx,
                                    Admission* admission) {
  Lane& lane = lanes_[lane_idx];
  for (size_t i = 0; i < lane.pending.size(); ++i) {
    PendingRead& q = lane.pending[i];
    bool covered = false;
    if (!Compatible(q, req.span_begin, req.span_end, req.first_block, req.last_block,
                    req.sub_block, &covered)) {
      continue;
    }
    // Merged-read admission: the low-priority SQE moves to the demand batch
    // (demand priority, demand flush triggers) instead of the demand run
    // issuing a second read for overlapping bytes. Admission-domain
    // handoff: a covered promotion stays charged to the lane byte budget
    // (the demand run arrived slot-free via WouldShare and there is no
    // other holder); a span-growing promotion is re-admitted under the
    // demand run's throttle slot — it returns kNewRead so the caller keeps
    // that slot — and its budget bytes are released.
    PendingRead p = std::move(q);
    lane.pending.erase(lane.pending.begin() + static_cast<std::ptrdiff_t>(i));
    const Kind lane_kind = p.kind;
    p.kind = Kind::kDemand;
    p.span_begin = std::min(p.span_begin, req.span_begin);
    p.span_end = std::max(p.span_end, req.span_end);
    p.first_block = std::min(p.first_block, req.first_block);
    p.last_block = std::max(p.last_block, req.last_block);
    p.rows += req.rows;
    p.per_row_bus += req.per_row_bus;
    (lane_kind == Kind::kPrefetch ? prefetch_promoted_ : background_promoted_)->Add(1);
    if (covered) {
      singleflight_hits_->Add(1);
      if (obs_singleflight_ != nullptr) obs_singleflight_->Add(loop_->Now());
      singleflight_bytes_saved_->Add(NvmeDevice::BusBytes(
          req.span_begin, req.span_end - req.span_begin, req.sub_block));
      RecordJoin(req, lane_kind, p.tenant);
      *admission = Admission::kJoinedPending;
    } else {
      lane.pending_bytes -= p.budget_bytes;
      p.budget_bytes = 0;
      p.budget_kind = Kind::kDemand;
      cross_request_merges_->Add(1);
      if (obs_merges_ != nullptr) obs_merges_->Add(loop_->Now());
      *admission = Admission::kNewRead;
    }
    p.service_local = p.service_local && req.service_local;
    p.subscribers.push_back(std::move(req.cb));
    pending_.push_back(std::move(p));
    FuseOverlappingPending(pending_.size() - 1);
    MaybeFlushOrArm();
    return true;
  }
  return false;
}

inline void ReferenceBatchScheduler::FuseOverlappingPending(size_t i) {
  // A merge can bridge two previously-independent pending reads (e.g. a
  // run landing between blocks [0] and [2] grows the first SQE to [0,1]
  // while [2,2] still sits in the batch). Fuse everything the grown read
  // now covers or abuts; each fusion can grow it further, so rescan until
  // a pass makes no change.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t j = 0; j < pending_.size(); ++j) {
      if (j == i) continue;
      PendingRead& p = pending_[i];
      PendingRead& q = pending_[j];
      bool covered = false;
      if (!Compatible(p, q.span_begin, q.span_end, q.first_block, q.last_block,
                      q.sub_block, &covered)) {
        continue;
      }
      p.span_begin = std::min(p.span_begin, q.span_begin);
      p.span_end = std::max(p.span_end, q.span_end);
      p.first_block = std::min(p.first_block, q.first_block);
      p.last_block = std::max(p.last_block, q.last_block);
      p.rows += q.rows;
      p.per_row_bus += q.per_row_bus;
      if (q.budget_bytes > 0) {
        if (p.budget_bytes == 0 || p.budget_kind == q.budget_kind) {
          // Budget carries over to the fused read.
          p.budget_bytes += q.budget_bytes;
          p.budget_kind = q.budget_kind;
        } else {
          // Fusing two promoted SQEs whose budgets came from different
          // lanes: release q's charge — the fused read is admitted by p's
          // domain (its slot or budget) alone.
          lanes_[LaneIndex(q.budget_kind)].pending_bytes -= q.budget_bytes;
        }
      }
      p.service_local = p.service_local && q.service_local;
      for (Completion& cb : q.subscribers) p.subscribers.push_back(std::move(cb));
      cross_request_merges_->Add(1);
      if (obs_merges_ != nullptr) obs_merges_->Add(loop_->Now());
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(j));
      if (j < i) --i;
      changed = true;
      break;  // indices shifted; rescan
    }
  }
}

inline void ReferenceBatchScheduler::MaybeFlushOrArm() {
  if (static_cast<int>(pending_.size()) >= config_.max_batch_sqes) {
    flush_size_->Add(1);
    Flush();
  } else {
    ArmFlush();
  }
}

inline void ReferenceBatchScheduler::ArmFlush() {
  if (flush_armed_) return;
  flush_armed_ = true;
  // Bypass mode: the delay-0 timer rings one doorbell for every run
  // enqueued at this virtual instant. Cross-request mode waits out the
  // batching window so runs from other lookups can pile in.
  const SimDuration delay =
      config_.cross_request ? config_.max_batch_delay : SimDuration(0);
  const uint64_t generation = flush_generation_;
  loop_->ScheduleAfter(delay, [this, generation] {
    if (generation != flush_generation_) return;  // batch already flushed
    if (config_.cross_request) flush_deadline_->Add(1);
    Flush();
  });
}

inline void ReferenceBatchScheduler::ArmLaneDrain(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  const LanePolicy policy = Policy(lane_idx);
  if (lane.drain_armed) return;
  if (!policy.drains_despite_demand) {
    // Prefetch: a demand flush is already due and will carry the lane.
    if (flush_armed_) return;
    lane.drain_armed = true;
    const uint64_t generation = flush_generation_;
    loop_->ScheduleAfter(policy.drain_delay, [this, lane_idx, generation] {
      Lane& l = lanes_[lane_idx];
      l.drain_armed = false;
      if (l.pending.empty()) return;
      // Demand arrived meanwhile: its own flush (armed or size-triggered)
      // drains the lane; a prefetch timer must never ring the doorbell
      // early for demand SQEs.
      if (!pending_.empty()) return;
      if (generation != flush_generation_) {
        // A flush rang since arming and still left lane entries (doorbell
        // was full); wait out another window.
        ArmLaneDrain(lane_idx);
        return;
      }
      flush_prefetch_->Add(1);
      Flush();
    });
    return;
  }
  // Background: the timer fires even while foreground keeps the doorbell
  // busy — this is the lane's starvation bound. Ringing early flushes the
  // demand batch too, which only helps demand.
  lane.drain_armed = true;
  loop_->ScheduleAfter(policy.drain_delay, [this, lane_idx] {
    Lane& l = lanes_[lane_idx];
    l.drain_armed = false;
    if (l.pending.empty()) return;
    flush_background_->Add(1);
    Flush();
    if (!l.pending.empty()) ArmLaneDrain(lane_idx);  // doorbell was full
  });
}

inline void ReferenceBatchScheduler::DrainParked(size_t lane_idx) {
  Lane& lane = lanes_[lane_idx];
  const LanePolicy policy = Policy(lane_idx);
  while (!lane.parked.empty()) {
    ReadRequest& req = lane.parked.front();
    const Bytes bus = NvmeDevice::BusBytes(req.span_begin, req.span_end - req.span_begin,
                                           req.sub_block);
    // Admit when the budget fits — or unconditionally when the lane is
    // otherwise idle, so a run larger than the whole budget still makes
    // progress instead of parking forever.
    const bool fits =
        lane.pending_bytes + lane.inflight_bytes + bus <= policy.max_inflight_bytes;
    const bool lane_idle = lane.pending.empty() && lane.inflight_bytes == 0;
    if ((!fits && !lane_idle) || lane.pending.size() >= kMaxLaneSqes) return;
    ReadRequest run = std::move(req);
    lane.parked.pop_front();
    // Parked runs re-enter as their own SQE (no join rescan): the caller
    // already accounted them as a new device read when they parked.
    (void)AdmitToLane(run, lane_idx, bus);
  }
}

inline void ReferenceBatchScheduler::Flush() {
  ++flush_generation_;
  flush_armed_ = false;

  // Swap the batch out first: completion callbacks scheduled below may
  // re-enter Enqueue (retries) and must see a clean pending list. The
  // low-priority lanes fill whatever doorbell room demand left — background
  // (real demand) before prefetch (speculation).
  std::vector<PendingRead> batch;
  batch.swap(pending_);
  for (Lane& lane : lanes_) {
    while (!lane.pending.empty() &&
           static_cast<int>(batch.size()) < config_.max_batch_sqes) {
      batch.push_back(std::move(lane.pending.front()));
      lane.pending.pop_front();
    }
  }
  if (batch.empty()) return;
  flushes_->Add(1);

  std::vector<IoEngine::ReadOp> ops;
  ops.reserve(batch.size());
  for (PendingRead& p : batch) {
    auto read = std::make_shared<InFlightRead>();
    read->span_begin = p.span_begin;
    read->span_end = p.span_end;
    read->sub_block = p.sub_block;
    read->kind = p.kind;
    read->tenant = p.tenant;
    // The device lands data at its alignment base: the first byte of the
    // first block (block mode) or the DWORD floor of the span (sub-block).
    read->base = p.sub_block ? (p.span_begin & ~(kDwordBytes - 1))
                             : p.first_block * kBlockSize;
    const Bytes length = p.span_end - p.span_begin;
    const Bytes bus = NvmeDevice::BusBytes(p.span_begin, length, p.sub_block);
    // Budget bytes (possibly carried by a promoted/fused SQE) move from
    // pending to in-flight and are released at completion.
    read->budget_bytes = p.budget_bytes;
    read->budget_kind = p.budget_kind;
    if (p.budget_bytes > 0) {
      Lane& budget_lane = lanes_[LaneIndex(p.budget_kind)];
      budget_lane.pending_bytes -= p.budget_bytes;
      budget_lane.inflight_bytes += p.budget_bytes;
    }
    read->buf = arena_->Acquire(bus);
    read->window_end = read->base + read->buf->size();
    read->subscribers = std::move(p.subscribers);
    read->issued_at = loop_->Now();
    live_reads_.Insert(read, read->base, read->window_end, read->sub_block);
    ArmReadResponses(read);
    TenantIoShare& share = Share(p.tenant);
    switch (p.kind) {
      case Kind::kPrefetch:
        prefetch_reads_->Add(1);
        share.prefetch_bytes += bus;
        break;
      case Kind::kBackground:
        background_reads_->Add(1);
        share.background_reads += 1;
        share.background_bytes += bus;
        break;
      case Kind::kDemand:
        device_reads_->Add(1);
        share.demand_reads += 1;
        share.demand_bytes += bus;
        break;
    }

    IoEngine::ReadOp op;
    op.offset = p.span_begin;
    op.length = length;
    op.sub_block = p.sub_block;
    op.dest = std::span<uint8_t>(read->buf->data(), read->buf->size());
    op.merged_reads = std::max<uint32_t>(1, p.rows);
    op.bytes_saved = p.per_row_bus > bus ? p.per_row_bus - bus : 0;
    op.service_local = p.service_local;
    op.cb = [this, read](Status status, SimDuration /*lat*/) {
      CompleteRead(read, std::move(status));
    };
    ops.push_back(std::move(op));
  }
  engine_->SubmitBatch(ops);
  if (obs_sqes_ != nullptr) obs_sqes_->Add(loop_->Now(), batch.size());
  if (obs_inflight_ != nullptr) {
    obs_inflight_->Set(loop_->Now(), static_cast<double>(live_reads_.size()));
  }

  // Lane overflow (doorbell was full): drain on the background timers.
  for (size_t lane = 0; lane < kNumLanes; ++lane) {
    if (!lanes_[lane].pending.empty()) ArmLaneDrain(lane);
  }
}

inline void ReferenceBatchScheduler::ArmReadResponses(const std::shared_ptr<InFlightRead>& read) {
  if (config_.io_deadline > SimDuration(0)) {
    loop_->ScheduleAfter(config_.io_deadline, [this, read] { ExpireRead(read); });
  }
  // The hedge threshold adapts to this scheduler's own demand-read p99
  // (per-device: each device has its own scheduler), once enough reads
  // completed to trust the estimate.
  if (config_.hedge_latency_factor > 0 && read->kind == Kind::kDemand &&
      demand_latency_.count() >= config_.hedge_min_samples) {
    const auto p99 = static_cast<double>(demand_latency_.P99());
    const auto delay =
        SimDuration(static_cast<int64_t>(p99 * config_.hedge_latency_factor));
    loop_->ScheduleAfter(delay, [this, read] { MaybeHedge(read); });
  }
}

inline void ReferenceBatchScheduler::SettleRead(const std::shared_ptr<InFlightRead>& read,
                                const Status& status, const uint8_t* data) {
  // Unregister before delivering: a subscriber may re-enqueue (retry) and
  // must not join a read that has already settled. Every subscriber — N
  // cross-request waiters joined by single-flight included — hears the
  // outcome exactly once; later completions of the same physical read find
  // the read no longer live and only release buffers.
  read->live = false;
  live_reads_.Erase(read.get(), read->base, read->window_end);
  if (read->budget_bytes > 0) {
    lanes_[LaneIndex(read->budget_kind)].inflight_bytes -= read->budget_bytes;
  }
  if (obs_spans_ != nullptr) {
    const char* span_name = read->kind == Kind::kPrefetch      ? "sqe.prefetch"
                            : read->kind == Kind::kBackground  ? "sqe.background"
                                                               : "sqe.demand";
    obs_spans_->Span(obs_track_, span_name, read->issued_at, loop_->Now(),
                     "{\"bytes\":" + std::to_string(read->buf->size()) + "}");
  }
  if (obs_inflight_ != nullptr) {
    obs_inflight_->Set(loop_->Now(), static_cast<double>(live_reads_.size()));
  }
  // Hedge accounting: exactly ONE sample per logical demand read enters the
  // p99 population — the winner's. A losing original finds the read settled
  // (CompleteRead's early return) and records nothing; a replica-served win
  // is excluded outright, since its latency describes the replica's device,
  // not the one this scheduler's hedge threshold watches.
  if (status.ok() && read->kind == Kind::kDemand && !read->suppress_latency_sample) {
    demand_latency_.Record(loop_->Now() - read->issued_at);
    if (obs_read_lat_ != nullptr) {
      obs_read_lat_->Record(loop_->Now(), loop_->Now() - read->issued_at);
    }
  }
  for (Completion& cb : read->subscribers) {
    cb(status, data, read->base);
  }
  read->subscribers.clear();
  // Released budget may admit parked background demand.
  DrainParked(kBackgroundLane);
}

inline void ReferenceBatchScheduler::CompleteRead(const std::shared_ptr<InFlightRead>& read,
                                  Status status) {
  if (!read->live) {
    // The deadline expired or a hedge won while this read was at the
    // device: subscribers were already served, so only free the buffer
    // (held until now in case the device memcpy was still due).
    read->buf.reset();
    return;
  }
  SettleRead(read, status, status.ok() ? read->buf->data() : nullptr);
  read->buf.reset();  // return the bounce buffer to the arena promptly
}

inline void ReferenceBatchScheduler::ExpireRead(const std::shared_ptr<InFlightRead>& read) {
  if (!read->live) return;  // completed (or hedge-settled) in time
  deadline_expired_->Add(1);
  if (obs_expired_ != nullptr) obs_expired_->Add(loop_->Now());
  if (obs_spans_ != nullptr) obs_spans_->Instant(obs_track_, "deadline_expired", loop_->Now());
  // NOTE: read->buf is NOT released here. A spilled op may still be
  // dispatched later and the device memcpy targets that buffer; the late
  // completion (if it ever comes) frees it, else the submission closure's
  // shared_ptr does.
  SettleRead(read,
             DeadlineExceededError("scheduler read exceeded io_deadline"),
             nullptr);
}

inline void ReferenceBatchScheduler::MaybeHedge(const std::shared_ptr<InFlightRead>& read) {
  if (read->hedged || !read->live) return;  // a hedge is racing, or settled
  read->hedged = true;
  hedges_issued_->Add(1);
  if (obs_hedges_ != nullptr) obs_hedges_->Add(loop_->Now());
  if (obs_spans_ != nullptr) obs_spans_->Instant(obs_track_, "hedge", loop_->Now());
  const Bytes length = read->span_end - read->span_begin;
  read->hedge_buf = arena_->Acquire(read->buf->size());
  // Cross-replica hedging: when the span has a healthy replica, the
  // duplicate goes THERE — a slow primary is often slow (or sick) for every
  // read, so re-queueing on it mostly doubles its load. The replica holds
  // byte-identical content at a block-aligned shift, so the hedge buffer
  // still maps subscribers' primary-space offsets via read->base.
  IoEngine* engine = engine_;
  Bytes offset = read->span_begin;
  if (replica_peer_fn_) {
    if (const auto peer = replica_peer_fn_(read->span_begin, read->span_end);
        peer.has_value()) {
      engine = peer->engine;
      offset = static_cast<Bytes>(static_cast<int64_t>(read->span_begin) + peer->shift);
      read->hedge_on_replica = true;
      replica_hedges_->Add(1);
    }
  }
  engine->SubmitRead(offset, length, read->sub_block,
                     std::span<uint8_t>(read->hedge_buf->data(), read->hedge_buf->size()),
                     [this, read](Status status, SimDuration /*lat*/) {
                       CompleteHedge(read, std::move(status));
                     });
}

inline void ReferenceBatchScheduler::CompleteHedge(const std::shared_ptr<InFlightRead>& read,
                                   Status status) {
  if (!read->live) {
    read->hedge_buf.reset();  // the original won (or the deadline fired)
    return;
  }
  if (!status.ok()) {
    // A failed hedge must not fail the read: the original is still in
    // flight and keeps its own deadline/retry story.
    read->hedge_buf.reset();
    return;
  }
  hedges_won_->Add(1);
  if (read->hedge_on_replica) {
    replica_hedge_wins_->Add(1);
    read->suppress_latency_sample = true;
  }
  SettleRead(read, status, read->hedge_buf->data());
  read->hedge_buf.reset();
  // read->buf stays held for the original's late completion (see
  // CompleteRead's settled-read path).
}

}  // namespace sdm
