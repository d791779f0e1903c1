#include "sched/batch_scheduler.h"

#include <algorithm>
#include <cassert>

#include "device/nvme_device.h"

namespace sdm {

BatchScheduler::BatchScheduler(IoEngine* engine, BufferArena* arena, EventLoop* loop,
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
  // Per kind: enqueued, SQEs issued, single-flight hits, promotions.
  const char* const kNames[kNumKinds][4] = {
      {"enqueued", "device_reads", "singleflight_hits", nullptr},
      {"background_enqueued", "background_reads", "background_singleflight",
       "background_promoted"},
      {"prefetch_enqueued", "prefetch_reads", "prefetch_singleflight", "prefetch_promoted"}};
  for (size_t k = 0; k < kNumKinds; ++k) {
    enqueued_[k] = stats_.GetCounter(kNames[k][0]);
    reads_[k] = stats_.GetCounter(kNames[k][1]);
    singleflight_[k] = stats_.GetCounter(kNames[k][2]);
    if (kNames[k][3] != nullptr) promoted_[k] = stats_.GetCounter(kNames[k][3]);
  }
  cross_request_merges_ = stats_.GetCounter("cross_request_merges");
  singleflight_bytes_saved_ = stats_.GetCounter("singleflight_bytes_saved");
  flushes_ = stats_.GetCounter("flushes");
  flush_deadline_ = stats_.GetCounter("flush_deadline");
  flush_size_ = stats_.GetCounter("flush_size");
  flush_prefetch_ = stats_.GetCounter("flush_prefetch");
  flush_background_ = stats_.GetCounter("flush_background");
  prefetch_dropped_ = stats_.GetCounter("prefetch_dropped");
  background_parked_ = stats_.GetCounter("background_parked");
  cross_tenant_hits_ = stats_.GetCounter("cross_tenant_hits");
  deadline_expired_ = stats_.GetCounter("deadline_expired");
  hedges_issued_ = stats_.GetCounter("hedges_issued");
  hedges_won_ = stats_.GetCounter("hedges_won");
  replica_hedges_ = stats_.GetCounter("replica_hedges");
  replica_hedge_wins_ = stats_.GetCounter("replica_hedge_wins");
}

void BatchScheduler::set_obs(Observability* obs, const std::string& name) {
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

namespace {

// Every counter field, for the field-by-field delta and sum.
constexpr uint64_t CrossRequestIoStats::*kIoStatsFields[] = {
    &CrossRequestIoStats::device_reads,      &CrossRequestIoStats::cross_request_merges,
    &CrossRequestIoStats::singleflight_hits, &CrossRequestIoStats::singleflight_bytes_saved,
    &CrossRequestIoStats::flushes,           &CrossRequestIoStats::prefetch_reads,
    &CrossRequestIoStats::prefetch_dropped,  &CrossRequestIoStats::prefetch_promoted,
    &CrossRequestIoStats::background_reads,  &CrossRequestIoStats::background_parked,
    &CrossRequestIoStats::background_promoted, &CrossRequestIoStats::deadline_expired,
    &CrossRequestIoStats::hedges_issued,     &CrossRequestIoStats::hedges_won};
constexpr uint64_t TenantIoShare::*kTenantShareFields[] = {
    &TenantIoShare::demand_reads,      &TenantIoShare::demand_bytes,
    &TenantIoShare::background_reads,  &TenantIoShare::background_bytes,
    &TenantIoShare::prefetch_bytes,    &TenantIoShare::singleflight_hits,
    &TenantIoShare::cross_tenant_hits, &TenantIoShare::cross_tenant_bytes_saved};

}  // namespace

CrossRequestIoStats CrossRequestIoStats::Since(const CrossRequestIoStats& base) const {
  CrossRequestIoStats d;
  for (const auto field : kIoStatsFields) d.*field = this->*field - base.*field;
  return d;
}

CrossRequestIoStats& CrossRequestIoStats::operator+=(const CrossRequestIoStats& o) {
  for (const auto field : kIoStatsFields) this->*field += o.*field;
  return *this;
}

TenantIoShare TenantIoShare::Since(const TenantIoShare& base) const {
  TenantIoShare d;
  for (const auto field : kTenantShareFields) d.*field = this->*field - base.*field;
  return d;
}

CrossRequestIoStats BatchScheduler::Snapshot() const {
  CrossRequestIoStats s;
  s.device_reads = reads_[Index(Kind::kDemand)]->value();
  s.cross_request_merges = cross_request_merges_->value();
  s.singleflight_hits = singleflight_[Index(Kind::kDemand)]->value();
  s.singleflight_bytes_saved = singleflight_bytes_saved_->value();
  s.flushes = flushes_->value();
  s.prefetch_reads = reads_[Index(Kind::kPrefetch)]->value();
  s.prefetch_dropped = prefetch_dropped_->value();
  s.prefetch_promoted = promoted_[Index(Kind::kPrefetch)]->value();
  s.background_reads = reads_[Index(Kind::kBackground)]->value();
  s.background_parked = background_parked_->value();
  s.background_promoted = promoted_[Index(Kind::kBackground)]->value();
  s.deadline_expired = deadline_expired_->value();
  s.hedges_issued = hedges_issued_->value();
  s.hedges_won = hedges_won_->value();
  return s;
}

BatchScheduler::LanePolicy BatchScheduler::Policy(Kind lane) const {
  if (lane == Kind::kBackground) {
    return {.max_inflight_bytes = config_.background_max_inflight_bytes,
            .drain_delay = config_.background_flush_delay,
            .droppable = false,
            .drains_despite_demand = true};
  }
  return {.max_inflight_bytes = config_.prefetch_max_inflight_bytes,
          .drain_delay = config_.prefetch_flush_delay,
          .droppable = true,
          .drains_despite_demand = false};
}

TenantIoShare& BatchScheduler::Share(uint32_t tenant) {
  if (tenant >= tenant_shares_.size()) tenant_shares_.resize(tenant + 1);
  return tenant_shares_[tenant];
}

TenantIoShare BatchScheduler::tenant_share(uint32_t tenant) const {
  return tenant < tenant_shares_.size() ? tenant_shares_[tenant] : TenantIoShare{};
}

size_t BatchScheduler::SectionEnd(Kind kind) const {
  size_t end = 0;
  for (size_t k = 0; k <= Index(kind); ++k) end += section_size_[k];
  return end;
}

void BatchScheduler::RecordJoin(const ReadRequest& req, uint32_t owner_tenant) {
  singleflight_[Index(req.kind)]->Add(1);
  if (req.kind == Kind::kDemand) {
    if (obs_singleflight_ != nullptr) obs_singleflight_->Add(loop_->Now());
    singleflight_bytes_saved_->Add(BusOf(req));
  }
  // Speculation riding an existing read saves no tenant any demand bytes;
  // the ledger tracks demand-side sharing only.
  if (req.kind == Kind::kPrefetch) return;
  TenantIoShare& share = Share(req.tenant);
  share.singleflight_hits += 1;
  if (owner_tenant != req.tenant) {
    share.cross_tenant_hits += 1;
    share.cross_tenant_bytes_saved += BusOf(req);
    cross_tenant_hits_->Add(1);
  }
}

template <typename Span>
void BatchScheduler::Widen(Read& p, const Span& r) {
  if (r.first_block < p.first_block) CountPending(r.first_block, p.first_block - 1, +1);
  if (r.last_block > p.last_block) CountPending(p.last_block + 1, r.last_block, +1);
  p.span_begin = std::min(p.span_begin, r.span_begin);
  p.span_end = std::max(p.span_end, r.span_end);
  p.first_block = std::min(p.first_block, r.first_block);
  p.last_block = std::max(p.last_block, r.last_block);
  p.rows += r.rows;
  p.per_row_bus += r.per_row_bus;
}

void BatchScheduler::CountPending(uint64_t first_block, uint64_t last_block, int delta) {
  for (uint64_t b = first_block; b <= last_block; ++b) {
    if (delta > 0) {
      ++pending_blocks_.FindOrInsert(b);
    } else if (uint32_t* count = pending_blocks_.Find(b); --*count == 0) {
      pending_blocks_.Erase(b);
    }
  }
}

bool BatchScheduler::PendingNear(Bytes begin, Bytes end, uint64_t first_block,
                                 uint64_t last_block, bool sub_block) const {
  // Compatible needs a pending SQE's blocks to meet [first_block - 1,
  // last_block + 1] (block mode), or its span to come within
  // coalesce_gap_bytes of [begin, end) (sub-block mode).
  uint64_t lo = first_block == 0 ? 0 : first_block - 1;
  uint64_t hi = last_block + 1;
  if (sub_block) {
    const Bytes reach = config_.coalesce_gap_bytes + 1;
    lo = std::min(lo, (begin > reach ? begin - reach : 0) / kBlockSize);
    hi = std::max(hi, (end + config_.coalesce_gap_bytes) / kBlockSize);
  }
  // Probing a window wider than the pending set costs more than the scan.
  if (hi - lo + 1 > pending_.size()) return true;
  for (uint64_t b = lo; b <= hi; ++b) {
    if (pending_blocks_.Find(b) != nullptr) return true;
  }
  return false;
}

bool BatchScheduler::WouldShare(Bytes span_begin, Bytes span_end, uint64_t first_block,
                                uint64_t last_block, bool sub_block) const {
  if (!config_.cross_request) return false;
  if (live_reads_.FindCovering(span_begin, span_end, sub_block) != nullptr) return true;
  if (!PendingNear(span_begin, span_end, first_block, last_block, sub_block)) return false;
  // Only full coverage counts as sharing here. A span-GROWING merge still
  // adds media occupancy (service time scales with bus bytes), so it must
  // queue for an outstanding-IO slot like any other device work — letting
  // growth skip the throttle snowballs pending SQEs into cap-sized reads
  // that serialize one device channel.
  // A covered lane SQE counts too: demand would promote and fully ride it.
  return std::any_of(pending_.begin(), pending_.end(), [&](const Read& p) {
    bool covered = false;
    return Compatible(p, span_begin, span_end, first_block, last_block, sub_block, &covered) &&
           covered;
  });
}

BatchScheduler::Admission BatchScheduler::Enqueue(ReadRequest req) {
  // PendingNear and the pending-block counts read a run's blocks for its span.
  assert(req.span_begin < req.span_end);
  assert(req.first_block == req.span_begin / kBlockSize);
  assert(req.last_block == (req.span_end - 1) / kBlockSize);
  if (!config_.cross_request) {
    // Bypass-mode parity: the ablation baselines gain no speculation side
    // channel, so the prefetch lane is inert without cross-request
    // batching (the Prefetcher is not even constructed then; a prefetch
    // enqueue here is a wiring bug, hence the debug assert).
    if (req.kind == Kind::kPrefetch) {
      assert(false && "prefetch lanes require cross_request batching");
      prefetch_dropped_->Add(1);
      return Admission::kDropped;
    }
    // Background runs are demand: without cross-request batching (a valid
    // owned-store ablation config) they degrade to the demand lane rather
    // than losing the read.
    req.kind = Kind::kDemand;
    enqueued_[Index(Kind::kDemand)]->Add(1);
    return Append(req, 0);
  }
  const Kind kind = req.kind;
  enqueued_[Index(kind)]->Add(1);

  // The buffer of a live read covers [base, base + size): whole blocks in
  // block mode, the DWORD-rounded span in sub-block mode. Any run inside
  // that window can be served by this read's completion.
  if (Read* read = live_reads_.FindCovering(req.span_begin, req.span_end, req.sub_block)) {
    // Demand catching up with speculation: the prefetch read proved useful
    // before it even completed.
    if (read->kind == Kind::kPrefetch && kind != Kind::kPrefetch) {
      promoted_[Index(Kind::kPrefetch)]->Add(1);
    }
    RecordJoin(req, read->tenant);
    read->subscribers.push_back(std::move(req.cb));
    return Admission::kJoinedInFlight;
  }

  // Pending SQEs, one section at a time, demand first. Foreground overlap
  // upgrades low-priority work: background-tenant SQEs (real demand) before
  // speculation. Background demand covered by a pending prefetch SQE
  // promotes it before growing an SQE of its own lane.
  static constexpr Kind kScanOrder[kNumKinds][kNumKinds] = {
      {Kind::kDemand, Kind::kBackground, Kind::kPrefetch},
      {Kind::kDemand, Kind::kPrefetch, Kind::kBackground},
      {Kind::kDemand, Kind::kBackground, Kind::kPrefetch}};
  // The prefilter skips only scans that would find no compatible SQE.
  if (PendingNear(req.span_begin, req.span_end, req.first_block, req.last_block,
                  req.sub_block)) {
    for (const Kind section : kScanOrder[Index(kind)]) {
      const size_t end = SectionEnd(section);
      for (size_t i = end - SectionSize(section); i < end; ++i) {
        bool covered = false;
        if (!Compatible(pending_[i], req.span_begin, req.span_end, req.first_block,
                        req.last_block, req.sub_block, &covered)) {
          continue;
        }
        // Growth is demand's right everywhere, a lane's only within the
        // lane: a lane run growing a demand SQE would inflate a foreground
        // read for low-priority bytes.
        if (!covered && section != kind && kind != Kind::kDemand) continue;
        return Join(req, i, section, covered);
      }
    }
  }
  if (kind == Kind::kDemand) return Append(req, 0);

  // Admission against the lane's byte budget — under pressure speculation
  // is dropped and background demand parks (FIFO), so neither can starve
  // foreground demand of ring slots or arena buffers.
  const Lane& lane = LaneOf(kind);
  const LanePolicy policy = Policy(kind);
  const Bytes bus = BusOf(req);
  if (lane.pending_bytes + lane.inflight_bytes + bus > policy.max_inflight_bytes ||
      SectionSize(kind) >= kMaxLaneSqes) {
    // Same escape hatch as DrainParked: a run larger than the whole budget
    // must still make progress when the lane is otherwise idle — parking it
    // would strand it forever (no completion ever calls DrainParked).
    const bool lane_idle =
        SectionSize(kind) == 0 && lane.inflight_bytes == 0 && lane.parked.empty();
    if (policy.droppable || !lane_idle) return Refuse(req);
  }
  return Append(req, bus);
}

BatchScheduler::Admission BatchScheduler::Append(ReadRequest& req, Bytes budget) {
  Read p;
  p.span_begin = req.span_begin;
  p.span_end = req.span_end;
  p.first_block = req.first_block;
  p.last_block = req.last_block;
  p.sub_block = req.sub_block;
  p.kind = req.kind;
  p.tenant = req.tenant;
  p.budget_bytes = budget;
  p.budget_kind = req.kind;
  p.rows = req.rows;
  p.per_row_bus = req.per_row_bus;
  p.service_local = req.service_local;
  if (config_.cross_request) {
    // Only cross-request batching brings riders, and only it reads the
    // prefilter.
    p.subscribers.reserve(kReservedSubscribers);
    CountPending(p.first_block, p.last_block, +1);
  }
  p.subscribers.push_back(std::move(req.cb));
  pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(SectionEnd(req.kind)),
                  std::move(p));
  ++section_size_[Index(req.kind)];
  if (req.kind == Kind::kDemand) {
    MaybeFlushOrArm();
  } else {
    // No flush rights: ride the next demand doorbell, or the lane's own
    // drain timer when no doorbell comes.
    LaneOf(req.kind).pending_bytes += budget;
    ArmLaneDrain(req.kind);
  }
  return Admission::kNewRead;
}

BatchScheduler::Admission BatchScheduler::Refuse(ReadRequest& req) {
  if (Policy(req.kind).droppable) {
    prefetch_dropped_->Add(1);
    if (obs_pf_dropped_ != nullptr) obs_pf_dropped_->Add(loop_->Now());
    return Admission::kDropped;
  }
  background_parked_->Add(1);
  if (obs_bg_parked_ != nullptr) obs_bg_parked_->Add(loop_->Now());
  LaneOf(req.kind).parked.push_back(std::move(req));
  return Admission::kNewRead;
}

bool BatchScheduler::Compatible(const Read& p, Bytes begin, Bytes end,
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

BatchScheduler::Admission BatchScheduler::Join(ReadRequest& req, size_t i, Kind section,
                                               bool covered) {
  const Kind kind = req.kind;
  const bool promote = section > kind;
  Admission admission = covered ? Admission::kJoinedPending : Admission::kMergedPending;
  if (promote) {
    // Promotion: the lower-priority SQE moves to the end of the run's own
    // section (its priority, its flush triggers) instead of the run issuing
    // a second read for overlapping bytes.
    promoted_[Index(section)]->Add(1);
    const size_t to = SectionEnd(kind);
    std::rotate(pending_.begin() + static_cast<std::ptrdiff_t>(to),
                pending_.begin() + static_cast<std::ptrdiff_t>(i),
                pending_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    --section_size_[Index(section)];
    ++section_size_[Index(kind)];
    i = to;
    pending_[i].kind = kind;
  }
  Read& p = pending_[i];
  if (promote && kind == Kind::kBackground) {
    // Background demand must not wait out the unhurried prefetch drain
    // timer: the budget charge moves with the SQE into the background lane
    // (demand is never dropped, so the transfer may transiently exceed the
    // background budget), and the lane's own timer now bounds it.
    LaneOf(p.budget_kind).pending_bytes -= p.budget_bytes;
    LaneOf(kind).pending_bytes += p.budget_bytes;
    p.budget_kind = kind;
  } else if (promote && !covered) {
    // Admission-domain handoff: a span-growing promotion is re-admitted
    // under the demand run's throttle slot — it returns kNewRead so the
    // caller keeps that slot — and its budget bytes are released. A covered
    // promotion stays charged to the lane byte budget (the demand run
    // arrived slot-free via WouldShare and there is no other holder).
    LaneOf(section).pending_bytes -= p.budget_bytes;
    p.budget_bytes = 0;
    p.budget_kind = Kind::kDemand;
    admission = Admission::kNewRead;
  } else if (kind != Kind::kDemand && !covered) {
    // Growth within a lane is charged to its byte budget up front — an
    // over-budget merge drops (prefetch) or parks (background) like an
    // over-budget new SQE would.
    const Bytes begin = std::min(p.span_begin, req.span_begin);
    const Bytes end = std::max(p.span_end, req.span_end);
    const Bytes delta = NvmeDevice::BusBytes(begin, end - begin, p.sub_block) - BusOf(p);
    Lane& lane = LaneOf(kind);
    if (lane.pending_bytes + lane.inflight_bytes + delta > Policy(kind).max_inflight_bytes) {
      return Refuse(req);
    }
    p.budget_bytes += delta;
    lane.pending_bytes += delta;
  }
  // A demand run widens the SQE even when covered; a lane run only when it
  // grows an SQE of its own lane.
  if (kind == Kind::kDemand || !covered) Widen(p, req);
  if (covered) {
    RecordJoin(req, p.tenant);
  } else if (kind == Kind::kDemand) {
    cross_request_merges_->Add(1);
    if (obs_merges_ != nullptr) obs_merges_->Add(loop_->Now());
  }
  p.service_local = p.service_local && req.service_local;
  p.subscribers.push_back(std::move(req.cb));
  if (kind != Kind::kDemand) {
    if (promote) ArmLaneDrain(kind);
  } else if (promote || !covered) {
    FuseOverlappingPending(i);
    if (promote) MaybeFlushOrArm();
  }
  return admission;
}

void BatchScheduler::FuseOverlappingPending(size_t i) {
  // A merge can bridge two previously-independent pending reads (e.g. a
  // run landing between blocks [0] and [2] grows the first SQE to [0,1]
  // while [2,2] still sits in the batch). Fuse everything the grown read
  // now covers or abuts; each fusion can grow it further, so rescan until
  // a pass makes no change.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t j = 0; j < SectionSize(Kind::kDemand); ++j) {
      if (j == i) continue;
      Read& p = pending_[i];
      Read& q = pending_[j];
      bool covered = false;
      if (!Compatible(p, q.span_begin, q.span_end, q.first_block, q.last_block,
                      q.sub_block, &covered)) {
        continue;
      }
      Widen(p, q);
      if (q.budget_bytes > 0) {
        if (p.budget_bytes == 0 || p.budget_kind == q.budget_kind) {
          // Budget carries over to the fused read.
          p.budget_bytes += q.budget_bytes;
          p.budget_kind = q.budget_kind;
        } else {
          // Fusing two promoted SQEs whose budgets came from different
          // lanes: release q's charge — the fused read is admitted by p's
          // domain (its slot or budget) alone.
          LaneOf(q.budget_kind).pending_bytes -= q.budget_bytes;
        }
      }
      p.service_local = p.service_local && q.service_local;
      for (Completion& cb : q.subscribers) p.subscribers.push_back(std::move(cb));
      CountPending(q.first_block, q.last_block, -1);
      cross_request_merges_->Add(1);
      if (obs_merges_ != nullptr) obs_merges_->Add(loop_->Now());
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(j));
      --section_size_[Index(Kind::kDemand)];
      if (j < i) --i;
      changed = true;
      break;  // indices shifted; rescan
    }
  }
}

void BatchScheduler::MaybeFlushOrArm() {
  if (static_cast<int>(SectionSize(Kind::kDemand)) >= config_.max_batch_sqes) {
    flush_size_->Add(1);
    Flush();
    return;
  }
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

void BatchScheduler::ArmLaneDrain(Kind lane_kind) {
  Lane& lane = LaneOf(lane_kind);
  const LanePolicy policy = Policy(lane_kind);
  // Prefetch: a demand flush already due will carry the lane.
  if (lane.drain_armed || (!policy.drains_despite_demand && flush_armed_)) return;
  lane.drain_armed = true;
  const uint64_t generation = flush_generation_;
  loop_->ScheduleAfter(policy.drain_delay, [this, lane_kind, generation] {
    LaneOf(lane_kind).drain_armed = false;
    if (SectionSize(lane_kind) == 0) return;
    if (Policy(lane_kind).drains_despite_demand) {
      // Background: the timer fires even while foreground keeps the
      // doorbell busy — this is the lane's starvation bound. Ringing early
      // flushes the demand batch too, which only helps demand. A doorbell
      // too full for the whole lane re-arms this timer from Flush.
      flush_background_->Add(1);
      Flush();
      return;
    }
    // Demand arrived meanwhile: its own flush (armed or size-triggered)
    // drains the lane; a prefetch timer must never ring the doorbell early
    // for demand SQEs.
    if (SectionSize(Kind::kDemand) > 0) return;
    if (generation != flush_generation_) {
      // A flush rang since arming and still left lane entries (doorbell
      // was full); wait out another window.
      ArmLaneDrain(lane_kind);
      return;
    }
    flush_prefetch_->Add(1);
    Flush();
  });
}

void BatchScheduler::DrainParked(Kind lane_kind) {
  Lane& lane = LaneOf(lane_kind);
  const LanePolicy policy = Policy(lane_kind);
  while (!lane.parked.empty()) {
    ReadRequest& req = lane.parked.front();
    const Bytes bus = BusOf(req);
    // Admit when the budget fits — or unconditionally when the lane is
    // otherwise idle, so a run larger than the whole budget still makes
    // progress instead of parking forever.
    const bool fits =
        lane.pending_bytes + lane.inflight_bytes + bus <= policy.max_inflight_bytes;
    const bool lane_idle = SectionSize(lane_kind) == 0 && lane.inflight_bytes == 0;
    if ((!fits && !lane_idle) || SectionSize(lane_kind) >= kMaxLaneSqes) return;
    ReadRequest run = std::move(req);
    lane.parked.pop_front();
    // Parked runs re-enter as their own SQE (no join rescan): the caller
    // already accounted them as a new device read when they parked.
    (void)Append(run, bus);
  }
}

void BatchScheduler::Flush() {
  ++flush_generation_;
  flush_armed_ = false;

  // The batch is a prefix of the pending set: every demand SQE, then the
  // low-priority sections fill whatever doorbell room demand left —
  // background (real demand) before prefetch (speculation).
  const size_t demand = SectionSize(Kind::kDemand);
  const size_t n = std::max(
      demand, std::min(pending_.size(), static_cast<size_t>(config_.max_batch_sqes)));
  const size_t background = std::min(SectionSize(Kind::kBackground), n - demand);
  section_size_[Index(Kind::kDemand)] = 0;
  section_size_[Index(Kind::kBackground)] -= background;
  section_size_[Index(Kind::kPrefetch)] -= n - demand - background;
  if (n == 0) return;
  flushes_->Add(1);

  std::vector<IoEngine::ReadOp> ops;
  ops.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    if (config_.cross_request) {
      CountPending(pending_[j].first_block, pending_[j].last_block, -1);
    }
    auto read = std::make_shared<Read>(std::move(pending_[j]));
    const Read& p = *read;
    // The device lands data at its alignment base: the first byte of the
    // first block (block mode) or the DWORD floor of the span (sub-block).
    read->base = p.sub_block ? (p.span_begin & ~(kDwordBytes - 1))
                             : p.first_block * kBlockSize;
    const Bytes length = p.span_end - p.span_begin;
    const Bytes bus = NvmeDevice::BusBytes(p.span_begin, length, p.sub_block);
    // Budget bytes (possibly carried by a promoted/fused SQE) move from
    // pending to in-flight and are released at completion.
    if (p.budget_bytes > 0) {
      Lane& budget_lane = LaneOf(p.budget_kind);
      budget_lane.pending_bytes -= p.budget_bytes;
      budget_lane.inflight_bytes += p.budget_bytes;
    }
    read->buf = arena_->Acquire(bus);
    read->window_end = read->base + read->buf->size();
    read->issued_at = loop_->Now();
    live_reads_.Insert(read, read->base, read->window_end, read->sub_block);
    ArmReadResponses(read);
    reads_[Index(p.kind)]->Add(1);
    TenantIoShare& share = Share(p.tenant);
    if (p.kind == Kind::kPrefetch) {
      share.prefetch_bytes += bus;
    } else if (p.kind == Kind::kBackground) {
      share.background_reads += 1;
      share.background_bytes += bus;
    } else {
      share.demand_reads += 1;
      share.demand_bytes += bus;
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
  // Cut the batch out of the pending set before the doorbell: completion
  // callbacks may re-enter Enqueue (retries) and must see only what stays
  // pending.
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(n));
  engine_->SubmitBatch(ops);
  if (obs_sqes_ != nullptr) obs_sqes_->Add(loop_->Now(), n);
  if (obs_inflight_ != nullptr) {
    obs_inflight_->Set(loop_->Now(), static_cast<double>(live_reads_.size()));
  }

  // Lane overflow (doorbell was full): drain on the lanes' own timers.
  for (const Kind lane : {Kind::kBackground, Kind::kPrefetch}) {
    if (SectionSize(lane) > 0) ArmLaneDrain(lane);
  }
}

void BatchScheduler::ArmReadResponses(const std::shared_ptr<Read>& read) {
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

void BatchScheduler::SettleRead(const std::shared_ptr<Read>& read,
                                const Status& status, const uint8_t* data, bool replica_win) {
  // Unregister before delivering: a subscriber may re-enqueue (retry) and
  // must not join a read that has already settled. Every subscriber — N
  // cross-request waiters joined by single-flight included — hears the
  // outcome exactly once; later completions of the same physical read find
  // the read no longer live and only release buffers.
  read->live = false;
  live_reads_.Erase(read.get(), read->base, read->window_end);
  if (read->budget_bytes > 0) {
    LaneOf(read->budget_kind).inflight_bytes -= read->budget_bytes;
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
  if (status.ok() && read->kind == Kind::kDemand && !replica_win) {
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
  DrainParked(Kind::kBackground);
}

void BatchScheduler::CompleteRead(const std::shared_ptr<Read>& read,
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

void BatchScheduler::ExpireRead(const std::shared_ptr<Read>& read) {
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

void BatchScheduler::MaybeHedge(const std::shared_ptr<Read>& read) {
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

void BatchScheduler::CompleteHedge(const std::shared_ptr<Read>& read,
                                   Status status) {
  // The original won (or the deadline fired). A failed hedge must not fail
  // the read: the original is still in flight and keeps its own
  // deadline/retry story.
  if (!read->live || !status.ok()) {
    read->hedge_buf.reset();
    return;
  }
  hedges_won_->Add(1);
  if (read->hedge_on_replica) replica_hedge_wins_->Add(1);
  SettleRead(read, status, read->hedge_buf->data(), read->hedge_on_replica);
  read->hedge_buf.reset();
  // read->buf stays held for the original's late completion (see
  // CompleteRead's settled-read path).
}

}  // namespace sdm
