// LookupEngine's Fetch stage: routing, throttle admission, the scheduler
// hand-off, and the run completions that scatter rows, retry, back off and
// read-repair. Resolve and Pool live in lookup_engine.cpp.
#include "core/lookup_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace sdm {

namespace {

/// Transient-error re-reads of one run before it fails (or is repaired);
/// NVMe drivers retry media errors similarly.
constexpr int kReadRetries = 1;

}  // namespace

void LookupEngine::StartIoPhase(RequestState* st) {
  st->io_phase_started = true;
  const TableRuntime& table = store_->table(st->request.table);
  SharedDeviceService& svc = store_->device_service();

  // Demand heat for the replication manager's ranking: one bump per lookup
  // that reaches the IO phase on this table's extent (no-op for id 0).
  svc.RecordExtentDemand(table.extent_id);

  // Route. Health-monitor shed: while this table's SM endpoint is sick, only
  // every Nth lookup probes the device; the rest fail over to the extent's
  // replica when the self-healing layer has placed one, and otherwise
  // complete immediately with their IO rows failed (degraded mode) instead
  // of queueing onto a failing device or fabric. On a disaggregated host —
  // whose SM lives entirely behind the fabric — this IS the failover:
  // replica, FM-resident rows, and caches still serve. Inert unless
  // tuning.enable_health_monitor.
  size_t device = table.sm_device;
  int64_t shift = 0;
  if (svc.health().Sick(device) && !svc.health().AdmitProbe(device)) {
    const auto route = svc.FindReplicaRoute(table.extent_id, device);
    if (!route.has_value()) {
      shed_lookups_->Add(1);
      if (obs_shed_ != nullptr) obs_shed_->Add(loop_->Now());
      FinishRequest(st);  // the IO rows keep no source: they pool as failed
      return;
    }
    device = route->device;
    shift = route->shift;
  }

  // Planning is pure (dedup happened at Resolve; block grouping and
  // adjacent-run merging live in the planner); batching across concurrent
  // requests is the scheduler's job.
  const PlannerConfig pcfg = store_->planner_config(table, device);
  misses_.clear();
  for (uint32_t i = 0; i < st->slots.size(); ++i) {
    const auto& slot = st->slots[i];
    if (slot.source != RequestState::Slot::Source::kNone || slot.dup_of >= 0) continue;
    misses_.push_back(IoPlanner::Miss{i, table.offset + slot.physical_row * pcfg.row_bytes});
  }
  IoPlanner::Plan(misses_, pcfg, &planned_);
  for (const IoPlanner::Miss& m : misses_) st->run_slots.push_back(m.slot);

  st->outstanding_ios = static_cast<int>(planned_.size());
  for (const PlannedRun& planned : planned_) {
    RunContext* run = runs_.Acquire();
    run->st = st;
    run->run = planned;
    run->device = device;
    run->shift = shift;
    run->sub_block = pcfg.sub_block;
    const Bytes bus =
        NvmeDevice::BusBytes(planned.span_begin, planned.span_end - planned.span_begin,
                             pcfg.sub_block);
    run->bytes_saved = planned.per_row_bus > bus ? planned.per_row_bus - bus : 0;
    run->insert_blocks = store_->block_cache() != nullptr && table.cache_enabled;
    run->attempts_left = kReadRetries;
    SubmitRun(run);
  }

  // Demand runs are enqueued (holding whatever batch is forming); now let
  // the prefetcher speculate into the scheduler's low-priority lane, where
  // its reads share this request's doorbell but never force one.
  if (Prefetcher* pf = store_->prefetcher(); pf != nullptr) {
    pf->MaybeIssue(st->request.table);
  }
}

void LookupEngine::SubmitRun(RunContext* run) {
  // Scheduler-aware throttle admission: the per-table budget (§4.1) counts
  // device reads *after* merging. A first attempt the scheduler will join
  // or merge adds no device read, so it enqueues immediately without a slot
  // — queueing it would let the read it shares retire first and force a
  // duplicate read. Runs that need their own SQE, and every re-drive, go
  // through Acquire (and if merging happens by dispatch time anyway,
  // EnqueueRun releases the slot on the spot). In the bypass modes nothing
  // is shared, so every run takes a slot, and the scheduler's delay-0 flush
  // timer rings one doorbell per virtual instant.
  const BatchScheduler::ReadRequest r = ReadForRun(run->run, run->sub_block, run->shift);
  if (run->first_attempt && store_->scheduler(run->device)
                                .WouldShare(r.span_begin, r.span_end, r.first_block,
                                            r.last_block, r.sub_block)) {
    EnqueueRun(run, /*acquired_slot=*/false);
    return;
  }
  store_->AcquireIoSlot(run->st->request.table,
                        Inline([this, run] { EnqueueRun(run, /*acquired_slot=*/true); }));
}

void LookupEngine::EnqueueRun(RunContext* run, bool acquired_slot) {
  RequestState* st = run->st;
  const bool first_attempt = run->first_attempt;
  run->first_attempt = false;
  // QoS lane + fair-share identity: a background-class tenant's demand
  // rides the scheduler's byte-budgeted background lane (src/tenant).
  // Coalescing counters count only on the first attempt; a retry is the
  // same logical read.
  BatchScheduler::ReadRequest req = ReadForRun(run->run, run->sub_block, run->shift);
  req.kind = store_->demand_kind();
  req.tenant = store_->tenant_id();
  if (!first_attempt) {
    req.rows = 0;
    req.per_row_bus = 0;
  }
  req.cb = Inline([this, run](Status status, const uint8_t* data, Bytes base) {
    CompleteRun(run, status, data, base);
  });

  const BatchScheduler::Admission admission =
      store_->scheduler(run->device).Enqueue(std::move(req));
  assert(admission != BatchScheduler::Admission::kDropped);  // demand is never dropped

  // Only the SQE's owner holds a throttle slot for the read (SubmitRun).
  const bool shared = admission != BatchScheduler::Admission::kNewRead;
  assert(acquired_slot || shared);  // the WouldShare probe is exact in-turn
  run->holds_slot = acquired_slot && !shared;
  if (acquired_slot && shared) store_->ReleaseIoSlot(st->request.table);

  if (!first_attempt) return;
  if (admission == BatchScheduler::Admission::kJoinedPending ||
      admission == BatchScheduler::Admission::kJoinedInFlight) {
    // Another request's read carries these rows: no IO of our own, every
    // per-row bus byte saved — and the read's owner fills the block layer.
    run->insert_blocks = false;
    ++st->trace.singleflight_hits;
    singleflight_hits_->Add(1);
    st->trace.io_bytes_saved += run->run.per_row_bus;
    io_bytes_saved_->Add(run->run.per_row_bus);
  } else {
    ++st->trace.device_reads;
    device_reads_->Add(1);
    st->trace.io_bytes_saved += run->bytes_saved;
    io_bytes_saved_->Add(run->bytes_saved);
  }
  if (run->device != store_->table(st->request.table).sm_device) {
    ++st->trace.replica_reads;
    replica_reads_->Add(1);
  }
}

std::optional<SharedDeviceService::ReplicaRoute> LookupEngine::RepairRoute(
    TableId table_id, size_t failed_device) {
  const TableRuntime& table = store_->table(table_id);
  SharedDeviceService& svc = store_->device_service();
  const size_t primary = table.sm_device;
  if (failed_device == primary) return svc.FindReplicaRoute(table.extent_id, primary);
  if (!svc.health().Sick(primary)) return SharedDeviceService::ReplicaRoute{primary, 0};
  return std::nullopt;
}

void LookupEngine::CompleteRun(RunContext* run, const Status& status, const uint8_t* data,
                               Bytes base) {
  RequestState* st = run->st;
  if (run->holds_slot) store_->ReleaseIoSlot(st->request.table);
  store_->device_service().health().Record(run->device, status.ok());
  if (!status.ok()) {
    // Transient (device-side) errors are retried after an exponential
    // backoff; invalid requests surface immediately.
    if (IsTransientError(status.code()) && run->attempts_left > 0) {
      io_retries_->Add(1);
      const int attempt_index = kReadRetries - run->attempts_left--;
      const SimDuration backoff = SimDuration(
          store_->tuning().retry_backoff_base.nanos() << std::min(attempt_index, 30));
      auto redrive = Inline([this, run] { SubmitRun(run); });
      if (backoff > SimDuration(0)) {
        loop_->ScheduleAfter(backoff, redrive);
      } else {
        redrive();
      }
      return;
    }
    // Read-repair: one re-drive of the terminally-failed run against the
    // extent's replica (or back to a recovered primary when the replica
    // was the one failing). The run's rows would otherwise pool as zeros
    // — bit rot and exhausted retries both land here.
    if (!run->repairing) {
      if (const auto route = RepairRoute(st->request.table, run->device)) {
        run->repairing = true;
        run->device = route->device;
        run->shift = route->shift;
        run->attempts_left = kReadRetries;
        SubmitRun(run);
        return;
      }
    }
    // One failed device read fails every row it carried: they keep no
    // source, and only io_errors is charged here.
    io_errors_->Add(1);
  } else {
    if (run->repairing) {
      read_repairs_->Add(1);
      ++st->trace.read_repairs;
    }
    const TableRuntime& t = store_->table(st->request.table);
    DualRowCache* cache = store_->row_cache();
    const bool fill_rows = cache != nullptr && t.cache_enabled;
    // `base` is in the serving device's space; row offsets are primary-
    // space, so the scatter applies the run's shift.
    const Bytes rb = st->stored_row_bytes;
    for (uint32_t k = run->run.first_miss; k < run->run.end_miss; ++k) {
      const uint32_t i = st->run_slots[k];
      auto& slot = st->slots[i];
      const Bytes off = t.offset + slot.physical_row * rb;
      const std::span<uint8_t> dest(st->row_bytes.data() + i * rb, rb);
      std::memcpy(dest.data(),
                  data + (static_cast<int64_t>(off) + run->shift - static_cast<int64_t>(base)),
                  rb);
      slot.source = RequestState::Slot::Source::kSm;
      if (fill_rows) {
        cache->Insert(RowKey{st->request.table, slot.physical_row}, dest);
        st->cpu_post += cache->RouteCpuCost(st->request.table);
      }
    }
    st->cpu_post += CopyCost(run->run.rows() * rb);
    if (run->insert_blocks) {
      // The shared buffer holds whole blocks: fill the block layer with
      // this run's slice of them (joiners skip this; the owner inserts).
      st->cpu_post += CopyCost(FillBlockCache(
          *store_->block_cache(), static_cast<uint32_t>(t.sm_device), run->run.first_block,
          run->run.last_block, data, base, run->shift));
    }
  }
  // The run is done: its completion will not run again.
  *run = RunContext{};
  runs_.Release(run);
  if (--st->outstanding_ios == 0) FinishRequest(st);
}

}  // namespace sdm
