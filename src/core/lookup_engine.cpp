#include "core/lookup_engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

namespace sdm {

namespace {

/// CPU cost of translating one index through the mapping tensor.
constexpr SimDuration kMapCostPerIndex = Nanos(4);

/// CPU cost of the intra-request dedup hash probe per index (skipped by the
/// kPerRow ablation, which does not dedup).
constexpr SimDuration kDedupCostPerIndex = Nanos(3);

/// Transient-error re-reads of one run before it fails (or is repaired);
/// NVMe drivers retry media errors similarly.
constexpr int kReadRetries = 1;

/// Modeled memcpy throughput of scattering rows out of read buffers.
constexpr double kMemcpyBytesPerSec = 12e9;

}  // namespace

struct LookupEngine::RequestState {
  LookupRequest request;
  LookupCallback cb;
  SimTime start;

  // Rows resolved in the mapped (physical) space; kept per requested index
  // so pooling skips pruned slots.
  struct Slot {
    enum class Source : uint8_t { kNone, kFmDirect, kCache, kBlockCache, kSm };

    RowIndex physical_row = 0;
    bool pruned = false;
    bool needs_io = false;
    /// >= 0: this slot repeats slots[dup_of]'s physical row; its bytes are
    /// fanned out from that slot once every fetch has landed.
    int32_t dup_of = -1;
    Source source = Source::kNone;
  };
  std::vector<Slot> slots;
  std::vector<uint8_t> row_bytes;  // slots.size() * row_bytes contiguous
  Bytes stored_row_bytes = 0;

  SimDuration cpu_pre;   // before/at IO issue
  SimDuration cpu_post;  // after last IO
  int outstanding_ios = 0;
  bool io_phase_started = false;
  bool io_failed = false;  // some row's IO was shed or exhausted retries
  LookupTrace trace;

  /// Device this request's SM IOs go to — the table's primary unless the
  /// health monitor shed us onto a replica (self-healing failover).
  size_t io_device = 0;
  /// Primary-space -> io_device-space offset delta (0 on the primary;
  /// always a multiple of kBlockSize on a replica).
  int64_t io_shift = 0;
};

/// One planned run plus the submission context this engine needs when its
/// (possibly shared, possibly retried) device read completes.
struct LookupEngine::RunContext {
  PlannedRun run;
  bool sgl = false;
  /// Bus bytes this run saves as its own SQE versus per-row reads —
  /// request-level accounting; the scheduler recomputes SQE-level numbers
  /// after cross-request merging.
  Bytes bytes_saved = 0;
  /// Whether this run fills the block cache with its blocks: set in
  /// block-cache mode, cleared for single-flight joiners, which ride a read
  /// whose owner already inserts those blocks (a second insert would only
  /// duplicate the copy cost and LRU churn).
  bool insert_blocks = false;
  /// Scheduler-aware throttling: only runs that became their own SQE
  /// (Admission::kNewRead) keep holding a throttle slot until completion —
  /// admission budgets *device reads after merging*. Shared runs release
  /// their slot at enqueue and this stays false.
  bool holds_slot = true;
  /// Device this run reads from and its primary-space shift (inherited
  /// from the request's routing; read-repair may re-point a single run).
  size_t device = 0;
  int64_t shift = 0;
  /// Set when this run is being re-driven against a replica after its
  /// terminal failure (one repair attempt per run).
  bool repairing = false;
};

LookupEngine::LookupEngine(SdmStore* store) : store_(store), loop_(store->loop()) {
  assert(store->loading_finished() && "SdmStore must be sealed before lookups");
  lookups_ = stats_.GetCounter("lookups");
  pooled_hits_ = stats_.GetCounter("pooled_hits");
  rows_cache_hit_ = stats_.GetCounter("rows_cache_hit");
  rows_block_hit_ = stats_.GetCounter("rows_block_hit");
  rows_sm_read_ = stats_.GetCounter("rows_sm_read");
  rows_fm_read_ = stats_.GetCounter("rows_fm_read");
  rows_pruned_ = stats_.GetCounter("rows_pruned");
  rows_deduped_ = stats_.GetCounter("rows_deduped");
  prefetch_hits_ = stats_.GetCounter("prefetch_hits");
  device_reads_ = stats_.GetCounter("device_reads");
  singleflight_hits_ = stats_.GetCounter("singleflight_hits");
  io_bytes_saved_ = stats_.GetCounter("io_bytes_saved");
  cpu_ns_ = stats_.GetCounter("cpu_ns");
  io_errors_ = stats_.GetCounter("io_errors");
  io_retries_ = stats_.GetCounter("io_retries");
  rows_failed_ = stats_.GetCounter("rows_failed");
  degraded_lookups_ = stats_.GetCounter("degraded_lookups");
  shed_lookups_ = stats_.GetCounter("shed_lookups");
  replica_reads_ = stats_.GetCounter("replica_reads");
  read_repairs_ = stats_.GetCounter("read_repairs");
  Observability* obs = store->obs();
  const std::string& prefix = store->obs_prefix();
  obs_lookups_ = ObsCounter(obs, prefix + "lookup/requests");
  obs_cache_rows_ = ObsCounter(obs, prefix + "lookup/cache_rows");
  obs_sm_rows_ = ObsCounter(obs, prefix + "lookup/sm_rows");
  obs_degraded_ = ObsCounter(obs, prefix + "lookup/degraded");
  obs_shed_ = ObsCounter(obs, prefix + "lookup/shed");
  obs_lat_ = ObsHist(obs, prefix + "lookup/latency_ns");
  obs_spans_ = ObsSpans(obs);
  if (obs_spans_ != nullptr) {
    std::string process = prefix;
    if (!process.empty() && process.back() == '/') process.pop_back();
    if (process.empty()) process = "host";
    obs_track_ = obs_spans_->Track(process, "lookup");
  }
}

void LookupEngine::Complete(RequestState& st, std::vector<float> pooled) {
  const SimTime now = loop_->Now();
  st.trace.latency = now - st.start;
  latency_.Record(st.trace.latency);
  if (obs_lookups_ != nullptr) {
    obs_lookups_->Add(now);
    obs_cache_rows_->Add(now, st.trace.rows_from_cache);
    obs_sm_rows_->Add(now, st.trace.rows_from_sm);
    if (st.trace.degraded) obs_degraded_->Add(now);
    obs_lat_->Record(now, st.trace.latency);
  }
  if (obs_spans_ != nullptr && st.request.traced) {
    // One stack-formatted arg blob; string temporaries per traced lookup
    // would dominate the recording cost.
    char args[96];
    std::snprintf(args, sizeof(args),
                  "{\"rows\":%zu,\"sm_rows\":%zu,\"device_reads\":%zu}",
                  static_cast<size_t>(st.trace.rows_requested),
                  static_cast<size_t>(st.trace.rows_from_sm),
                  static_cast<size_t>(st.trace.device_reads));
    obs_spans_->Span(obs_track_, "lookup", st.start, now, args);
  }
  st.cb(Status::Ok(), std::move(pooled), st.trace);
}

SimDuration LookupEngine::CopyCost(Bytes bytes) {
  return Seconds(static_cast<double>(bytes) / kMemcpyBytesPerSec);
}

void LookupEngine::BagDedup::Reset(size_t rows) {
  size_t size = 64;
  int shift = 58;
  while (size < 2 * rows) {
    size *= 2;
    --shift;
  }
  if (size > table_.size()) {
    table_.assign(size, Entry{});
    shift_ = shift;
    stamp_ = 0;
  }
  if (++stamp_ == 0) {  // wrapped: stale stamps would alias new ones
    std::fill(table_.begin(), table_.end(), Entry{});
    stamp_ = 1;
  }
}

uint32_t LookupEngine::BagDedup::FirstSlot(RowIndex row, uint32_t slot) {
  const size_t mask = table_.size() - 1;
  for (size_t i = (row * 0x9e3779b97f4a7c15ULL) >> shift_;; i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (e.stamp != stamp_) {
      e = Entry{row, slot, stamp_};
      return slot;
    }
    if (e.row == row) return e.slot;
  }
}

void LookupEngine::Lookup(LookupRequest request, LookupCallback cb) {
  lookups_->Add(1);
  auto st = std::make_shared<RequestState>();
  st->request = std::move(request);
  st->cb = std::move(cb);
  st->start = loop_->Now();
  st->trace.rows_requested = static_cast<uint32_t>(st->request.indices.size());

  const TableRuntime& table = store_->table(st->request.table);
  st->stored_row_bytes = table.config.row_bytes();

  // ---- Pooled-embedding cache probe (Algorithm 1 head) ----
  PooledEmbeddingCache* pooled = store_->pooled_cache();
  if (pooled != nullptr) {
    st->cpu_pre += pooled->LookupCpuCost(st->request.indices.size());
    const std::vector<float>* hit = pooled->Lookup(st->request.table, st->request.indices);
    if (hit != nullptr) {
      pooled_hits_->Add(1);
      st->trace.pooled_cache_hit = true;
      cpu_ns_->Add(static_cast<uint64_t>(st->cpu_pre.nanos()));
      st->trace.cpu_time = st->cpu_pre;
      // One copy, constructed straight into the callback's output slot
      // (the entry may be evicted before the callback runs).
      loop_->ScheduleAfter(st->cpu_pre,
                           [this, st, out = std::vector<float>(*hit)]() mutable {
                             Complete(*st, std::move(out));
                           });
      return;
    }
  }

  // ---- Index mapping (pruned tables served with an FM mapping tensor) ----
  st->slots.resize(st->request.indices.size());
  for (size_t i = 0; i < st->request.indices.size(); ++i) {
    const RowIndex idx = st->request.indices[i];
    auto& slot = st->slots[i];
    if (table.mapping.has_value()) {
      st->cpu_pre += kMapCostPerIndex;
      const auto mapped = table.mapping->Lookup(idx);
      if (!mapped.has_value()) {
        slot.pruned = true;
        rows_pruned_->Add(1);
        ++st->trace.rows_pruned_skipped;
        continue;
      }
      slot.physical_row = *mapped;
    } else {
      if (idx >= table.config.num_rows) {
        // Out-of-domain index: treat as missing row (contributes zero),
        // matching EmbeddingBag-with-pruning semantics rather than failing
        // the whole query.
        slot.pruned = true;
        rows_pruned_->Add(1);
        ++st->trace.rows_pruned_skipped;
        continue;
      }
      slot.physical_row = idx;
    }
  }

  st->row_bytes.assign(st->slots.size() * st->stored_row_bytes, 0);

  // ---- Row resolution: dedup / FM direct / row cache / SM IO ----
  const bool dedup = store_->tuning().io_batching != IoBatching::kPerRow;
  if (dedup) dedup_.Reset(st->slots.size());
  DualRowCache* cache = store_->row_cache();
  int misses = 0;
  for (size_t i = 0; i < st->slots.size(); ++i) {
    auto& slot = st->slots[i];
    if (slot.pruned) continue;

    if (dedup) {
      // Duplicate indices within the bag resolve once; the other slots fan
      // out from that fetch (whatever source it comes from).
      st->cpu_pre += kDedupCostPerIndex;
      const uint32_t first = dedup_.FirstSlot(slot.physical_row, static_cast<uint32_t>(i));
      if (first != i) {
        slot.dup_of = static_cast<int32_t>(first);
        ++st->trace.rows_deduped;
        rows_deduped_->Add(1);
        continue;
      }
    }

    std::span<uint8_t> dest(st->row_bytes.data() + i * st->stored_row_bytes,
                            st->stored_row_bytes);

    if (table.tier == MemoryTier::kFm) {
      const Bytes off = table.offset + slot.physical_row * st->stored_row_bytes;
      auto read = store_->fm().Read(off, dest);
      assert(read.ok());
      st->cpu_pre += read.value();
      rows_fm_read_->Add(1);
      ++st->trace.rows_from_fm_direct;
      slot.source = RequestState::Slot::Source::kFmDirect;
      continue;
    }

    // SM tier: probe the cache first when this table uses it.
    if (cache != nullptr && table.cache_enabled) {
      st->cpu_pre += cache->RouteCpuCost(st->request.table);
      size_t len = 0;
      if (cache->Lookup(RowKey{st->request.table, slot.physical_row}, dest, &len)) {
        assert(len == st->stored_row_bytes);
        rows_cache_hit_->Add(1);
        ++st->trace.rows_from_cache;
        slot.source = RequestState::Slot::Source::kCache;
        // Credit the prefetcher when it put this row here (first demand
        // touch claims it; the row then counts as an ordinary cache line).
        if (Prefetcher* pf = store_->prefetcher();
            pf != nullptr && pf->ClaimHit(st->request.table, slot.physical_row)) {
          prefetch_hits_->Add(1);
          ++st->trace.rows_prefetch_hit;
        }
        continue;
      }
      // Second level (multi-level ablation): a block hit avoids device IO
      // but pays a probe + copy, and fills the row cache.
      BlockCache* blocks = store_->block_cache();
      if (blocks != nullptr) {
        // A row straddling a block boundary is served only when every block
        // it touches is resident: each next block is probed (and paid for)
        // only after the previous one hit, and each hit copies its slice.
        const Bytes off = table.offset + slot.physical_row * st->stored_row_bytes;
        const auto device = static_cast<uint32_t>(table.sm_device);
        bool hit = true;
        for (Bytes done = 0; hit && done < dest.size();) {
          const Bytes at = off + done;
          const Bytes len = std::min(dest.size() - done, kBlockSize - at % kBlockSize);
          st->cpu_pre += blocks->LookupCpuCost();
          hit = blocks->ReadRange(BlockCache::BlockKey{device, at / kBlockSize},
                                  at % kBlockSize, dest.subspan(done, len));
          done += len;
        }
        if (hit) {
          rows_block_hit_->Add(1);
          ++st->trace.rows_from_block_cache;
          slot.source = RequestState::Slot::Source::kBlockCache;
          if (Prefetcher* pf = store_->prefetcher();
              pf != nullptr && pf->ClaimHit(st->request.table, slot.physical_row)) {
            prefetch_hits_->Add(1);
            ++st->trace.rows_prefetch_hit;
          }
          cache->Insert(RowKey{st->request.table, slot.physical_row}, dest);
          st->cpu_pre += cache->RouteCpuCost(st->request.table);
          continue;
        }
      }
    }
    slot.needs_io = true;
    ++misses;
  }

  // ---- Predictor feed (speculative prefetch) ----
  // The prefetcher learns from the post-dedup demand stream: one access per
  // distinct SM-tier row, plus which of them are about to pay device IO.
  // Prediction/issue happens in StartIoPhase, after the demand runs are
  // enqueued, so speculation rides the demand doorbell. Bookkeeping only —
  // no CPU is charged to the query (background work in a real deployment).
  if (Prefetcher* pf = store_->prefetcher();
      pf != nullptr && table.tier == MemoryTier::kSm) {
    for (const auto& slot : st->slots) {
      if (slot.pruned || slot.dup_of >= 0) continue;
      pf->RecordAccess(st->request.table, slot.physical_row);
      if (slot.needs_io) pf->RecordMiss(st->request.table, slot.physical_row);
    }
  }

  // ---- IO phase (or straight to pooling) ----
  if (misses == 0) {
    FinishRequest(st);
    return;
  }
  // The CPU pre-phase runs before submissions hit the device.
  loop_->ScheduleAfter(st->cpu_pre, [this, st] { StartIoPhase(st); });
}

void LookupEngine::StartIoPhase(std::shared_ptr<RequestState> st) {
  st->io_phase_started = true;
  const TuningConfig& tuning = store_->tuning();
  const TableRuntime& table = store_->table(st->request.table);
  st->io_device = table.sm_device;

  // Demand heat for the replication manager's ranking: one bump per lookup
  // that reaches the IO phase on this table's extent (no-op for id 0).
  store_->device_service().RecordExtentDemand(table.extent_id);

  // Health-monitor shed: while this table's SM endpoint is sick, only every
  // Nth lookup probes the device; the rest fail over to the extent's
  // replica when the self-healing layer has placed one, and otherwise
  // complete immediately with their IO rows failed (degraded mode) instead
  // of queueing onto a failing device or fabric. On a disaggregated host —
  // whose SM lives entirely behind the fabric — this IS the failover:
  // replica, FM-resident rows, and caches still serve. Inert unless
  // tuning.enable_health_monitor.
  {
    HealthMonitor& health = store_->device_service().health();
    const size_t dev = table.sm_device;
    if (health.Sick(dev) && !health.AdmitProbe(dev)) {
      const auto route =
          store_->device_service().FindReplicaRoute(table.extent_id, dev);
      if (route.has_value()) {
        st->io_device = route->device;
        st->io_shift = route->shift;
      } else {
        shed_lookups_->Add(1);
        if (obs_shed_ != nullptr) obs_shed_->Add(loop_->Now());
        for (auto& slot : st->slots) slot.needs_io = false;  // source stays kNone
        st->io_failed = true;
        FinishRequest(st);
        return;
      }
    }
  }

  const bool block_cache_mode = store_->block_cache() != nullptr && table.cache_enabled;
  const bool sgl = !block_cache_mode && store_->device_service().sub_block_reads(st->io_device);
  const Bytes rb = st->stored_row_bytes;

  std::vector<IoPlanner::Miss> misses;
  for (uint32_t i = 0; i < st->slots.size(); ++i) {
    if (!st->slots[i].needs_io) continue;
    misses.push_back(IoPlanner::Miss{i, table.offset + st->slots[i].physical_row * rb});
  }

  // Planning (dedup happened at slot resolution; block grouping and
  // adjacent-run merging live in the planner) is pure; batching across
  // concurrent requests is the scheduler's job.
  PlannerConfig pcfg;
  pcfg.row_bytes = rb;
  pcfg.sub_block = sgl;
  pcfg.merge = tuning.io_batching != IoBatching::kPerRow;
  pcfg.max_coalesce_bytes = tuning.max_coalesce_bytes;
  pcfg.coalesce_gap_bytes = tuning.coalesce_gap_bytes;
  std::vector<PlannedRun> runs = IoPlanner::Plan(std::move(misses), pcfg);

  st->outstanding_ios = static_cast<int>(runs.size());
  for (PlannedRun& planned : runs) {
    auto run = std::make_shared<RunContext>();
    run->run = std::move(planned);
    run->sgl = sgl;
    run->insert_blocks = block_cache_mode;
    run->device = st->io_device;
    run->shift = st->io_shift;
    const Bytes bus = NvmeDevice::BusBytes(run->run.span_begin,
                                           run->run.span_end - run->run.span_begin, sgl);
    run->bytes_saved = run->run.per_row_bus > bus ? run->run.per_row_bus - bus : 0;
    SubmitRun(st, run);
  }

  // Demand runs are enqueued (holding whatever batch is forming); now let
  // the prefetcher speculate into the scheduler's low-priority lane, where
  // its reads share this request's doorbell but never force one.
  if (Prefetcher* pf = store_->prefetcher(); pf != nullptr) {
    pf->MaybeIssue(st->request.table);
  }
}

void LookupEngine::SubmitRun(const std::shared_ptr<RequestState>& st,
                             const std::shared_ptr<RunContext>& run) {
  // Scheduler-aware throttle admission: the per-table budget (§4.1) counts
  // device reads *after* merging. A run the scheduler will join or merge
  // adds no device read, so it enqueues immediately without a slot —
  // queueing it would let the read it shares retire first and force a
  // duplicate read. Only runs that need their own SQE go through Acquire
  // (and if merging happens by dispatch time anyway, EnqueueRun releases
  // the slot on the spot). The probe uses the same shifted coordinates the
  // enqueue will. In the bypass modes nothing is shared, so every run
  // takes a slot, and the scheduler's delay-0 flush timer rings one
  // doorbell per virtual instant.
  BatchScheduler& scheduler = store_->scheduler(run->device);
  const int64_t shift = run->shift;
  const auto sb = static_cast<Bytes>(static_cast<int64_t>(run->run.span_begin) + shift);
  const auto se = static_cast<Bytes>(static_cast<int64_t>(run->run.span_end) + shift);
  const uint64_t fb = run->run.first_block + static_cast<uint64_t>(shift / kBlockSize);
  const uint64_t lb = run->run.last_block + static_cast<uint64_t>(shift / kBlockSize);
  if (scheduler.WouldShare(sb, se, fb, lb, run->sgl)) {
    EnqueueRun(st, run, kReadRetries, /*first_attempt=*/true, /*acquired_slot=*/false);
    return;
  }
  store_->AcquireIoSlot(st->request.table, [this, st, run] {
    EnqueueRun(st, run, kReadRetries, /*first_attempt=*/true, /*acquired_slot=*/true);
  });
}

void LookupEngine::EnqueueRun(const std::shared_ptr<RequestState>& st,
                              const std::shared_ptr<RunContext>& run, int attempts_left,
                              bool first_attempt, bool acquired_slot) {
  BatchScheduler& scheduler = store_->scheduler(run->device);

  // Spans and block ids are shifted into the serving device's address
  // space; completions shift back when scattering (replica shift is a
  // whole number of blocks, so block math survives the translation).
  const int64_t shift = run->shift;
  BatchScheduler::ReadRequest req;
  req.span_begin = static_cast<Bytes>(static_cast<int64_t>(run->run.span_begin) + shift);
  req.span_end = static_cast<Bytes>(static_cast<int64_t>(run->run.span_end) + shift);
  req.first_block = run->run.first_block + static_cast<uint64_t>(shift / kBlockSize);
  req.last_block = run->run.last_block + static_cast<uint64_t>(shift / kBlockSize);
  req.sub_block = run->sgl;
  // QoS lane + fair-share identity: a background-class tenant's demand
  // rides the scheduler's byte-budgeted background lane (src/tenant).
  req.kind = store_->demand_kind();
  req.tenant = store_->tenant_id();
  // Coalescing counters only on the first attempt; a retry is the same
  // logical read and must not double-count.
  req.rows = first_attempt ? static_cast<uint32_t>(run->run.slot_indices.size()) : 0;
  req.per_row_bus = first_attempt ? run->run.per_row_bus : 0;
  req.cb = MakeRunCompletion(st, run, attempts_left);

  const BatchScheduler::Admission admission = scheduler.Enqueue(std::move(req));
  assert(admission != BatchScheduler::Admission::kDropped);  // demand is never dropped

  // Scheduler-aware throttling (§4.1's outstanding-IO budget, counted
  // *after* merging): a run that merged into or joined another request's
  // SQE adds no device read. A WouldShare run arrives without a slot; a
  // run that acquired one but shares by dispatch time releases it on the
  // spot. Either way only the SQE's owner holds a slot for the read.
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
  if (failed_device == primary) {
    return svc.FindReplicaRoute(table.extent_id, primary);
  }
  if (!svc.health().Sick(primary)) {
    return SharedDeviceService::ReplicaRoute{primary, 0};
  }
  return std::nullopt;
}

BatchScheduler::Completion LookupEngine::MakeRunCompletion(
    const std::shared_ptr<RequestState>& st, const std::shared_ptr<RunContext>& run,
    int attempts_left) {
  return [this, st, run, attempts_left](Status status, const uint8_t* data, Bytes base) {
    if (run->holds_slot) store_->ReleaseIoSlot(st->request.table);
    store_->device_service().health().Record(run->device, status.ok());
    if (!status.ok()) {
      // Transient (device-side) errors are retried after an exponential
      // backoff; invalid requests surface immediately.
      if (IsTransientError(status.code()) && attempts_left > 0) {
        io_retries_->Add(1);
        const int attempt_index = kReadRetries - attempts_left;
        const SimDuration backoff =
            SimDuration(store_->tuning().retry_backoff_base.nanos()
                        << std::min(attempt_index, 30));
        auto reenqueue = [this, st, run, attempts_left] {
          store_->AcquireIoSlot(st->request.table, [this, st, run, attempts_left] {
            EnqueueRun(st, run, attempts_left - 1, /*first_attempt=*/false,
                       /*acquired_slot=*/true);
          });
        };
        if (backoff > SimDuration(0)) {
          loop_->ScheduleAfter(backoff, std::move(reenqueue));
        } else {
          reenqueue();
        }
        return;
      }
      // Read-repair: one re-drive of the terminally-failed run against the
      // extent's replica (or back to a recovered primary when the replica
      // was the one failing). The run's rows would otherwise pool as zeros
      // — bit rot and exhausted retries both land here.
      if (!run->repairing) {
        const auto route = RepairRoute(st->request.table, run->device);
        if (route.has_value()) {
          run->repairing = true;
          run->device = route->device;
          run->shift = route->shift;
          store_->AcquireIoSlot(st->request.table, [this, st, run] {
            EnqueueRun(st, run, kReadRetries, /*first_attempt=*/false,
                       /*acquired_slot=*/true);
          });
          return;
        }
      }
      // One failed device read fails every row it carried; only io_errors
      // is charged (not rows_from_sm).
      io_errors_->Add(1);
      st->io_failed = true;
    } else {
      if (run->repairing) {
        read_repairs_->Add(1);
        ++st->trace.read_repairs;
      }
      const TableRuntime& t = store_->table(st->request.table);
      DualRowCache* cache = store_->row_cache();
      // `base` is in the serving device's space; row offsets are primary-
      // space, so the scatter applies the run's shift.
      const int64_t shift = run->shift;
      Bytes copied = 0;
      for (const uint32_t i : run->run.slot_indices) {
        auto& slot = st->slots[i];
        const Bytes off = t.offset + slot.physical_row * st->stored_row_bytes;
        std::span<uint8_t> dest(st->row_bytes.data() + i * st->stored_row_bytes,
                                st->stored_row_bytes);
        std::memcpy(dest.data(),
                    data + (static_cast<int64_t>(off) + shift - static_cast<int64_t>(base)),
                    dest.size());
        copied += dest.size();
        slot.source = RequestState::Slot::Source::kSm;
        rows_sm_read_->Add(1);
        ++st->trace.rows_from_sm;
        if (cache != nullptr && t.cache_enabled) {
          cache->Insert(RowKey{st->request.table, slot.physical_row}, dest);
          st->cpu_post += cache->RouteCpuCost(st->request.table);
        }
      }
      st->cpu_post += CopyCost(copied);
      if (run->insert_blocks) {
        // The shared buffer holds whole blocks: fill the block layer with
        // this run's slice of them (joiners skip this; the owner inserts).
        // Replica bytes are content-identical, so the keys stay primary.
        const uint64_t blocks =
            run->run.last_block - run->run.first_block + 1;
        store_->block_cache()->InsertBlocks(
            static_cast<uint32_t>(t.sm_device), run->run.first_block,
            std::span<const uint8_t>(
                data + (static_cast<int64_t>(run->run.first_block * kBlockSize) + shift -
                        static_cast<int64_t>(base)),
                blocks * kBlockSize));
        st->cpu_post += CopyCost(blocks * kBlockSize);
      }
    }
    if (--st->outstanding_ios == 0) FinishRequest(st);
  };
}

void LookupEngine::FinishRequest(const std::shared_ptr<RequestState>& st) {
  if (st->io_failed) {
    // Graceful degradation: the failed rows' buffers were zero-initialized
    // and never written, so pooling proceeds and they contribute nothing —
    // an embedding query missing a few rows beats a failed query. The gap
    // is surfaced via trace.degraded / trace.rows_failed.
    st->trace.degraded = true;
    degraded_lookups_->Add(1);
  }

  const TableRuntime& table = store_->table(st->request.table);
  const uint32_t dim = table.config.dim;

  // Fan duplicate-index slots out from the sibling that fetched the row;
  // they inherit its source for the accounting.
  Bytes dup_copied = 0;
  for (size_t i = 0; i < st->slots.size(); ++i) {
    auto& slot = st->slots[i];
    if (slot.dup_of < 0) continue;
    const auto& primary = st->slots[static_cast<size_t>(slot.dup_of)];
    std::memcpy(
        st->row_bytes.data() + i * st->stored_row_bytes,
        st->row_bytes.data() + static_cast<size_t>(slot.dup_of) * st->stored_row_bytes,
        st->stored_row_bytes);
    dup_copied += st->stored_row_bytes;
    slot.source = primary.source;
    switch (primary.source) {
      case RequestState::Slot::Source::kFmDirect:
        rows_fm_read_->Add(1);
        ++st->trace.rows_from_fm_direct;
        break;
      case RequestState::Slot::Source::kCache:
        rows_cache_hit_->Add(1);
        ++st->trace.rows_from_cache;
        break;
      case RequestState::Slot::Source::kBlockCache:
        rows_block_hit_->Add(1);
        ++st->trace.rows_from_block_cache;
        break;
      case RequestState::Slot::Source::kSm:
        rows_sm_read_->Add(1);
        ++st->trace.rows_from_sm;
        break;
      case RequestState::Slot::Source::kNone:
        break;  // primary's fetch failed; this duplicate pools as zeros too
    }
  }
  if (dup_copied > 0) st->cpu_post += CopyCost(dup_copied);

  // Degraded accounting: every non-pruned slot still unresolved after the
  // fan-out lost its row (exhausted retries, or shed from a sick endpoint)
  // and pools as a zero vector.
  if (st->trace.degraded) {
    for (const auto& slot : st->slots) {
      if (!slot.pruned && slot.source == RequestState::Slot::Source::kNone) {
        ++st->trace.rows_failed;
        rows_failed_->Add(1);
      }
    }
    // Per-table degraded-row tally feeds the placement layer: a chronically
    // degraded table is a candidate for migration to FM at the next model
    // refresh (tuning.degraded_placement_feedback).
    if (st->trace.rows_failed > 0) {
      store_->RecordTableDegradedRows(st->request.table, st->trace.rows_failed);
    }
  }

  // Fused dequant+pool over resolved slots.
  std::vector<float> out(dim, 0.0f);
  uint32_t pooled_rows = 0;
  for (size_t i = 0; i < st->slots.size(); ++i) {
    if (st->slots[i].pruned) continue;
    const std::span<const uint8_t> row(st->row_bytes.data() + i * st->stored_row_bytes,
                                       st->stored_row_bytes);
    DequantizeAccumulate(table.config.dtype, row, out);
    ++pooled_rows;
  }
  if (st->request.mode == PoolingMode::kMean && !st->request.indices.empty()) {
    const float inv = 1.0f / static_cast<float>(st->request.indices.size());
    for (auto& v : out) v *= inv;
  }
  // fp32 rows skip the dequant math and pool at plain-add throughput (this
  // is what de-quantization at load buys, A.5).
  const Bytes pooled_bytes = static_cast<Bytes>(pooled_rows) * st->stored_row_bytes;
  st->cpu_post += table.config.dtype == DataType::kFp32
                      ? cost_.DensePoolCost(pooled_bytes)
                      : cost_.DequantPoolCost(pooled_bytes);

  // Pooled-cache fill (Algorithm 1 tail). Degraded outputs are missing row
  // contributions and must not be cached — a later fault-free repeat of the
  // same bag would serve the incomplete vector.
  PooledEmbeddingCache* pooled = store_->pooled_cache();
  if (pooled != nullptr && !st->trace.pooled_cache_hit && !st->trace.degraded) {
    pooled->Insert(st->request.table, st->request.indices, out);
    st->cpu_post += cost_.DensePoolCost(static_cast<Bytes>(out.size()) * sizeof(float));
  }

  const SimDuration total_cpu = st->cpu_pre + st->cpu_post;
  cpu_ns_->Add(static_cast<uint64_t>(total_cpu.nanos()));
  st->trace.cpu_time = total_cpu;

  // If no IO happened the pre-phase CPU hasn't been charged to the clock
  // yet; either way the post-phase runs now.
  const SimDuration tail = st->io_phase_started ? st->cpu_post : total_cpu;
  loop_->ScheduleAfter(tail, [this, st, out = std::move(out)]() mutable {
    Complete(*st, std::move(out));
  });
}

}  // namespace sdm
