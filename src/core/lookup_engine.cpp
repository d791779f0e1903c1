#include "core/lookup_engine.h"

#include <algorithm>
#include <array>
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

/// Modeled memcpy throughput of scattering rows out of read buffers.
constexpr double kMemcpyBytesPerSec = 12e9;

}  // namespace

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
  lookups_->Tap(ObsCounter(obs, prefix + "lookup/requests"), loop_);
  rows_cache_hit_->Tap(ObsCounter(obs, prefix + "lookup/cache_rows"), loop_);
  rows_sm_read_->Tap(ObsCounter(obs, prefix + "lookup/sm_rows"), loop_);
  degraded_lookups_->Tap(ObsCounter(obs, prefix + "lookup/degraded"), loop_);
  shed_lookups_->Tap(ObsCounter(obs, prefix + "lookup/shed"), loop_);
  latency_.Tap(ObsHist(obs, prefix + "lookup/latency_ns"), loop_);
  obs_spans_ = ObsSpans(obs);
  if (obs_spans_ != nullptr) {
    std::string process = prefix;
    if (!process.empty() && process.back() == '/') process.pop_back();
    if (process.empty()) process = "host";
    obs_track_ = obs_spans_->Track(process, "lookup");
  }
}

void LookupEngine::ReleaseRequest(RequestState* st) {
  // Only the run-slot array keeps its capacity. The per-row arrays are
  // freed: kept at each state's largest bag they would hold more memory
  // than the lookups in flight need at once (+1.5 MiB peak RSS on
  // disagg16's 16 hosts).
  std::vector<uint32_t> run_slots = std::move(st->run_slots);
  run_slots.clear();
  *st = RequestState{};
  st->run_slots = std::move(run_slots);
  requests_.Release(st);
}

void LookupEngine::Complete(RequestState* st) {
  const SimTime now = loop_->Now();
  st->trace.latency = now - st->start;
  latency_.Record(st->trace.latency);
  if (obs_spans_ != nullptr && st->request.traced) {
    // One stack-formatted arg blob; string temporaries per traced lookup
    // would dominate the recording cost.
    char args[96];
    std::snprintf(args, sizeof(args),
                  "{\"rows\":%zu,\"sm_rows\":%zu,\"device_reads\":%zu}",
                  static_cast<size_t>(st->trace.rows_requested),
                  static_cast<size_t>(st->trace.rows_from_sm),
                  static_cast<size_t>(st->trace.device_reads));
    obs_spans_->Span(obs_track_, "lookup", st->start, now, args);
  }
  st->cb(Status::Ok(), std::move(st->pooled), st->trace);
  ReleaseRequest(st);
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
  RequestState* st = requests_.Acquire();
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
      // Copied now: the entry may be evicted before the callback runs.
      st->pooled = *hit;
      loop_->ScheduleAfter(st->cpu_pre, Inline([this, st] { Complete(st); }));
      return;
    }
  }

  // ---- Resolve: index mapping, dedup, FM direct, row cache, block cache ----
  using Source = RequestState::Slot::Source;
  const Bytes rb = st->stored_row_bytes;
  st->slots.resize(st->request.indices.size());
  st->row_bytes.assign(st->slots.size() * rb, 0);
  const bool dedup = store_->tuning().io_batching != IoBatching::kPerRow;
  if (dedup) dedup_.Reset(st->slots.size());
  DualRowCache* cache = store_->row_cache();
  BlockCache* blocks = store_->block_cache();
  Prefetcher* pf = store_->prefetcher();
  bool needs_io = false;
  for (size_t i = 0; i < st->slots.size(); ++i) {
    const RowIndex idx = st->request.indices[i];
    auto& slot = st->slots[i];
    // Pruned tables are served with an FM mapping tensor. An index outside
    // an unpruned table's domain is a missing row too: it contributes zero,
    // matching EmbeddingBag-with-pruning semantics, rather than failing the
    // whole query.
    std::optional<RowIndex> row;
    if (table.mapping.has_value()) {
      st->cpu_pre += kMapCostPerIndex;
      row = table.mapping->Lookup(idx);
    } else if (idx < table.config.num_rows) {
      row = idx;
    }
    if (!row.has_value()) {
      slot.source = Source::kPruned;
      continue;
    }
    slot.physical_row = *row;

    if (dedup) {
      // Duplicate indices within the bag resolve once; the other slots fan
      // out from that slot at Pool, whatever its source.
      st->cpu_pre += kDedupCostPerIndex;
      const uint32_t first = dedup_.FirstSlot(slot.physical_row, static_cast<uint32_t>(i));
      if (first != i) {
        slot.dup_of = static_cast<int32_t>(first);
        continue;
      }
    }

    const std::span<uint8_t> dest(st->row_bytes.data() + i * rb, rb);
    const Bytes off = table.offset + slot.physical_row * rb;
    const RowKey key{st->request.table, slot.physical_row};
    if (table.tier == MemoryTier::kFm) {
      auto read = store_->fm().Read(off, dest);
      assert(read.ok());
      st->cpu_pre += read.value();
      slot.source = Source::kFmDirect;
      continue;
    }

    // SM tier: probe the row cache when this table uses it, then the block
    // layer (multi-level ablation). A block hit avoids device IO but pays a
    // probe and a copy, and fills the row cache. A row straddling a block
    // boundary is served only when every block it touches is resident: each
    // next block is probed (and paid for) only after the previous one hit,
    // and each hit copies its slice.
    if (cache != nullptr && table.cache_enabled) {
      st->cpu_pre += cache->RouteCpuCost(st->request.table);
      size_t len = 0;
      if (cache->Lookup(key, dest, &len)) {
        assert(len == rb);
        slot.source = Source::kCache;
      } else if (blocks != nullptr) {
        const auto device = static_cast<uint32_t>(table.sm_device);
        bool hit = true;
        for (Bytes done = 0; hit && done < rb;) {
          const Bytes at = off + done;
          const Bytes n = std::min(rb - done, kBlockSize - at % kBlockSize);
          st->cpu_pre += blocks->LookupCpuCost();
          hit = blocks->ReadRange(BlockCache::BlockKey{device, at / kBlockSize},
                                  at % kBlockSize, dest.subspan(done, n));
          done += n;
        }
        if (hit) {
          slot.source = Source::kBlockCache;
          cache->Insert(key, dest);
          st->cpu_pre += cache->RouteCpuCost(st->request.table);
        }
      }
    }

    // The prefetcher learns from the post-dedup demand stream: one access
    // per distinct SM-tier row, plus which of them are about to pay device
    // IO (bookkeeping only; no CPU is charged to the query). A cache hit
    // credits it when it put the row there: the first demand touch claims
    // the row, which then counts as an ordinary cache line.
    if (pf != nullptr) pf->RecordAccess(st->request.table, slot.physical_row);
    if (slot.source == Source::kNone) {
      needs_io = true;
      if (pf != nullptr) pf->RecordMiss(st->request.table, slot.physical_row);
    } else if (pf != nullptr && pf->ClaimHit(st->request.table, slot.physical_row)) {
      prefetch_hits_->Add(1);
      ++st->trace.rows_prefetch_hit;
    }
  }

  // ---- Fetch (or straight to Pool) ----
  if (!needs_io) {
    FinishRequest(st);
    return;
  }
  // The CPU pre-phase runs before submissions hit the device.
  loop_->ScheduleAfter(st->cpu_pre, Inline([this, st] { StartIoPhase(st); }));
}

void LookupEngine::FinishRequest(RequestState* st) {
  using Source = RequestState::Slot::Source;
  const TableRuntime& table = store_->table(st->request.table);
  const Bytes rb = st->stored_row_bytes;

  // ---- Pool ----
  // One pass: fan each duplicate out from the slot that resolved its row
  // (it inherits that slot's source), credit every slot once by its final
  // source, and pool. A slot left without a source lost its row to a shed
  // or an exhausted read; its zero-initialized bytes pool as nothing, since
  // an embedding query missing a few rows beats a failed query.
  std::array<uint32_t, RequestState::Slot::kSources> rows{};
  uint32_t deduped = 0;
  std::vector<float>& out = st->pooled;
  out.assign(table.config.dim, 0.0f);
  for (size_t i = 0; i < st->slots.size(); ++i) {
    auto& slot = st->slots[i];
    uint8_t* bytes = st->row_bytes.data() + i * rb;
    if (slot.dup_of >= 0) {
      const auto first = static_cast<size_t>(slot.dup_of);
      std::memcpy(bytes, st->row_bytes.data() + first * rb, rb);
      slot.source = st->slots[first].source;
      ++deduped;
    }
    ++rows[static_cast<size_t>(slot.source)];
    if (slot.source != Source::kPruned) {
      DequantizeAccumulate(table.config.dtype, std::span<const uint8_t>(bytes, rb), out);
    }
  }
  if (deduped > 0) st->cpu_post += CopyCost(static_cast<Bytes>(deduped) * rb);

  LookupTrace& tr = st->trace;
  const auto credit = [&rows](Counter* counter, uint32_t& field, Source source) {
    field = rows[static_cast<size_t>(source)];
    counter->Add(field);
  };
  credit(rows_pruned_, tr.rows_pruned_skipped, Source::kPruned);
  credit(rows_fm_read_, tr.rows_from_fm_direct, Source::kFmDirect);
  credit(rows_cache_hit_, tr.rows_from_cache, Source::kCache);
  credit(rows_block_hit_, tr.rows_from_block_cache, Source::kBlockCache);
  credit(rows_sm_read_, tr.rows_from_sm, Source::kSm);
  credit(rows_failed_, tr.rows_failed, Source::kNone);
  tr.rows_deduped = deduped;
  rows_deduped_->Add(deduped);
  if (tr.rows_failed > 0) {
    // Graceful degradation, surfaced via trace.degraded / rows_failed. The
    // per-table tally feeds the placement layer: a chronically degraded
    // table is a candidate for migration to FM at the next model refresh
    // (tuning.degraded_placement_feedback).
    tr.degraded = true;
    degraded_lookups_->Add(1);
    store_->RecordTableDegradedRows(st->request.table, tr.rows_failed);
  }

  if (st->request.mode == PoolingMode::kMean && !st->request.indices.empty()) {
    const float inv = 1.0f / static_cast<float>(st->request.indices.size());
    for (auto& v : out) v *= inv;
  }
  // fp32 rows skip the dequant math and pool at plain-add throughput (this
  // is what de-quantization at load buys, A.5).
  const Bytes pooled_bytes =
      static_cast<Bytes>(st->slots.size() - tr.rows_pruned_skipped) * rb;
  st->cpu_post += table.config.dtype == DataType::kFp32
                      ? cost_.DensePoolCost(pooled_bytes)
                      : cost_.DequantPoolCost(pooled_bytes);

  // Pooled-cache fill (Algorithm 1 tail). Degraded outputs are missing row
  // contributions and must not be cached — a later fault-free repeat of the
  // same bag would serve the incomplete vector.
  PooledEmbeddingCache* pooled = store_->pooled_cache();
  if (pooled != nullptr && !tr.degraded) {
    pooled->Insert(st->request.table, st->request.indices, out);
    st->cpu_post += cost_.DensePoolCost(static_cast<Bytes>(out.size()) * sizeof(float));
  }

  const SimDuration total_cpu = st->cpu_pre + st->cpu_post;
  cpu_ns_->Add(static_cast<uint64_t>(total_cpu.nanos()));
  tr.cpu_time = total_cpu;

  // If no IO happened the pre-phase CPU hasn't been charged to the clock
  // yet; either way the post-phase runs now.
  const SimDuration tail = st->io_phase_started ? st->cpu_post : total_cpu;
  loop_->ScheduleAfter(tail, Inline([this, st] { Complete(st); }));
}

}  // namespace sdm
