#include "prefetch/prefetcher.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "device/nvme_device.h"

namespace sdm {

Prefetcher::Prefetcher(PrefetchConfig config, DualRowCache* row_cache,
                       BlockCache* block_cache, std::vector<BatchScheduler*> schedulers)
    : config_(config),
      row_cache_(row_cache),
      block_cache_(block_cache),
      schedulers_(std::move(schedulers)) {
  assert(row_cache_ != nullptr);
  assert(!schedulers_.empty());
  assert(config_.depth >= 1);
}

void Prefetcher::RegisterTable(const TableInfo& info) {
  assert(info.plan.row_bytes > 0);
  assert(info.device < schedulers_.size());
  TableState st;
  st.info = info;
  PredictorGeometry geometry;
  geometry.table_offset = info.table_offset;
  geometry.row_bytes = info.plan.row_bytes;
  geometry.num_rows = info.num_rows;
  st.predictor = MakePredictor(config_.strategy, geometry);
  tables_.insert_or_assign(info.id, std::move(st));
}

void Prefetcher::RecordAccess(TableId table, RowIndex row) {
  const auto it = tables_.find(table);
  if (it == tables_.end()) return;
  it->second.predictor->RecordAccess(row);
}

void Prefetcher::RecordMiss(TableId table, RowIndex row) {
  const auto it = tables_.find(table);
  if (it == tables_.end()) return;
  it->second.predictor->RecordMiss(row);
}

bool Prefetcher::ClaimHit(TableId table, RowIndex row) {
  const auto it = tables_.find(table);
  if (it == tables_.end()) return false;
  if (it->second.unclaimed.erase(row) == 0) return false;
  ++stats_.rows_hit;
  stats_.bytes_hit += it->second.info.plan.row_bytes;
  if (obs_rows_hit_ != nullptr) obs_rows_hit_->Add(obs_loop_->Now());
  return true;
}

void Prefetcher::set_obs(Observability* obs, EventLoop* loop, const std::string& name) {
  obs_loop_ = loop;
  obs_rows_issued_ = ObsCounter(obs, name + "prefetch/rows_issued");
  obs_rows_hit_ = ObsCounter(obs, name + "prefetch/rows_hit");
  obs_dropped_ = ObsCounter(obs, name + "prefetch/dropped_runs");
}

void Prefetcher::MaybeIssue(TableId table) {
  const auto it = tables_.find(table);
  if (it == tables_.end()) return;
  TableState& st = it->second;
  if (st.unclaimed.size() >= kMaxUnclaimedRows) return;

  // Ask for a much deeper pool than we intend to issue: the top of the
  // ranking is (by design) already resident in the row cache, so the
  // issuable candidates — recently-evicted hot rows, marginal ranks — live
  // past it. The filters below keep the first `depth` worth fetching.
  const size_t pool =
      std::min<size_t>(kMaxCandidatePool, static_cast<size_t>(config_.depth) * 64);
  const std::vector<PrefetchCandidate> candidates = st.predictor->Predict(pool);
  stats_.predictions += candidates.size();
  if (candidates.empty()) return;

  const Bytes rb = st.info.plan.row_bytes;
  std::vector<IoPlanner::Miss> misses;
  std::vector<RowIndex> rows;
  for (const PrefetchCandidate& c : candidates) {
    if (rows.size() >= static_cast<size_t>(config_.depth)) break;
    if (c.confidence < config_.min_confidence) continue;
    if (c.row >= st.info.num_rows) continue;
    if (st.unclaimed.count(c.row) != 0) continue;  // already speculated
    if (row_cache_->Contains(RowKey{table, c.row})) {
      continue;  // already resident; nothing to convert
    }
    const Bytes off = st.info.table_offset + c.row * rb;
    if (st.info.block_mode && off / kBlockSize == (off + rb - 1) / kBlockSize &&
        block_cache_->Contains(BlockCache::BlockKey{
            static_cast<uint32_t>(st.info.device), off / kBlockSize})) {
      continue;  // the block layer already covers this row
    }
    misses.push_back(IoPlanner::Miss{static_cast<uint32_t>(rows.size()), off});
    rows.push_back(c.row);
  }
  if (misses.empty()) return;

  IssueRuns(st, std::move(misses), rows);
}

void Prefetcher::IssueRuns(TableState& st, std::vector<IoPlanner::Miss> misses,
                           const std::vector<RowIndex>& rows) {
  BatchScheduler& scheduler = *schedulers_[st.info.device];
  for (const PlannedRun& run : IoPlanner::Plan(std::move(misses), st.info.plan)) {
    std::vector<RowIndex> run_rows;
    run_rows.reserve(run.slot_indices.size());
    for (const uint32_t slot : run.slot_indices) run_rows.push_back(rows[slot]);

    BatchScheduler::ReadRequest req = ReadForRun(run, st.info.plan.sub_block, /*shift=*/0);
    req.kind = BatchScheduler::ReadRequest::Kind::kPrefetch;
    req.tenant = config_.tenant;

    const TableInfo info = st.info;  // completion outlives the iteration
    auto* self = this;
    // insert_blocks is patched after admission: only the SQE owner fills
    // the block layer (joiners would duplicate the copy + LRU churn).
    auto insert_blocks = std::make_shared<bool>(false);
    const uint64_t first_block = run.first_block;
    const uint64_t last_block = run.last_block;
    req.cb = [self, info, run_rows, insert_blocks, first_block, last_block](
                 Status status, const uint8_t* data, Bytes base) {
      TableState& ts = self->tables_.find(info.id)->second;
      if (!status.ok()) {
        // Failed speculation: forget the rows so a later opportunity (or
        // demand itself) can fetch them.
        ++self->stats_.errors;
        for (const RowIndex r : run_rows) ts.unclaimed.erase(r);
        return;
      }
      const Bytes rb = info.plan.row_bytes;
      for (const RowIndex r : run_rows) {
        const Bytes off = info.table_offset + r * rb;
        self->row_cache_->Insert(RowKey{info.id, r},
                                 std::span<const uint8_t>(data + (off - base), rb));
      }
      if (*insert_blocks && info.block_mode) {
        (void)FillBlockCache(*self->block_cache_, static_cast<uint32_t>(info.device),
                             first_block, last_block, data, base, /*shift=*/0);
      }
    };

    const Bytes bus = NvmeDevice::BusBytes(
        run.span_begin, run.span_end - run.span_begin, st.info.plan.sub_block);
    const BatchScheduler::Admission admission = scheduler.Enqueue(std::move(req));
    if (admission == BatchScheduler::Admission::kDropped) {
      ++stats_.dropped_runs;
      stats_.dropped_rows += run_rows.size();
      if (obs_dropped_ != nullptr) obs_dropped_->Add(obs_loop_->Now());
      continue;
    }
    for (const RowIndex r : run_rows) st.unclaimed.insert(r);
    stats_.rows_issued += run_rows.size();
    if (obs_rows_issued_ != nullptr) {
      obs_rows_issued_->Add(obs_loop_->Now(), run_rows.size());
    }
    if (admission == BatchScheduler::Admission::kNewRead) {
      *insert_blocks = true;
      ++stats_.reads_issued;
      stats_.bytes_issued += bus;
    } else {
      ++stats_.runs_shared;
    }
  }
}

}  // namespace sdm
