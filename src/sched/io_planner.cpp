#include "sched/io_planner.h"

#include <algorithm>

#include "device/nvme_device.h"

namespace sdm {

std::vector<PlannedRun> IoPlanner::Plan(std::vector<Miss> misses,
                                        const PlannerConfig& config) {
  std::sort(misses.begin(), misses.end(),
            [](const Miss& a, const Miss& b) { return a.offset < b.offset; });

  const Bytes rb = config.row_bytes;
  std::vector<PlannedRun> runs;
  for (const Miss& m : misses) {
    const uint64_t block = m.offset / kBlockSize;
    const uint64_t last = (m.offset + rb - 1) / kBlockSize;
    const Bytes end = m.offset + rb;
    const Bytes solo_bus = NvmeDevice::BusBytes(m.offset, rb, config.sub_block);
    if (config.merge && !runs.empty()) {
      PlannedRun& r = runs.back();
      // Block path: whole blocks cross the bus anyway, so same-block rows
      // share one read and adjacent blocks merge up to the cap. Sub-block
      // path: merge only across small dead gaps (request-merging semantics)
      // so scattered rows don't inflate bus traffic.
      const bool gap_ok =
          !config.sub_block || m.offset - r.span_end <= config.coalesce_gap_bytes;
      const bool touches = block == r.last_block || block == r.last_block + 1;
      if (touches && gap_ok &&
          (last - r.first_block + 1) * kBlockSize <= config.max_coalesce_bytes) {
        r.last_block = last;
        r.span_end = end;
        r.slot_indices.push_back(m.slot);
        r.per_row_bus += solo_bus;
        continue;
      }
    }
    PlannedRun r;
    r.first_block = block;
    r.last_block = last;
    r.span_begin = m.offset;
    r.span_end = end;
    r.slot_indices = {m.slot};
    r.per_row_bus = solo_bus;
    runs.push_back(std::move(r));
  }
  return runs;
}

BatchScheduler::ReadRequest ReadForRun(const PlannedRun& run, bool sub_block, int64_t shift) {
  BatchScheduler::ReadRequest req;
  req.span_begin = static_cast<Bytes>(static_cast<int64_t>(run.span_begin) + shift);
  req.span_end = static_cast<Bytes>(static_cast<int64_t>(run.span_end) + shift);
  req.first_block = run.first_block + static_cast<uint64_t>(shift / kBlockSize);
  req.last_block = run.last_block + static_cast<uint64_t>(shift / kBlockSize);
  req.sub_block = sub_block;
  req.rows = static_cast<uint32_t>(run.slot_indices.size());
  req.per_row_bus = run.per_row_bus;
  return req;
}

Bytes FillBlockCache(BlockCache& cache, uint32_t device, uint64_t first_block,
                     uint64_t last_block, const uint8_t* data, Bytes base, int64_t shift) {
  const Bytes bytes = (last_block - first_block + 1) * kBlockSize;
  cache.InsertBlocks(device, first_block,
                     std::span<const uint8_t>(
                         data + (static_cast<int64_t>(first_block * kBlockSize) + shift -
                                 static_cast<int64_t>(base)),
                         bytes));
  return bytes;
}

}  // namespace sdm
