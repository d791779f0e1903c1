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

}  // namespace sdm
