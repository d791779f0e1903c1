// IoPlanner — pure, device-free planning of coalesced embedding reads.
//
// Extracted from LookupEngine::StartIoPhase so the dedup/grouping policy is
// unit-testable without an event loop and reusable by any component that
// turns row misses into device reads (lookups today; prefetchers and model
// updaters tomorrow). The planner answers one question: given a set of
// missing rows on one device, which byte spans should be read?
//
//  - misses are sorted by device offset and grouped by 4KB block: N rows in
//    one block cost one read;
//  - adjacent blocks merge into multi-block runs up to `max_coalesce_bytes`;
//  - in sub-block (SGL) mode a merge may only bridge a dead gap of
//    `coalesce_gap_bytes` between consecutive rows, so scattered rows don't
//    inflate bus traffic (block-layer request-merging semantics);
//  - a row straddling a block boundary is planned like any other, as a run
//    covering both of its blocks. It joins a neighbour's run under the same
//    rules; when it cannot, it gets a run of its own even if its two blocks
//    exceed `max_coalesce_bytes` (a row is never split);
//  - with `merge` off every miss becomes its own run (the per-row ablation).
//
// Planning is per-request; cross-request combining of the planned runs is
// the BatchScheduler's job. Demand lookups and the Prefetcher also share
// the two steps around it: ReadForRun turns a run into the scheduler's
// read, and FillBlockCache files a completed read's blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/block_cache.h"
#include "common/types.h"
#include "sched/batch_scheduler.h"

namespace sdm {

/// One planned device read: a run of same-or-adjacent-block rows served by
/// a single SQE and scattered back to its slots at completion.
struct PlannedRun {
  uint64_t first_block = 0;
  uint64_t last_block = 0;
  Bytes span_begin = 0;  ///< device offset of the first useful byte
  Bytes span_end = 0;    ///< one past the last useful byte
  /// Caller-defined handles (LookupEngine: request slot indices) of the
  /// rows this run carries, in device-offset order.
  std::vector<uint32_t> slot_indices;
  /// Bus bytes the per-row path would have moved for these rows.
  Bytes per_row_bus = 0;
};

struct PlannerConfig {
  Bytes row_bytes = 0;
  /// SGL bit-bucket mode: spans are DWORD- instead of block-rounded on the
  /// bus, and merges are gap-bounded.
  bool sub_block = false;
  /// Merge rows into shared runs; false plans one run per miss.
  bool merge = true;
  Bytes max_coalesce_bytes = 64 * kKiB;
  Bytes coalesce_gap_bytes = 512;
};

class IoPlanner {
 public:
  /// One missing row: an opaque caller handle plus its device byte offset.
  struct Miss {
    uint32_t slot = 0;
    Bytes offset = 0;
  };

  /// Pure function of (misses, config); `misses` may arrive in any order.
  /// Runs come out in device-offset order.
  [[nodiscard]] static std::vector<PlannedRun> Plan(std::vector<Miss> misses,
                                                    const PlannerConfig& config);
};

/// The scheduler read serving `run` on a device whose address space sits
/// `shift` bytes from the run's own: 0 on the primary, a whole number of
/// blocks on a replica. It carries the run's rows and per-row bus bytes;
/// kind, tenant and completion are the caller's.
[[nodiscard]] BatchScheduler::ReadRequest ReadForRun(const PlannedRun& run, bool sub_block,
                                                     int64_t shift);

/// Fills `cache` with blocks [first_block, last_block] out of a completed
/// read (`data` and `base` as its Completion receives them, `shift` as given
/// to ReadForRun). Keys stay in the run's own space on `device`, since a
/// replica's bytes are content-identical. Returns the bytes copied.
Bytes FillBlockCache(BlockCache& cache, uint32_t device, uint64_t first_block,
                     uint64_t last_block, const uint8_t* data, Bytes base, int64_t shift);

}  // namespace sdm
