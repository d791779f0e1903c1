// Embedding-table pruning and de-pruning (paper §4.5, Algorithm 2).
//
// Post-training pruning removes near-zero rows and introduces a *mapping
// tensor* translating unpruned indices to pruned ones (-1 for removed rows).
// Serving a pruned table from SM needs either two SM accesses per lookup or
// the mapping tensor resident in FM — FM that is taken away from the cache.
// De-pruning at load time (Algorithm 2) rebuilds the dense table with zero
// rows so the mapping tensor disappears, trading cheap SM capacity for FM.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "embedding/embedding_table.h"

namespace sdm {

/// Sentinel in the mapping tensor for a pruned (removed) row.
constexpr int64_t kPrunedRow = -1;

/// Mapping tensor: unpruned index -> pruned index or kPrunedRow.
/// Size = NumRow(unpruned) * IdxType (paper uses 4- or 8-byte indices).
struct MappingTensor {
  std::vector<int64_t> map;
  uint32_t index_bytes = 4;  ///< 4 or 8; affects FM footprint only

  [[nodiscard]] Bytes size_bytes() const { return map.size() * index_bytes; }

  /// Pruned-space index for `unpruned`, or nullopt if the row was removed.
  [[nodiscard]] std::optional<RowIndex> Lookup(RowIndex unpruned) const {
    if (unpruned >= map.size()) return std::nullopt;
    const int64_t v = map[unpruned];
    if (v == kPrunedRow) return std::nullopt;
    return static_cast<RowIndex>(v);
  }
};

/// A pruned table: compacted rows plus the mapping tensor.
struct PrunedTable {
  EmbeddingTableImage rows;  ///< config().num_rows == number of kept rows
  MappingTensor mapping;
  uint64_t unpruned_num_rows = 0;
};

/// Prunes `image`, keeping each row independently with probability
/// `keep_fraction` (deterministic given `seed`); rows whose dequantized
/// L2 norm is exactly 0 are always pruned first, mirroring the "values very
/// close to 0 are heuristically removed" rule.
[[nodiscard]] PrunedTable PruneTable(const EmbeddingTableImage& image, double keep_fraction,
                                     uint64_t seed);

/// Decides per row whether it survives pruning. Used to model production
/// pruning, which removes *cold* (rarely-accessed, near-zero) rows — the
/// reason de-pruning adds only ~2.5% extra requests in the paper (§4.5).
using PruneKeepPredicate = std::function<bool(RowIndex)>;

/// Prunes `image` keeping exactly the rows `keep(row)` approves (zero rows
/// are still always pruned).
[[nodiscard]] PrunedTable PruneTableWithPredicate(const EmbeddingTableImage& image,
                                                  const PruneKeepPredicate& keep);

/// Algorithm 2: reconstructs a dense table of unpruned_num_rows rows, with
/// zero rows where the mapping says kPrunedRow. The result needs no mapping
/// tensor at serving time.
[[nodiscard]] EmbeddingTableImage DeprunedTable(const PrunedTable& pruned);

/// FM bytes freed by de-pruning (the mapping tensor) and SM bytes added
/// (the zero rows), for capacity-planning reports.
struct DepruneFootprint {
  Bytes fm_bytes_freed = 0;
  Bytes sm_bytes_added = 0;
};
[[nodiscard]] DepruneFootprint ComputeDepruneFootprint(const PrunedTable& pruned);

}  // namespace sdm
