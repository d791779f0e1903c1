// Synthetic access-trace generation. It stands in for the paper's 6-day
// production trace samples, which are not public.
//
// Per-table index streams follow a Zipf popularity law whose exponent is
// the table's zipf_alpha (item > user, reproducing Fig. 4's split), with a
// Feistel permutation scattering hot ranks across the index space so there
// is no artificial spatial locality (Fig. 5 shows production has little).
//
// Query-level structure:
//   - users are drawn Zipf-popular; each (user, table) pair has a sticky,
//     deterministic index set with configurable churn — repeated queries
//     from one user re-issue (mostly) the same indices, which is what makes
//     user-to-host sticky routing and the pooled-embedding cache work;
//   - item-table indices are drawn fresh per query (B_I items batched).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/zeroed_buffer.h"
#include "embedding/table_config.h"

namespace sdm {

/// Bijective pseudo-random permutation of [0, n) (4-round Feistel with
/// cycle-walking). Used to decouple popularity rank from index value.
///
/// Zipf draws land mostly on the lowest ranks (for alpha = 1 and n = 124k
/// the top 4,096 ranks carry ~72% of the mass), so Permute memoises ranks
/// below min(n, kMemoRanks). A memo slot holds its rank's image + 1 as a
/// uint32, and 0 means not yet computed, so a hit returns exactly what the
/// cycle walk returned the first time. (A domain of 2^32 rows or more has
/// images that do not fit, and is not memoised.) The memo is created on the
/// first memoisable draw as a ZeroedBuffer, whose pages commit only as
/// ranks in them are first drawn: a permuter that is never drawn from
/// costs nothing. The memo is a cache, so Permute stays const, but one
/// permuter must not be drawn from by two threads at once.
class IndexPermuter {
 public:
  /// Ranks memoised (at most 16 KiB of slots per permuter).
  static constexpr uint64_t kMemoRanks = 4096;

  IndexPermuter(uint64_t n, uint64_t seed);

  [[nodiscard]] uint64_t Permute(uint64_t x) const;
  [[nodiscard]] uint64_t n() const { return n_; }

 private:
  [[nodiscard]] uint64_t FeistelOnce(uint64_t x) const;
  /// The permutation itself: Feistel rounds, cycle-walked back into [0, n).
  [[nodiscard]] uint64_t CycleWalk(uint64_t x) const;

  uint64_t n_;
  uint64_t memo_ranks_;  ///< min(n, kMemoRanks), or 0 when n >= 2^32
  int half_bits_;
  uint64_t keys_[4];
  mutable std::unique_ptr<ZeroedBuffer> memo_;  ///< memo_ranks_ uint32 slots
};

/// Zipf-popular index stream for one table.
class TableAccessStream {
 public:
  TableAccessStream(const TableConfig& config, uint64_t seed);

  /// Next index (popularity-ranked through the permutation).
  [[nodiscard]] RowIndex Next(Rng& rng) const;

  /// The index at popularity rank r (rank 0 = hottest).
  [[nodiscard]] RowIndex IndexAtRank(uint64_t rank) const;

  [[nodiscard]] const ZipfSampler& zipf() const { return zipf_; }

 private:
  ZipfSampler zipf_;
  IndexPermuter permuter_;
};

struct WorkloadConfig {
  uint64_t num_users = 50'000;
  /// Popularity skew of users (heavy users dominate traffic).
  double user_zipf_alpha = 0.8;
  /// Per-index probability that a sticky user index is redrawn this query.
  double user_index_churn = 0.10;
  /// Scales every table's pooling factor (1.0 = paper averages).
  double pooling_scale = 1.0;
  uint64_t seed = 2024;
};

/// One inference query's embedding work.
struct Query {
  UserId user = 0;
  /// Index list per table (parallel to ModelConfig::tables). User tables
  /// carry ~pf indices; item tables carry ~pf * item_batch (flattened).
  std::vector<std::vector<RowIndex>> indices;
};

class QueryGenerator {
 public:
  QueryGenerator(const ModelConfig& model, WorkloadConfig config);

  /// Generates the next query (user drawn from the popularity law).
  [[nodiscard]] Query Next();

  /// Generates a query for a specific user (sticky-routing experiments).
  [[nodiscard]] Query ForUser(UserId user);

  [[nodiscard]] const ModelConfig& model() const { return model_; }
  [[nodiscard]] const WorkloadConfig& config() const { return config_; }
  [[nodiscard]] const TableAccessStream& stream(size_t table) const {
    return streams_[table];
  }

 private:
  [[nodiscard]] std::vector<RowIndex> UserTableIndices(UserId user, size_t table);
  [[nodiscard]] std::vector<RowIndex> ItemTableIndices(size_t table);

  ModelConfig model_;
  WorkloadConfig config_;
  std::vector<TableAccessStream> streams_;
  ZipfSampler user_sampler_;
  IndexPermuter user_permuter_;
  Rng rng_;
};

}  // namespace sdm
