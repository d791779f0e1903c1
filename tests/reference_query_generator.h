// Test-only reference: QueryGenerator before its lookahead worker, every
// query generated on the calling thread when it is asked for. Kept verbatim
// (class renamed, the .cpp bodies inlined) so tests can pin the pipelined
// generator in src/trace to it query for query, field by field, across any
// sequence of Next, ForUser and stream calls.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "trace/trace_gen.h"

namespace sdm {

class ReferenceQueryGenerator {
 public:
  ReferenceQueryGenerator(const ModelConfig& model, WorkloadConfig config)
      : model_(model),
        config_(config),
        user_sampler_(std::max<uint64_t>(config.num_users, 1), config.user_zipf_alpha),
        user_permuter_(std::max<uint64_t>(config.num_users, 1), config.seed ^ 0xabcd),
        rng_(config.seed) {
    streams_.reserve(model_.tables.size());
    for (size_t i = 0; i < model_.tables.size(); ++i) {
      streams_.emplace_back(model_.tables[i], config_.seed ^ Mix64(i));
    }
  }

  /// Generates the next query (user drawn from the popularity law).
  [[nodiscard]] Query Next() {
    const UserId user = user_permuter_.Permute(user_sampler_.Sample(rng_));
    return ForUser(user);
  }

  /// Generates a query for a specific user (sticky-routing experiments).
  [[nodiscard]] Query ForUser(UserId user) {
    Query q;
    q.user = user;
    q.indices.resize(model_.tables.size());
    for (size_t t = 0; t < model_.tables.size(); ++t) {
      if (model_.tables[t].role != TableRole::kUser) {
        q.indices[t] = ItemTableIndices(t);
        continue;
      }
      q.indices[t] = UserTableIndices(user, t);
      // InferenceEval (paper Table 2): user batch > 1 means each query
      // carries samples for several *different* users, so the user side is
      // batched just like the item side (and far less sticky per host).
      for (int extra = 1; extra < model_.user_batch_size; ++extra) {
        const UserId other = user_permuter_.Permute(user_sampler_.Sample(rng_));
        const std::vector<RowIndex> more = UserTableIndices(other, t);
        q.indices[t].insert(q.indices[t].end(), more.begin(), more.end());
      }
    }
    return q;
  }

  [[nodiscard]] const ModelConfig& model() const { return model_; }
  [[nodiscard]] const WorkloadConfig& config() const { return config_; }
  [[nodiscard]] const TableAccessStream& stream(size_t table) const {
    return streams_[table];
  }

 private:
  [[nodiscard]] std::vector<RowIndex> UserTableIndices(UserId user, size_t table) {
    const TableConfig& cfg = model_.tables[table];
    // Sticky set: deterministic in (user, table). Its length is also sticky —
    // heavy-feature users stay heavy — and its indices follow the table's
    // popularity law so aggregate locality matches the stream.
    Rng sticky(Mix64(user * 0x9e3779b97f4a7c15ULL) ^ Mix64(table) ^ config_.seed);
    const double pf = cfg.avg_pooling_factor * config_.pooling_scale;
    const auto len = static_cast<size_t>(
        std::max<long>(1, std::lround(pf * std::exp(sticky.NextGaussian() * 0.4))));
    std::vector<RowIndex> out;
    out.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      if (config_.user_index_churn > 0 && rng_.NextBernoulli(config_.user_index_churn)) {
        out.push_back(streams_[table].Next(rng_));  // churned: fresh draw
      } else {
        out.push_back(streams_[table].Next(sticky));  // sticky: deterministic
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<RowIndex> ItemTableIndices(size_t table) {
    const TableConfig& cfg = model_.tables[table];
    const double pf = cfg.avg_pooling_factor * config_.pooling_scale;
    const auto per_item = static_cast<size_t>(std::max<long>(1, std::lround(pf)));
    const auto total = per_item * static_cast<size_t>(std::max(1, model_.item_batch_size));
    std::vector<RowIndex> out;
    out.reserve(total);
    for (size_t i = 0; i < total; ++i) out.push_back(streams_[table].Next(rng_));
    return out;
  }

  ModelConfig model_;
  WorkloadConfig config_;
  std::vector<TableAccessStream> streams_;
  ZipfSampler user_sampler_;
  IndexPermuter user_permuter_;
  Rng rng_;
};

}  // namespace sdm
