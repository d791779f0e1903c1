// Embedding-table and model-image configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "embedding/quantization.h"

namespace sdm {

/// Static description of one embedding table.
struct TableConfig {
  std::string name;
  TableRole role = TableRole::kUser;
  uint64_t num_rows = 0;
  uint32_t dim = 0;  ///< elements per row
  DataType dtype = DataType::kInt8Rowwise;

  /// Average lookups per query into this table (paper: pooling factor p_i).
  double avg_pooling_factor = 1.0;

  /// Zipf exponent of the index distribution (temporal locality, Fig. 4).
  /// Item tables show more locality (higher alpha) than user tables.
  double zipf_alpha = 0.8;

  [[nodiscard]] Bytes row_bytes() const { return StoredRowBytes(dtype, dim); }
  [[nodiscard]] Bytes total_bytes() const { return row_bytes() * num_rows; }

  /// BW contribution per query in bytes (p_i * d_i of Eq. 1), before the
  /// item-batch multiplier.
  [[nodiscard]] double bytes_per_query() const {
    return avg_pooling_factor * static_cast<double>(row_bytes());
  }

  bool operator==(const TableConfig&) const = default;
};

/// Configuration of a whole model's sparse part plus its dense-layer shape
/// (used by the dlrm module; kept here so images can be built without it).
struct ModelConfig {
  std::string name;
  std::vector<TableConfig> tables;

  int item_batch_size = 1;   ///< B_I in Eq. 2
  int user_batch_size = 1;   ///< B_U in Eq. 2 (1 for latency-bound inference)

  int num_mlp_layers = 0;
  int avg_mlp_width = 0;

  [[nodiscard]] Bytes TotalBytes() const;
  [[nodiscard]] Bytes BytesFor(TableRole role) const;
  [[nodiscard]] size_t CountFor(TableRole role) const;
  [[nodiscard]] double AvgPoolingFactor(TableRole role) const;

  /// Aggregate embedding-BW requirement per query in bytes (Eq. 2):
  /// B_I * sum_item(p_i d_i) + B_U * sum_user(p_j d_j).
  [[nodiscard]] double BytesPerQuery() const;

  /// IO operations per query hitting tables of `role` (Eq. 8 numerator).
  [[nodiscard]] double LookupsPerQuery(TableRole role) const;

  bool operator==(const ModelConfig&) const = default;
};

}  // namespace sdm
