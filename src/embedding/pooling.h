// SLS-style pooling over quantized rows (SparseLengthsSum / EmbeddingBag).
//
// The embedding operator of a DLRM gathers `pooling factor` rows per table
// per sample and reduces them (sum or mean) into one dense vector that feeds
// the interaction layer. Kernels here consume *stored* (quantized) rows and
// fuse dequantization with accumulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "embedding/quantization.h"

namespace sdm {

enum class PoolingMode : uint8_t { kSum, kMean };

/// Pools a batch of stored rows into `out` (sized dim). `rows` are the
/// stored bytes of each gathered row.
void PoolRows(DataType dtype, PoolingMode mode,
              std::span<const std::span<const uint8_t>> rows, std::span<float> out);

/// Reference pooling over already-dequantized vectors (for goldens).
void PoolDense(PoolingMode mode, std::span<const std::vector<float>> rows,
               std::span<float> out);

/// CPU-cost model for one pooled lookup: dequant+accumulate cost scales with
/// pooled bytes; used by the simulator to charge virtual ns for operator
/// execution. Calibrated to a few GB/s of dequant throughput per core.
struct PoolingCostModel {
  double dequant_bytes_per_sec = 4e9;  ///< int8 dequant+add throughput
  double pool_fp32_bytes_per_sec = 8e9;  ///< fp32 add throughput (pre-dequantized)

  [[nodiscard]] SimDuration DequantPoolCost(Bytes stored_bytes) const {
    return Seconds(static_cast<double>(stored_bytes) / dequant_bytes_per_sec);
  }
  [[nodiscard]] SimDuration DensePoolCost(Bytes fp32_bytes) const {
    return Seconds(static_cast<double>(fp32_bytes) / pool_fp32_bytes_per_sec);
  }
};

}  // namespace sdm
