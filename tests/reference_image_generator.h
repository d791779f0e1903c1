// Test-only reference: the scalar table-image generator, row quantizer and
// byte-at-a-time FNV-1a content hash that src/embedding replaced. Kept
// verbatim so embedding_test.cpp can pin the one-pass generator and the
// finite-row quantizer to them byte for byte.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "embedding/quantization.h"
#include "embedding/table_config.h"

namespace sdm::reference {

struct RowRange {
  float lo;
  float scale_inv;  // levels / (hi - lo), 0 when hi == lo
  float scale;      // (hi - lo) / levels
};

inline RowRange ComputeRange(std::span<const float> values, int levels) {
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();
  for (const float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (values.empty()) lo = hi = 0;
  RowRange r;
  r.lo = lo;
  const float span = hi - lo;
  r.scale = span > 0 ? span / static_cast<float>(levels) : 1.0f;
  r.scale_inv = span > 0 ? static_cast<float>(levels) / span : 0.0f;
  return r;
}

inline uint32_t QuantizeValue(float v, const RowRange& r, int levels) {
  const float scaled = (v - r.lo) * r.scale_inv;
  const auto q = static_cast<int32_t>(std::lrintf(scaled));
  return static_cast<uint32_t>(std::clamp<int32_t>(q, 0, levels));
}

inline void QuantizeRow(DataType type, std::span<const float> values, std::span<uint8_t> dest) {
  assert(dest.size() == StoredRowBytes(type, static_cast<uint32_t>(values.size())));
  switch (type) {
    case DataType::kFp32: {
      std::memcpy(dest.data(), values.data(), values.size() * 4);
      return;
    }
    case DataType::kFp16: {
      for (size_t i = 0; i < values.size(); ++i) {
        const uint16_t h = FloatToHalf(values[i]);
        std::memcpy(dest.data() + 2 * i, &h, 2);
      }
      return;
    }
    case DataType::kInt8Rowwise: {
      const RowRange r = ComputeRange(values, 255);
      for (size_t i = 0; i < values.size(); ++i) {
        dest[i] = static_cast<uint8_t>(QuantizeValue(values[i], r, 255));
      }
      std::memcpy(dest.data() + values.size(), &r.scale, 4);
      std::memcpy(dest.data() + values.size() + 4, &r.lo, 4);
      return;
    }
    case DataType::kInt4Rowwise: {
      const RowRange r = ComputeRange(values, 15);
      const size_t packed = (values.size() + 1) / 2;
      for (size_t i = 0; i < packed; ++i) {
        const uint32_t lo_nibble = QuantizeValue(values[2 * i], r, 15);
        const uint32_t hi_nibble =
            2 * i + 1 < values.size() ? QuantizeValue(values[2 * i + 1], r, 15) : 0;
        dest[i] = static_cast<uint8_t>(lo_nibble | (hi_nibble << 4));
      }
      const uint16_t hscale = FloatToHalf(r.scale);
      const uint16_t hbias = FloatToHalf(r.lo);
      std::memcpy(dest.data() + packed, &hscale, 2);
      std::memcpy(dest.data() + packed + 2, &hbias, 2);
      return;
    }
  }
}

inline std::vector<float> ReferenceRowValues(const TableConfig& config, uint64_t seed,
                                             RowIndex row) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (row + 1)));
  std::vector<float> values(config.dim);
  for (auto& v : values) v = static_cast<float>(rng.NextDouble(-1.0, 1.0));
  return values;
}

/// Bytes of EmbeddingTableImage::GenerateRandom(config, seed): the image
/// is zero-quant filled first, then every row is generated into a temporary
/// row and copied over.
inline std::vector<uint8_t> GenerateRandom(const TableConfig& config, uint64_t seed) {
  std::vector<uint8_t> data(config.row_bytes() * config.num_rows, 0);
  if (config.dtype == DataType::kInt8Rowwise || config.dtype == DataType::kInt4Rowwise) {
    const std::vector<float> zeros(config.dim, 0.0f);
    std::vector<uint8_t> row(config.row_bytes());
    reference::QuantizeRow(config.dtype, zeros, row);
    for (uint64_t r = 0; r < config.num_rows; ++r) {
      std::copy(row.begin(), row.end(), data.begin() + static_cast<ptrdiff_t>(r * row.size()));
    }
  }
  std::vector<uint8_t> row_buf(config.row_bytes());
  for (uint64_t r = 0; r < config.num_rows; ++r) {
    const std::vector<float> values = ReferenceRowValues(config, seed, r);
    reference::QuantizeRow(config.dtype, values, row_buf);
    std::copy(row_buf.begin(), row_buf.end(),
              data.begin() + static_cast<ptrdiff_t>(r * row_buf.size()));
  }
  return data;
}

/// The old ContentHash: FNV-1a, one byte at a time.
inline uint64_t ContentHash(std::span<const uint8_t> data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace sdm::reference
