// In-memory image of one quantized embedding table.
//
// An EmbeddingTableImage is the serialized artifact a trainer would publish:
// TableConfig + contiguous row-major quantized rows. The SDM store loads
// images onto the FM/SM tiers; tests use the deterministic generator to get
// bit-exact reference rows back.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "embedding/table_config.h"

namespace sdm {

class EmbeddingTableImage {
 public:
  /// Builds an image with all rows zero-quantized.
  explicit EmbeddingTableImage(TableConfig config);

  /// Deterministically generates row contents: row r's elements are drawn
  /// from a per-row RNG seeded with (seed, r), uniform in [-1, 1]. The same
  /// (config, seed) always produces identical bytes.
  [[nodiscard]] static EmbeddingTableImage GenerateRandom(TableConfig config, uint64_t seed);

  [[nodiscard]] const TableConfig& config() const { return config_; }
  [[nodiscard]] Bytes row_bytes() const { return config_.row_bytes(); }
  [[nodiscard]] uint64_t num_rows() const { return config_.num_rows; }
  [[nodiscard]] Bytes size_bytes() const { return data_.size(); }

  /// Stored (quantized) bytes of one row.
  [[nodiscard]] std::span<const uint8_t> Row(RowIndex row) const;
  [[nodiscard]] std::span<uint8_t> MutableRow(RowIndex row);

  /// Reference dequantization of one row (allocates; for tests/goldens).
  [[nodiscard]] std::vector<float> DequantizedRow(RowIndex row) const;

  /// Overwrites one row from float values (quantizing on the way in).
  Status SetRow(RowIndex row, std::span<const float> values);

  /// Raw bytes of the whole image (what gets written to a device).
  [[nodiscard]] std::span<const uint8_t> bytes() const { return data_; }

  /// 64-bit fingerprint of bytes(), folded 8 bytes at a time — the
  /// shared-device extent registry's content key. Only equality matters
  /// there. Collisions are guarded by the registry's (name, size) key
  /// components; images here are deterministic generator output, not
  /// adversarial input.
  [[nodiscard]] uint64_t ContentHash() const;

  /// The float values GenerateRandom would assign to `row` — reference data
  /// for tests without materializing a second image.
  [[nodiscard]] static std::vector<float> ReferenceRowValues(const TableConfig& config,
                                                             uint64_t seed, RowIndex row);

 private:
  struct Unfilled {};
  /// Sized image of zero bytes without the zero rows' quant params; the
  /// caller writes every row.
  EmbeddingTableImage(TableConfig config, Unfilled);

  /// Fills `out` (dim floats) with row `row`'s generated values.
  static void FillRowValues(uint64_t seed, RowIndex row, std::span<float> out);

  TableConfig config_;
  std::vector<uint8_t> data_;
};

}  // namespace sdm
