#include "embedding/embedding_table.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace sdm {

EmbeddingTableImage::EmbeddingTableImage(TableConfig config, Unfilled)
    : config_(std::move(config)) {
  assert(config_.dim > 0);
  data_.resize(config_.row_bytes() * config_.num_rows);
}

EmbeddingTableImage::EmbeddingTableImage(TableConfig config)
    : EmbeddingTableImage(std::move(config), Unfilled{}) {
  // Zero rows must still carry valid quant params; QuantizeRow of a zero row
  // produces exactly that, so write each row once for quantized dtypes.
  if (config_.dtype == DataType::kInt8Rowwise || config_.dtype == DataType::kInt4Rowwise) {
    const std::vector<float> zeros(config_.dim, 0.0f);
    std::vector<uint8_t> row(config_.row_bytes());
    QuantizeRow(config_.dtype, zeros, row);
    for (uint64_t r = 0; r < config_.num_rows; ++r) {
      std::copy(row.begin(), row.end(), data_.begin() + static_cast<ptrdiff_t>(r * row.size()));
    }
  }
}

void EmbeddingTableImage::FillRowValues(uint64_t seed, RowIndex row, std::span<float> out) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (row + 1)));
  for (auto& v : out) v = static_cast<float>(rng.NextDouble(-1.0, 1.0));
}

std::vector<float> EmbeddingTableImage::ReferenceRowValues(const TableConfig& config,
                                                           uint64_t seed, RowIndex row) {
  std::vector<float> values(config.dim);
  FillRowValues(seed, row, values);
  return values;
}

EmbeddingTableImage EmbeddingTableImage::GenerateRandom(TableConfig config, uint64_t seed) {
  EmbeddingTableImage image(std::move(config), Unfilled{});
  std::vector<float> values(image.config_.dim);
  for (uint64_t r = 0; r < image.num_rows(); ++r) {
    FillRowValues(seed, r, values);
    QuantizeRow(image.config_.dtype, values, image.MutableRow(r));
  }
  return image;
}

std::span<const uint8_t> EmbeddingTableImage::Row(RowIndex row) const {
  assert(row < config_.num_rows);
  return std::span<const uint8_t>(data_.data() + row * row_bytes(), row_bytes());
}

std::span<uint8_t> EmbeddingTableImage::MutableRow(RowIndex row) {
  assert(row < config_.num_rows);
  return std::span<uint8_t>(data_.data() + row * row_bytes(), row_bytes());
}

std::vector<float> EmbeddingTableImage::DequantizedRow(RowIndex row) const {
  std::vector<float> out(config_.dim);
  DequantizeRow(config_.dtype, Row(row), out);
  return out;
}

Status EmbeddingTableImage::SetRow(RowIndex row, std::span<const float> values) {
  if (row >= config_.num_rows) return OutOfRangeError("row index beyond table");
  if (values.size() != config_.dim) return InvalidArgumentError("value count != dim");
  QuantizeRow(config_.dtype, values, MutableRow(row));
  return Status::Ok();
}

uint64_t EmbeddingTableImage::ContentHash() const {
  // FNV-style multiply per 64-bit word; the rotate feeds high bits back
  // down. A zero-padded tail word and the length finish the fold.
  constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h = 0xcbf29ce484222325ULL;
  const size_t n = data_.size();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, data_.data() + i, 8);
    h = std::rotl((h ^ w) * kPrime, 29);
  }
  if (i < n) {
    uint64_t w = 0;
    std::memcpy(&w, data_.data() + i, n - i);
    h = std::rotl((h ^ w) * kPrime, 29);
  }
  return Mix64(h ^ n);
}

}  // namespace sdm
