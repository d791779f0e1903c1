#include "embedding/embedding_table.h"

#include <cassert>

namespace sdm {

EmbeddingTableImage::EmbeddingTableImage(TableConfig config) : config_(std::move(config)) {
  assert(config_.dim > 0);
  data_.assign(config_.row_bytes() * config_.num_rows, 0);
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

std::vector<float> EmbeddingTableImage::ReferenceRowValues(const TableConfig& config,
                                                           uint64_t seed, RowIndex row) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (row + 1)));
  std::vector<float> values(config.dim);
  for (auto& v : values) v = static_cast<float>(rng.NextDouble(-1.0, 1.0));
  return values;
}

EmbeddingTableImage EmbeddingTableImage::GenerateRandom(TableConfig config, uint64_t seed) {
  EmbeddingTableImage image(std::move(config));
  std::vector<uint8_t> row_buf(image.row_bytes());
  for (uint64_t r = 0; r < image.num_rows(); ++r) {
    const std::vector<float> values = ReferenceRowValues(image.config_, seed, r);
    QuantizeRow(image.config_.dtype, values, row_buf);
    std::copy(row_buf.begin(), row_buf.end(),
              image.data_.begin() + static_cast<ptrdiff_t>(r * row_buf.size()));
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
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint8_t b : data_) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace sdm
