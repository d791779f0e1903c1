// Tests for src/embedding: quantization kernels, table images, pruning /
// de-pruning, pooling.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "embedding/embedding_table.h"
#include "embedding/pooling.h"
#include "embedding/pruning.h"
#include "embedding/quantization.h"
#include "reference_image_generator.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// Half-precision conversions.
// ---------------------------------------------------------------------------

TEST(Half, ExactValuesRoundTrip) {
  for (const float f : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(f)), f) << f;
  }
}

TEST(Half, RelativeErrorBounded) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const auto f = static_cast<float>(rng.NextDouble(-1000.0, 1000.0));
    const float back = HalfToFloat(FloatToHalf(f));
    EXPECT_NEAR(back, f, std::fabs(f) * 0x1.0p-10f + 1e-6f);
  }
}

TEST(Half, OverflowGoesToInfinity) {
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(1e6f))));
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(-1e6f))));
}

TEST(Half, SubnormalsSurvive) {
  const float tiny = 3.0e-7f;  // below half's normal range (~6.1e-5)
  const float back = HalfToFloat(FloatToHalf(tiny));
  EXPECT_GT(back, 0.0f);
  EXPECT_NEAR(back, tiny, 6e-8f);
}

TEST(Half, SignedZero) {
  EXPECT_EQ(FloatToHalf(-0.0f) & 0x8000, 0x8000);
  EXPECT_EQ(HalfToFloat(FloatToHalf(-0.0f)), 0.0f);
}

// ---------------------------------------------------------------------------
// StoredRowBytes.
// ---------------------------------------------------------------------------

TEST(RowLayout, StoredBytesPerType) {
  EXPECT_EQ(StoredRowBytes(DataType::kFp32, 64), 256u);
  EXPECT_EQ(StoredRowBytes(DataType::kFp16, 64), 128u);
  EXPECT_EQ(StoredRowBytes(DataType::kInt8Rowwise, 64), 72u);  // paper's example
  EXPECT_EQ(StoredRowBytes(DataType::kInt4Rowwise, 64), 36u);
  EXPECT_EQ(StoredRowBytes(DataType::kInt4Rowwise, 63), 36u);  // odd dim packs
}

// ---------------------------------------------------------------------------
// Quantize / dequantize round trips.
// ---------------------------------------------------------------------------

struct QuantCase {
  DataType type;
  uint32_t dim;
};

class QuantRoundTrip : public ::testing::TestWithParam<QuantCase> {};

TEST_P(QuantRoundTrip, ErrorWithinBound) {
  const auto [type, dim] = GetParam();
  Rng rng(42 + dim);
  std::vector<float> values(dim);
  float lo = 1e9f;
  float hi = -1e9f;
  for (auto& v : values) {
    v = static_cast<float>(rng.NextDouble(-2.0, 2.0));
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::vector<uint8_t> stored(StoredRowBytes(type, dim));
  QuantizeRow(type, values, stored);
  std::vector<float> back(dim);
  DequantizeRow(type, stored, back);
  const float bound = MaxAbsError(type, lo, hi) + 1e-6f;
  for (uint32_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(back[i], values[i], bound) << ToString(type) << " dim=" << dim << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypesAndDims, QuantRoundTrip,
    ::testing::Values(QuantCase{DataType::kFp32, 1}, QuantCase{DataType::kFp32, 64},
                      QuantCase{DataType::kFp16, 16}, QuantCase{DataType::kFp16, 128},
                      QuantCase{DataType::kInt8Rowwise, 4},
                      QuantCase{DataType::kInt8Rowwise, 64},
                      QuantCase{DataType::kInt8Rowwise, 255},
                      QuantCase{DataType::kInt4Rowwise, 8},
                      QuantCase{DataType::kInt4Rowwise, 63},
                      QuantCase{DataType::kInt4Rowwise, 128}));

TEST(Quantize, Fp32IsExact) {
  std::vector<float> values = {1.5f, -2.25f, 3.75f};
  std::vector<uint8_t> stored(12);
  QuantizeRow(DataType::kFp32, values, stored);
  std::vector<float> back(3);
  DequantizeRow(DataType::kFp32, stored, back);
  EXPECT_EQ(back, values);
}

TEST(Quantize, ConstantRowIsExact) {
  std::vector<float> values(32, 0.7f);
  std::vector<uint8_t> stored(StoredRowBytes(DataType::kInt8Rowwise, 32));
  QuantizeRow(DataType::kInt8Rowwise, values, stored);
  std::vector<float> back(32);
  DequantizeRow(DataType::kInt8Rowwise, stored, back);
  for (const float b : back) EXPECT_FLOAT_EQ(b, 0.7f);
}

TEST(Quantize, EndpointsExactInt8) {
  // Row min and max map to codes 0 and 255 and reconstruct exactly
  // (within float rounding).
  std::vector<float> values = {-3.0f, 0.1f, 5.0f};
  std::vector<uint8_t> stored(StoredRowBytes(DataType::kInt8Rowwise, 3));
  QuantizeRow(DataType::kInt8Rowwise, values, stored);
  std::vector<float> back(3);
  DequantizeRow(DataType::kInt8Rowwise, stored, back);
  EXPECT_NEAR(back[0], -3.0f, 1e-5f);
  EXPECT_NEAR(back[2], 5.0f, 1e-3f);
}

TEST(Quantize, AccumulateMatchesDequantPlusAdd) {
  Rng rng(7);
  std::vector<float> values(48);
  for (auto& v : values) v = static_cast<float>(rng.NextDouble(-1, 1));
  std::vector<uint8_t> stored(StoredRowBytes(DataType::kInt4Rowwise, 48));
  QuantizeRow(DataType::kInt4Rowwise, values, stored);

  std::vector<float> acc1(48, 0.5f);
  DequantizeAccumulate(DataType::kInt4Rowwise, stored, acc1);

  std::vector<float> tmp(48);
  DequantizeRow(DataType::kInt4Rowwise, stored, tmp);
  for (uint32_t i = 0; i < 48; ++i) {
    EXPECT_FLOAT_EQ(acc1[i], 0.5f + tmp[i]);
  }
}

// ---------------------------------------------------------------------------
// EmbeddingTableImage.
// ---------------------------------------------------------------------------

TableConfig SmallConfig(DataType dtype = DataType::kInt8Rowwise) {
  TableConfig cfg;
  cfg.name = "t";
  cfg.num_rows = 100;
  cfg.dim = 16;
  cfg.dtype = dtype;
  return cfg;
}

TEST(TableImage, GenerateIsDeterministic) {
  const auto a = EmbeddingTableImage::GenerateRandom(SmallConfig(), 5);
  const auto b = EmbeddingTableImage::GenerateRandom(SmallConfig(), 5);
  ASSERT_EQ(a.size_bytes(), b.size_bytes());
  EXPECT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(), b.bytes().begin()));
}

TEST(TableImage, DifferentSeedsDiffer) {
  const auto a = EmbeddingTableImage::GenerateRandom(SmallConfig(), 5);
  const auto b = EmbeddingTableImage::GenerateRandom(SmallConfig(), 6);
  EXPECT_FALSE(std::equal(a.bytes().begin(), a.bytes().end(), b.bytes().begin()));
}

TEST(TableImage, RowMatchesReferenceValues) {
  const TableConfig cfg = SmallConfig();
  const auto image = EmbeddingTableImage::GenerateRandom(cfg, 9);
  for (RowIndex r : {RowIndex{0}, RowIndex{57}, RowIndex{99}}) {
    const auto ref = EmbeddingTableImage::ReferenceRowValues(cfg, 9, r);
    const auto got = image.DequantizedRow(r);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 2.0f / 255.0f + 1e-5f);
    }
  }
}

TEST(TableImage, SetRowOverwrites) {
  auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 3);
  std::vector<float> new_row(16, 0.25f);
  ASSERT_TRUE(image.SetRow(42, new_row).ok());
  const auto back = image.DequantizedRow(42);
  for (const float v : back) EXPECT_NEAR(v, 0.25f, 1e-5f);
}

TEST(TableImage, SetRowValidation) {
  auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 3);
  std::vector<float> bad_dim(7);
  EXPECT_EQ(image.SetRow(0, bad_dim).code(), StatusCode::kInvalidArgument);
  std::vector<float> ok(16);
  EXPECT_EQ(image.SetRow(1000, ok).code(), StatusCode::kOutOfRange);
}

TEST(TableImage, ZeroConstructedRowsDequantizeToZero) {
  EmbeddingTableImage image(SmallConfig(DataType::kInt4Rowwise));
  const auto row = image.DequantizedRow(7);
  for (const float v : row) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(TableImage, SizeBytesMatchesConfig) {
  const auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 1);
  EXPECT_EQ(image.size_bytes(), 100u * (16 + 8));
}

// ---------------------------------------------------------------------------
// One-pass generator, finite-row quantizer and word-wise hash, pinned to the
// scalar code they replaced (tests/reference_image_generator.h).
// ---------------------------------------------------------------------------

constexpr DataType kAllTypes[] = {DataType::kFp32, DataType::kFp16, DataType::kInt8Rowwise,
                                  DataType::kInt4Rowwise};

std::vector<uint8_t> ToVector(std::span<const uint8_t> s) { return {s.begin(), s.end()}; }

TEST(ImageGenerator, MatchesScalarReferenceByteForByte) {
  for (const DataType dtype : kAllTypes) {
    for (const uint32_t dim : {1u, 2u, 3u, 7u, 8u, 31u, 32u, 56u, 64u, 120u, 127u}) {
      for (const uint64_t seed : {uint64_t{1}, uint64_t{0x5eed}, ~uint64_t{0}}) {
        TableConfig cfg = SmallConfig(dtype);
        cfg.dim = dim;
        cfg.num_rows = 37;
        const auto image = EmbeddingTableImage::GenerateRandom(cfg, seed);
        ASSERT_EQ(ToVector(image.bytes()), reference::GenerateRandom(cfg, seed))
            << ToString(dtype) << " dim " << dim << " seed " << seed;
        for (const RowIndex r : {RowIndex{0}, RowIndex{36}}) {
          EXPECT_EQ(EmbeddingTableImage::ReferenceRowValues(cfg, seed, r),
                    reference::ReferenceRowValues(cfg, seed, r));
        }
      }
    }
  }
}

/// Rows that leave the finite fast path or sit on its edges.
std::vector<std::vector<float>> AdversarialRows() {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  std::vector<std::vector<float>> rows = {
      {kNan, 0.5f, -0.25f, 1.0f},
      {0.5f, -0.25f, 1.0f, kNan},
      {kNan, kNan, kNan},
      {kInf, 0.0f, 1.0f},
      {-kInf, 0.0f, 1.0f},
      {kInf, -kInf, 0.0f, 2.0f, 3.0f},
      {0.0f, -0.0f, 0.0f, -0.0f, 0.0f},
      {-0.0f, 0.0f, -0.0f},
      {-0.0f, 0.0f, 1.0f, -0.0f},
      {0.75f, 0.75f, 0.75f, 0.75f, 0.75f},
      {-3.0f},
      {kMax, -kMax, 0.0f, 1.0f},
      {kMax, kMax / 2, kMax / 4},
      {-kMax, -kMax / 3, 0.0f},
      {kDenorm, 0.0f, 2 * kDenorm},
      {kDenorm, -kDenorm, 0.0f, kDenorm},
      {1e-38f, 2e-38f, 0.0f},
      {kDenorm * 255, 0.0f, kDenorm * 100},
      {1.0f, 1.0f + 1e-7f, 1.0f},
  };
  // Rounding ties: with span == levels every code lands on k + 0.5 (255
  // for int8, 15 for int4; the other dtype sees a scaled copy).
  for (const float levels : {255.0f, 15.0f}) {
    std::vector<float> ties = {0.0f, levels};
    for (float k = 0.5f; k < levels; k += 1.0f) ties.push_back(k);
    rows.push_back(ties);
  }
  return rows;
}

TEST(ImageGenerator, QuantizeRowMatchesScalarReferenceOnAdversarialRows) {
  std::vector<std::vector<float>> rows = AdversarialRows();
  // Random rows at random scales, some salted with the special values.
  Rng rng(0xad);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::denorm_min(), -0.0f, 0.0f, 0.5f};
  for (int i = 0; i < 3000; ++i) {
    std::vector<float> row(1 + rng.NextBounded(130));
    const double scale = std::ldexp(1.0, static_cast<int>(rng.NextBounded(280)) - 150);
    for (auto& v : row) v = static_cast<float>(rng.NextDouble(-1, 1) * scale);
    if (rng.NextBernoulli(0.3)) row[rng.NextBounded(row.size())] = specials[rng.NextBounded(8)];
    rows.push_back(std::move(row));
  }
  for (const DataType dtype : kAllTypes) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto dim = static_cast<uint32_t>(rows[i].size());
      std::vector<uint8_t> got(StoredRowBytes(dtype, dim), 0xcc);
      std::vector<uint8_t> want(StoredRowBytes(dtype, dim), 0x33);
      QuantizeRow(dtype, rows[i], got);
      reference::QuantizeRow(dtype, rows[i], want);
      ASSERT_EQ(got, want) << ToString(dtype) << " row " << i;
    }
  }
}

TEST(ImageGenerator, EqualImagesHashEqualAndDifferentOnesDiffer) {
  const TableConfig cfg = SmallConfig();
  const auto a = EmbeddingTableImage::GenerateRandom(cfg, 5);
  const auto b = EmbeddingTableImage::GenerateRandom(cfg, 5);
  const EmbeddingTableImage copy = a;
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_EQ(a.ContentHash(), copy.ContentHash());
  EXPECT_NE(a.ContentHash(), EmbeddingTableImage::GenerateRandom(cfg, 6).ContentHash());

  // Every single-byte change of a 3-row image whose size is no multiple of
  // 8 (so the tail word counts) gives a distinct hash, as the byte-at-a-time
  // reference does.
  TableConfig odd = SmallConfig(DataType::kFp16);
  odd.dim = 3;
  odd.num_rows = 3;
  const auto base = EmbeddingTableImage::GenerateRandom(odd, 2);
  ASSERT_NE(base.size_bytes() % 8, 0u);
  std::set<uint64_t> hashes = {base.ContentHash()};
  std::set<uint64_t> reference_hashes = {reference::ContentHash(base.bytes())};
  for (size_t byte = 0; byte < base.size_bytes(); ++byte) {
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}}) {
      EmbeddingTableImage changed = base;
      changed.MutableRow(byte / changed.row_bytes())[byte % changed.row_bytes()] ^= flip;
      hashes.insert(changed.ContentHash());
      reference_hashes.insert(reference::ContentHash(changed.bytes()));
    }
  }
  EXPECT_EQ(hashes.size(), reference_hashes.size());
  EXPECT_EQ(hashes.size(), 1 + 2 * base.size_bytes());

  // All-zero images of different lengths differ, word-aligned or not.
  std::set<uint64_t> zero_hashes;
  for (const uint64_t rows : {1, 2, 3, 4}) {
    TableConfig z = SmallConfig(DataType::kFp32);
    z.dim = 1;
    z.num_rows = rows;
    zero_hashes.insert(EmbeddingTableImage(z).ContentHash());
  }
  EXPECT_EQ(zero_hashes.size(), 4u);
}

// ---------------------------------------------------------------------------
// Pruning.
// ---------------------------------------------------------------------------

TEST(Pruning, KeepsRequestedFraction) {
  TableConfig cfg = SmallConfig();
  cfg.num_rows = 5000;
  const auto image = EmbeddingTableImage::GenerateRandom(cfg, 11);
  const PrunedTable pruned = PruneTable(image, 0.6, 77);
  EXPECT_NEAR(static_cast<double>(pruned.rows.num_rows()), 3000.0, 150.0);
  EXPECT_EQ(pruned.unpruned_num_rows, 5000u);
  EXPECT_EQ(pruned.mapping.map.size(), 5000u);
}

TEST(Pruning, MappingPointsToIdenticalBytes) {
  const auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 13);
  const PrunedTable pruned = PruneTable(image, 0.5, 78);
  for (RowIndex u = 0; u < pruned.unpruned_num_rows; ++u) {
    const auto mapped = pruned.mapping.Lookup(u);
    if (!mapped.has_value()) continue;
    const auto orig = image.Row(u);
    const auto kept = pruned.rows.Row(*mapped);
    EXPECT_TRUE(std::equal(orig.begin(), orig.end(), kept.begin())) << "row " << u;
  }
}

TEST(Pruning, MappingOutOfRangeIsNull) {
  const auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 13);
  const PrunedTable pruned = PruneTable(image, 0.5, 79);
  EXPECT_FALSE(pruned.mapping.Lookup(10'000).has_value());
}

TEST(Pruning, KeepAllPreservesEverything) {
  const auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 15);
  const PrunedTable pruned = PruneTable(image, 1.0, 80);
  EXPECT_EQ(pruned.rows.num_rows(), image.num_rows());
  for (RowIndex u = 0; u < image.num_rows(); ++u) {
    EXPECT_TRUE(pruned.mapping.Lookup(u).has_value());
  }
}

TEST(Depruning, RebuildsDenseTableWithZeros) {
  const auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 17);
  const PrunedTable pruned = PruneTable(image, 0.5, 81);
  const EmbeddingTableImage dense = DeprunedTable(pruned);
  EXPECT_EQ(dense.num_rows(), image.num_rows());
  for (RowIndex u = 0; u < image.num_rows(); ++u) {
    const auto mapped = pruned.mapping.Lookup(u);
    const auto row = dense.DequantizedRow(u);
    if (mapped.has_value()) {
      const auto orig = image.DequantizedRow(u);
      for (size_t i = 0; i < row.size(); ++i) EXPECT_FLOAT_EQ(row[i], orig[i]);
    } else {
      for (const float v : row) EXPECT_FLOAT_EQ(v, 0.0f);
    }
  }
}

TEST(Depruning, FootprintAccountsBothSides) {
  TableConfig cfg = SmallConfig();
  cfg.num_rows = 1000;
  const auto image = EmbeddingTableImage::GenerateRandom(cfg, 19);
  const PrunedTable pruned = PruneTable(image, 0.7, 82);
  const DepruneFootprint f = ComputeDepruneFootprint(pruned);
  EXPECT_EQ(f.fm_bytes_freed, 1000u * 4);  // 4-byte indices
  const uint64_t zero_rows = 1000 - pruned.rows.num_rows();
  EXPECT_EQ(f.sm_bytes_added, zero_rows * cfg.row_bytes());
}

// ---------------------------------------------------------------------------
// Pooling.
// ---------------------------------------------------------------------------

TEST(Pooling, SumMatchesReference) {
  const auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 21);
  const std::vector<RowIndex> rows = {1, 5, 9, 33};
  std::vector<std::span<const uint8_t>> stored;
  std::vector<std::vector<float>> dense;
  for (const RowIndex r : rows) {
    stored.push_back(image.Row(r));
    dense.push_back(image.DequantizedRow(r));
  }
  std::vector<float> out(16);
  PoolRows(DataType::kInt8Rowwise, PoolingMode::kSum, stored, out);
  std::vector<float> ref(16);
  PoolDense(PoolingMode::kSum, dense, ref);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_NEAR(out[i], ref[i], 1e-4f);
}

TEST(Pooling, MeanDividesByCount) {
  const auto image = EmbeddingTableImage::GenerateRandom(SmallConfig(), 23);
  std::vector<std::span<const uint8_t>> stored = {image.Row(2), image.Row(2)};
  std::vector<float> mean_out(16);
  PoolRows(DataType::kInt8Rowwise, PoolingMode::kMean, stored, mean_out);
  const auto single = image.DequantizedRow(2);
  for (size_t i = 0; i < 16; ++i) EXPECT_NEAR(mean_out[i], single[i], 1e-5f);
}

TEST(Pooling, EmptyInputGivesZeros) {
  std::vector<float> out(8, 123.0f);
  PoolRows(DataType::kInt8Rowwise, PoolingMode::kSum, {}, out);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Pooling, CostModelScalesWithBytes) {
  PoolingCostModel cost;
  EXPECT_GT(cost.DequantPoolCost(1024).nanos(), cost.DequantPoolCost(128).nanos());
  EXPECT_EQ(cost.DequantPoolCost(0).nanos(), 0);
}

}  // namespace
}  // namespace sdm
