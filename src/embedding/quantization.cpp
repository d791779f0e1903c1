#include "embedding/quantization.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

namespace sdm {

const char* ToString(DataType t) {
  switch (t) {
    case DataType::kFp32: return "fp32";
    case DataType::kFp16: return "fp16";
    case DataType::kInt8Rowwise: return "int8_rowwise";
    case DataType::kInt4Rowwise: return "int4_rowwise";
  }
  return "unknown";
}

Bytes StoredRowBytes(DataType type, uint32_t dim) {
  switch (type) {
    case DataType::kFp32: return Bytes{4} * dim;
    case DataType::kFp16: return Bytes{2} * dim;
    case DataType::kInt8Rowwise: return Bytes{dim} + 8;            // + fp32 scale/bias
    case DataType::kInt4Rowwise: return Bytes{(dim + 1) / 2} + 4;  // + fp16 scale/bias
  }
  return 0;
}

uint16_t FloatToHalf(float f) {
  const uint32_t bits = std::bit_cast<uint32_t>(f);
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const int32_t exponent = static_cast<int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  uint32_t mantissa = bits & 0x7FFFFFu;

  if (exponent >= 0x1F) {
    // Overflow or inf/nan.
    const bool is_nan = ((bits >> 23) & 0xFF) == 0xFF && mantissa != 0;
    return static_cast<uint16_t>(sign | 0x7C00u | (is_nan ? 0x200u : 0));
  }
  if (exponent <= 0) {
    if (exponent < -10) return static_cast<uint16_t>(sign);  // underflow to 0
    // Subnormal half.
    mantissa |= 0x800000u;
    const int shift = 14 - exponent;
    uint32_t sub = mantissa >> shift;
    // Round to nearest even.
    const uint32_t rem = mantissa & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (sub & 1))) ++sub;
    return static_cast<uint16_t>(sign | sub);
  }
  // Normal half with round-to-nearest-even on the dropped 13 bits.
  uint32_t half = sign | (static_cast<uint32_t>(exponent) << 10) | (mantissa >> 13);
  const uint32_t rem = mantissa & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1))) ++half;
  return static_cast<uint16_t>(half);
}

float HalfToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exponent = (h >> 10) & 0x1F;
  const uint32_t mantissa = h & 0x3FFu;

  uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // +-0
    } else {
      // Subnormal: normalize.
      int e = -1;
      uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      bits = sign | (static_cast<uint32_t>(127 - 15 - e) << 23) | ((m & 0x3FFu) << 13);
    }
  } else if (exponent == 0x1F) {
    bits = sign | 0x7F800000u | (mantissa << 13);  // inf/nan
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(bits);
}

namespace {

struct RowRange {
  float lo;
  float scale_inv;  // levels / (hi - lo), 0 when hi == lo
  float scale;      // (hi - lo) / levels
  /// No NaN or inf among the values, span and scale: every scaled value is
  /// then in [0, levels] up to a rounding ulp.
  bool finite;
};

RowRange ComputeRange(std::span<const float> values, int levels) {
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();
  bool nan = false;
  for (const float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    nan |= std::isnan(v);
  }
  if (values.empty()) lo = hi = 0;
  RowRange r;
  r.lo = lo;
  const float span = hi - lo;
  r.scale = span > 0 ? span / static_cast<float>(levels) : 1.0f;
  r.scale_inv = span > 0 ? static_cast<float>(levels) / span : 0.0f;
  r.finite = !nan && std::isfinite(span) && std::isfinite(r.scale_inv);
  return r;
}

/// One code. A finite row rounds half-to-even by adding 2^23, which
/// leaves no fraction bits for 0 <= x < 2^22, so the FPU's default
/// rounding matches lrintf without a libm call. Other rows keep lrintf:
/// the stored bytes depend on what it returns for NaN and out-of-range
/// input.
template <bool kFinite>
uint32_t QuantizeValue(float v, const RowRange& r, int levels) {
  const float scaled = (v - r.lo) * r.scale_inv;
  if constexpr (kFinite) {
    const auto q = static_cast<int32_t>((scaled + 0x1.0p23f) - 0x1.0p23f);
    return static_cast<uint32_t>(std::min(q, levels));
  } else {
    const auto q = static_cast<int32_t>(std::lrintf(scaled));
    return static_cast<uint32_t>(std::clamp<int32_t>(q, 0, levels));
  }
}

/// Writes the code bytes of an int8 (levels 255) or packed int4 (levels
/// 15, low nibble = even element) row.
template <bool kFinite>
void WriteCodes(std::span<const float> values, const RowRange& r, int levels,
                std::span<uint8_t> dest) {
  if (levels == 255) {
    for (size_t i = 0; i < values.size(); ++i) {
      dest[i] = static_cast<uint8_t>(QuantizeValue<kFinite>(values[i], r, 255));
    }
    return;
  }
  const size_t packed = (values.size() + 1) / 2;
  for (size_t i = 0; i < packed; ++i) {
    const uint32_t lo_nibble = QuantizeValue<kFinite>(values[2 * i], r, 15);
    const uint32_t hi_nibble =
        2 * i + 1 < values.size() ? QuantizeValue<kFinite>(values[2 * i + 1], r, 15) : 0;
    dest[i] = static_cast<uint8_t>(lo_nibble | (hi_nibble << 4));
  }
}

/// Quantizes an int8 or int4 row's codes into `dest`; returns the range
/// whose scale and bias the caller stores after them.
RowRange QuantizeCodes(std::span<const float> values, int levels, std::span<uint8_t> dest) {
  const RowRange r = ComputeRange(values, levels);
  if (r.finite) {
    WriteCodes<true>(values, r, levels, dest);
  } else {
    WriteCodes<false>(values, r, levels, dest);
  }
  return r;
}

}  // namespace

void QuantizeRow(DataType type, std::span<const float> values, std::span<uint8_t> dest) {
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
      const RowRange r = QuantizeCodes(values, 255, dest);
      std::memcpy(dest.data() + values.size(), &r.scale, 4);
      std::memcpy(dest.data() + values.size() + 4, &r.lo, 4);
      return;
    }
    case DataType::kInt4Rowwise: {
      const RowRange r = QuantizeCodes(values, 15, dest);
      const size_t packed = (values.size() + 1) / 2;
      const uint16_t hscale = FloatToHalf(r.scale);
      const uint16_t hbias = FloatToHalf(r.lo);
      std::memcpy(dest.data() + packed, &hscale, 2);
      std::memcpy(dest.data() + packed + 2, &hbias, 2);
      return;
    }
  }
}

namespace {

// Shared decode loop: invokes op(i, value) for each element.
template <typename Op>
void DecodeRow(DataType type, std::span<const uint8_t> src, size_t dim, Op&& op) {
  switch (type) {
    case DataType::kFp32: {
      for (size_t i = 0; i < dim; ++i) {
        float v;
        std::memcpy(&v, src.data() + 4 * i, 4);
        op(i, v);
      }
      return;
    }
    case DataType::kFp16: {
      for (size_t i = 0; i < dim; ++i) {
        uint16_t h;
        std::memcpy(&h, src.data() + 2 * i, 2);
        op(i, HalfToFloat(h));
      }
      return;
    }
    case DataType::kInt8Rowwise: {
      float scale;
      float bias;
      std::memcpy(&scale, src.data() + dim, 4);
      std::memcpy(&bias, src.data() + dim + 4, 4);
      for (size_t i = 0; i < dim; ++i) {
        op(i, static_cast<float>(src[i]) * scale + bias);
      }
      return;
    }
    case DataType::kInt4Rowwise: {
      const size_t packed = (dim + 1) / 2;
      uint16_t hscale;
      uint16_t hbias;
      std::memcpy(&hscale, src.data() + packed, 2);
      std::memcpy(&hbias, src.data() + packed + 2, 2);
      const float scale = HalfToFloat(hscale);
      const float bias = HalfToFloat(hbias);
      for (size_t i = 0; i < dim; ++i) {
        const uint8_t byte = src[i / 2];
        const uint32_t code = (i % 2 == 0) ? (byte & 0x0F) : (byte >> 4);
        op(i, static_cast<float>(code) * scale + bias);
      }
      return;
    }
  }
}

}  // namespace

void DequantizeRow(DataType type, std::span<const uint8_t> src, std::span<float> out) {
  assert(src.size() == StoredRowBytes(type, static_cast<uint32_t>(out.size())));
  DecodeRow(type, src, out.size(), [&](size_t i, float v) { out[i] = v; });
}

void DequantizeAccumulate(DataType type, std::span<const uint8_t> src, std::span<float> acc) {
  assert(src.size() == StoredRowBytes(type, static_cast<uint32_t>(acc.size())));
  DecodeRow(type, src, acc.size(), [&](size_t i, float v) { acc[i] += v; });
}

float MaxAbsError(DataType type, float lo, float hi) {
  const float span = hi - lo;
  switch (type) {
    case DataType::kFp32: return 0.0f;
    case DataType::kFp16: {
      const float m = std::max(std::fabs(lo), std::fabs(hi));
      return m * 0x1.0p-11f;  // half has 11 significand bits
    }
    case DataType::kInt8Rowwise: return span / 255.0f * 0.5f;
    case DataType::kInt4Rowwise: {
      // Half-precision scale/bias add rounding on top of the code error.
      const float m = std::max(std::fabs(lo), std::fabs(hi));
      return span / 15.0f * 0.5f + m * 0x1.0p-9f;
    }
  }
  return 0.0f;
}

}  // namespace sdm
