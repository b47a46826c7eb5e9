// Bitwise tests of the int8 glue kernels against their scalar definitions:
// QuantizeInt8 must equal QuantizeValue byte for byte under both kernel
// profiles, and Int8RequantTransform must equal MultiplyByQuantizedMultiplier
// followed by a non-wrapping z_out add and the activation clamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/quantization.h"
#include "core/random.h"
#include "kernels/pipeline/output_transform.h"
#include "kernels/quantize_ops.h"

namespace lce {
namespace {

constexpr std::int32_t kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kInt32Max = std::numeric_limits<std::int32_t>::max();

// The values where rounding, the rails and NaN handling can go wrong.
std::vector<float> SpecialValues() {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::signaling_NaN(),
      inf,
      -inf,
      0.0f,
      -0.0f,
      0.49999997f,
      -0.49999997f,
      0x1p23f - 0.5f,
      -(0x1p23f - 0.5f),
      0x1p23f + 1.0f,
      -(0x1p23f + 1.0f),
      0x1p22f + 0.5f,
      -(0x1p22f + 0.5f),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::bit_cast<float>(0x007fffffu),  // largest denormal
      std::bit_cast<float>(0x807fffffu),
      FLT_MIN,
      -FLT_MIN,
      FLT_MAX,
      -FLT_MAX,
  };
  for (int k = -300; k <= 300; ++k) {
    v.push_back(static_cast<float>(k) + 0.5f);
    v.push_back(std::nextafter(static_cast<float>(k) + 0.5f, -inf));
    v.push_back(std::nextafter(static_cast<float>(k) + 0.5f, inf));
    v.push_back(static_cast<float>(k));
  }
  return v;
}

Tensor FloatTensor(const std::vector<float>& values) {
  Tensor t(DataType::kFloat32, Shape{static_cast<std::int64_t>(values.size())});
  std::copy(values.begin(), values.end(), t.data<float>());
  return t;
}

// Quantizes `input` under `profile` and expects QuantizeValue's bytes.
void ExpectMatchesQuantizeValue(const Tensor& input, const QuantParams& q,
                                gemm::KernelProfile profile) {
  Tensor out(DataType::kInt8, input.shape());
  QuantizeInt8(input, q, profile, out);
  const float* in = input.data<float>();
  const std::int8_t* got = out.data<std::int8_t>();
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < input.num_elements(); ++i) {
    const std::int8_t want = QuantizeValue(in[i], q);
    if (got[i] != want && ++mismatches <= 5) {
      ADD_FAILURE() << "value " << in[i] << " (bits 0x" << std::hex
                    << std::bit_cast<std::uint32_t>(in[i]) << std::dec
                    << ") scale " << q.scale << " zero point " << q.zero_point
                    << " profile " << static_cast<int>(profile) << ": got "
                    << int{got[i]} << ", QuantizeValue gives " << int{want};
    }
  }
  EXPECT_EQ(mismatches, 0);
}

const QuantParams kQuantParams[] = {
    {1.0f, 0},     {0.5f, -128}, {0.0235f, 127}, {1e-3f, 3},
    {3.7f, -5},    {1e-20f, 0},  {1e20f, -1},    {0.0078125f, 64},
};

TEST(QuantizeInt8, SpecialAndRandomValuesMatchQuantizeValue) {
  std::vector<float> values = SpecialValues();
  Rng rng(2011);
  for (int i = 0; i < 1000000; ++i) {
    values.push_back(
        std::bit_cast<float>(static_cast<std::uint32_t>(rng.Next())));
  }
  // Around the rails and the rounding midpoints of every scale used below.
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rng.Uniform(-300.0f, 300.0f));
  }
  values.push_back(1.0f);  // an element count that is not a multiple of 8
  ASSERT_NE(values.size() % 8, 0u);
  const Tensor input = FloatTensor(values);
  for (const QuantParams& q : kQuantParams) {
    for (const auto profile :
         {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
      ExpectMatchesQuantizeValue(input, q, profile);
    }
  }
}

TEST(QuantizeInt8, EveryTailLengthMatchesQuantizeValue) {
  // Lengths 0..40 cover an empty input, inputs shorter than one vector and
  // every remainder after the 8-lane steps.
  const std::vector<float> specials = SpecialValues();
  for (std::size_t count = 0; count <= 40; ++count) {
    const std::vector<float> values(specials.begin(),
                                    specials.begin() + count);
    const Tensor input = FloatTensor(values);
    for (const QuantParams& q : kQuantParams) {
      ExpectMatchesQuantizeValue(input, q, gemm::KernelProfile::kSimd);
    }
  }
}

TEST(DequantizeInt8, MatchesDequantizeValue) {
  Tensor in(DataType::kInt8, Shape{256});
  for (int i = 0; i < 256; ++i) {
    in.data<std::int8_t>()[i] = static_cast<std::int8_t>(i - 128);
  }
  for (const QuantParams& q : kQuantParams) {
    Tensor out(DataType::kFloat32, Shape{256});
    DequantizeInt8(in, q, out);
    for (int i = 0; i < 256; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(out.data<float>()[i]),
                std::bit_cast<std::uint32_t>(
                    DequantizeValue(in.data<std::int8_t>()[i], q)));
    }
  }
}

// The requant transform's definition, one element at a time: the int32 sum
// (kept in range by the test), the primitive, then z_out and the clamp in
// int64 so a saturated product cannot wrap to the opposite rail.
std::int8_t RequantOracle(std::int32_t acc, std::int32_t offset,
                          std::int32_t mult, int shift, std::int32_t z_out,
                          std::int32_t act_min, std::int32_t act_max) {
  const std::int64_t v = static_cast<std::int64_t>(acc) + offset;
  EXPECT_TRUE(v >= kInt32Min && v <= kInt32Max);
  const std::int64_t q =
      static_cast<std::int64_t>(MultiplyByQuantizedMultiplier(
          static_cast<std::int32_t>(v), mult, shift)) +
      z_out;
  return static_cast<std::int8_t>(
      std::clamp<std::int64_t>(q, act_min, act_max));
}

std::int32_t UniformIn(Rng& rng, std::int32_t lo, std::int32_t hi) {
  const auto span = static_cast<std::uint64_t>(std::int64_t{hi} - lo + 1);
  return static_cast<std::int32_t>(
      lo + static_cast<std::int64_t>(rng.UniformInt(span)));
}

// An accumulator that, after the channel's offset, hits an int32 extreme,
// zero, a small value or anything in range.
std::int32_t PickAcc(Rng& rng, std::int32_t offset) {
  std::int64_t v = 0;
  switch (rng.UniformInt(5)) {
    case 0: v = kInt32Max; break;
    case 1: v = kInt32Min; break;
    case 2: v = UniformIn(rng, -100, 100); break;
    case 3: v = UniformIn(rng, -(1 << 20), 1 << 20); break;
    default: v = UniformIn(rng, kInt32Min, kInt32Max);
  }
  return static_cast<std::int32_t>(
      std::clamp<std::int64_t>(v - offset, kInt32Min, kInt32Max));
}

struct RequantCase {
  int shift;
  bool per_channel, with_bias;
  std::int32_t z_in, z_out, act_min, act_max;
};

// Builds a transform for `c` with random multipliers, row sums and bias,
// applies it to random accumulators and compares every byte with the
// oracle.
void ExpectRequantMatchesOracle(const RequantCase& c, Rng& rng) {
  constexpr int kOutC = 19;  // not a multiple of any vector width
  constexpr int kRows = 24;
  const int nq = c.per_channel ? kOutC : 1;
  std::vector<std::int32_t> mult(nq);
  std::vector<int> shifts(nq);
  for (int q = 0; q < nq; ++q) {
    // QuantizeMultiplier's range [2^30, 2^31 - 1], both ends included.
    const std::uint64_t r = rng.UniformInt(4);
    mult[q] = r == 0 ? (1 << 30)
              : r == 1 ? kInt32Max
                       : UniformIn(rng, 1 << 30, kInt32Max);
    // Per channel, the neighbouring shifts ride along.
    shifts[q] = c.per_channel ? c.shift + q % 3 - 1 : c.shift;
  }
  std::vector<std::int32_t> row_sums(kOutC), bias;
  for (auto& s : row_sums) s = UniformIn(rng, -(1 << 16), 1 << 16);
  if (c.with_bias) {
    bias.resize(kOutC);
    for (auto& b : bias) b = UniformIn(rng, -(1 << 20), 1 << 20);
  }
  const pipeline::Int8RequantTransform transform(
      kOutC, c.z_in, c.z_out, row_sums.data(), bias, mult, shifts, c.act_min,
      c.act_max);

  std::vector<std::int32_t> offset(kOutC);
  for (int n = 0; n < kOutC; ++n) {
    offset[n] = (c.with_bias ? bias[n] : 0) - c.z_in * row_sums[n];
  }
  std::vector<std::int32_t> acc(kRows * kOutC);
  for (int i = 0; i < kRows * kOutC; ++i) {
    acc[i] = PickAcc(rng, offset[i % kOutC]);
  }
  // row0 = 1: the transform offsets the output, not the accumulators.
  std::vector<std::int8_t> out((kRows + 1) * kOutC, 0x55);
  transform.Apply(acc.data(), 1, kRows, out.data(), kOutC);
  for (int n = 0; n < kOutC; ++n) ASSERT_EQ(out[n], 0x55);
  for (int i = 0; i < kRows * kOutC; ++i) {
    const int n = i % kOutC;
    const int q = c.per_channel ? n : 0;
    ASSERT_EQ(out[kOutC + i],
              RequantOracle(acc[i], offset[n], mult[q], shifts[q], c.z_out,
                            c.act_min, c.act_max))
        << "shift " << shifts[q] << " mult " << mult[q] << " acc " << acc[i]
        << " offset " << offset[n] << " z_in " << c.z_in << " z_out "
        << c.z_out << " clamp [" << c.act_min << ", " << c.act_max << "]"
        << (c.per_channel ? " per-channel" : " per-tensor")
        << (c.with_bias ? " with bias" : "");
  }
}

TEST(Int8RequantTransform, MatchesMultiplyByQuantizedMultiplierAtEveryShift) {
  Rng rng(25);
  for (int shift = -40; shift <= 40; ++shift) {
    for (const bool per_channel : {false, true}) {
      for (const bool with_bias : {false, true}) {
        for (const std::int32_t z_in : {-128, 0, 127}) {
          // Both rails and a small zero point of either sign: a saturated
          // product plus a z_out of its sign must not wrap.
          for (const std::int32_t z_out : {-128, -5, 5, 127}) {
            // No clamp, then ReLU and ReLU6 (quantized 0 at z_out).
            const std::int32_t relu6_max = std::min(z_out + 40, 127);
            for (const auto& [lo, hi] :
                 {std::pair{-128, 127}, std::pair{z_out, 127},
                  std::pair{z_out, relu6_max}}) {
              ExpectRequantMatchesOracle(
                  {shift, per_channel, with_bias, z_in, z_out, lo, hi}, rng);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lce
