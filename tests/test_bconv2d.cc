// LceBConv2d tests -- the heart of the engine. The key property: for any
// +/-1 input and weights,
//   BConv2D(bitpack(x)) == float_conv(sign(x), sign(w))
// for every padding mode (one-padding, zero-padding with correction, VALID),
// stride, and output type (float with fused transform, thresholded
// bitpacked, raw int32).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "kernels/bconv2d.h"
#include "kernels/reference.h"

namespace lce {
namespace {

struct Problem {
  Conv2DGeometry geo;
  Tensor input_float;     // +/-1 values
  Tensor input_packed;    // bitpacked
  std::vector<float> weights;  // +/-1 OHWI
};

Problem MakeProblem(int h, int w, int in_c, int out_c, int k, int stride,
                    Padding pad, std::uint64_t seed) {
  Problem p;
  p.geo.batch = 1;
  p.geo.in_h = h;
  p.geo.in_w = w;
  p.geo.in_c = in_c;
  p.geo.out_c = out_c;
  p.geo.filter_h = p.geo.filter_w = k;
  p.geo.stride_h = p.geo.stride_w = stride;
  p.geo.padding = pad;

  Rng rng(seed);
  p.input_float = Tensor(DataType::kFloat32, Shape{1, h, w, in_c});
  FillSigns(p.input_float, rng);
  p.input_packed = Tensor(DataType::kBitpacked, p.input_float.shape());
  BitpackTensor(p.input_float, p.input_packed);
  p.weights.resize(static_cast<std::size_t>(out_c) * k * k * in_c);
  for (auto& v : p.weights) v = rng.Sign();
  return p;
}

// Reference: float convolution of the +/-1 data. pad_value 1 for SAME_ONE,
// 0 for SAME_ZERO/VALID.
std::vector<float> Reference(const Problem& p, const float* mult,
                             const float* bias, Activation pre_act) {
  const float pad_value = p.geo.padding == Padding::kSameOne ? 1.0f : 0.0f;
  std::vector<float> conv(static_cast<std::size_t>(p.geo.out_h()) *
                          p.geo.out_w() * p.geo.out_c);
  RefConv2DFloat(p.input_float.data<float>(), p.weights.data(), p.geo,
                 pad_value, nullptr, nullptr, Activation::kNone, conv.data());
  // Apply pre-activation then mult/bias (the bconv transform order).
  for (std::size_t i = 0; i < conv.size(); ++i) {
    const int n = static_cast<int>(i % p.geo.out_c);
    float v = ApplyActivation(conv[i], pre_act);
    if (mult != nullptr) v *= mult[n];
    if (bias != nullptr) v += bias[n];
    conv[i] = v;
  }
  return conv;
}

class BConvGeometry
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, Padding>> {};  // h/w, in_c, out_c, stride

TEST_P(BConvGeometry, FloatOutputMatchesReference) {
  const auto [hw, in_c, out_c, stride, pad] = GetParam();
  for (int k : {1, 3, 5}) {
    if (k == 1 && pad != Padding::kValid) continue;
    const Problem p = MakeProblem(hw, hw, in_c, out_c, k, stride, pad,
                                  hw * 31 + in_c + out_c * 3 + stride);
    BConv2DAttrs attrs;
    attrs.geo = p.geo;
    attrs.output_type = BConvOutputType::kFloat;
    BConv2D op(p.weights.data(), attrs);

    Tensor out(DataType::kFloat32,
               Shape{1, p.geo.out_h(), p.geo.out_w(), out_c});
    gemm::Context ctx(1);
    op.Run(p.input_packed, out, ctx);

    const auto expected = Reference(p, nullptr, nullptr, Activation::kNone);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(out.data<float>()[i], expected[i])
          << "k=" << k << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, BConvGeometry,
    ::testing::Values(
        std::make_tuple(8, 32, 32, 1, Padding::kSameOne),
        std::make_tuple(8, 32, 32, 1, Padding::kSameZero),
        std::make_tuple(8, 32, 32, 1, Padding::kValid),
        std::make_tuple(7, 33, 17, 1, Padding::kSameOne),
        std::make_tuple(7, 33, 17, 1, Padding::kSameZero),
        std::make_tuple(9, 64, 40, 2, Padding::kSameOne),
        std::make_tuple(9, 64, 40, 2, Padding::kSameZero),
        std::make_tuple(10, 100, 64, 2, Padding::kValid),
        std::make_tuple(5, 256, 8, 1, Padding::kSameZero),
        std::make_tuple(12, 16, 128, 3, Padding::kSameOne),
        std::make_tuple(6, 512, 64, 1, Padding::kSameOne),
        std::make_tuple(4, 1024, 32, 1, Padding::kSameZero),
        std::make_tuple(11, 48, 96, 2, Padding::kValid),
        std::make_tuple(8, 64, 48, 1, Padding::kSameZero),
        std::make_tuple(7, 40, 17, 2, Padding::kSameOne),
        std::make_tuple(9, 96, 13, 2, Padding::kSameZero),
        std::make_tuple(6, 128, 64, 1, Padding::kValid)));

TEST(BConv2D, FusedMultiplierBiasAndPreActivation) {
  const Problem p = MakeProblem(6, 6, 64, 32, 3, 1, Padding::kSameOne, 17);
  Rng rng(18);
  std::vector<float> mult(32), bias(32);
  for (auto& v : mult) v = rng.Uniform(-0.1f, 0.1f);
  for (auto& v : bias) v = rng.Uniform(-2.0f, 2.0f);

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  attrs.pre_activation = Activation::kRelu;
  attrs.multiplier = mult;
  attrs.bias = bias;
  BConv2D op(p.weights.data(), attrs);

  Tensor out(DataType::kFloat32, Shape{1, 6, 6, 32});
  gemm::Context ctx(1);
  op.Run(p.input_packed, out, ctx);

  const auto expected =
      Reference(p, mult.data(), bias.data(), Activation::kRelu);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(out.data<float>()[i], expected[i], 1e-5f) << i;
  }
}

class BConvBitpackedOutput : public ::testing::TestWithParam<int> {};

TEST_P(BConvBitpackedOutput, MatchesSignOfReference) {
  const int seed = GetParam();
  const Problem p = MakeProblem(7, 7, 40, 48, 3, 1, Padding::kSameOne, seed);
  Rng rng(seed + 1);
  std::vector<float> mult(48), bias(48);
  // Include negative and zero multipliers to exercise flipped and constant
  // thresholds.
  for (int i = 0; i < 48; ++i) {
    mult[i] = (i % 5 == 0) ? 0.0f : rng.Uniform(-0.2f, 0.2f);
    bias[i] = rng.Uniform(-3.0f, 3.0f);
  }

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kBitpacked;
  attrs.pre_activation = Activation::kRelu;
  attrs.multiplier = mult;
  attrs.bias = bias;
  BConv2D op(p.weights.data(), attrs);

  // The unpacked output must be the sign of the transformed reference.
  const auto expected =
      Reference(p, mult.data(), bias.data(), Activation::kRelu);
  for (const int threads : {1, 4}) {
    Tensor out_packed(DataType::kBitpacked, Shape{1, 7, 7, 48});
    gemm::Context ctx(threads);
    op.Run(p.input_packed, out_packed, ctx);
    Tensor unpacked(DataType::kFloat32, Shape{1, 7, 7, 48});
    UnpackTensor(out_packed, unpacked);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(unpacked.data<float>()[i], SignValue(expected[i]))
          << "threads=" << threads << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BConvBitpackedOutput,
                         ::testing::Values(1, 2, 3, 4, 5, 100, 2024));

TEST(BConv2D, Int32OutputIsRawDot) {
  const Problem p = MakeProblem(4, 4, 32, 8, 3, 1, Padding::kValid, 33);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kInt32;
  BConv2D op(p.weights.data(), attrs);
  Tensor out(DataType::kInt32, Shape{1, 2, 2, 8});
  gemm::Context ctx(1);
  op.Run(p.input_packed, out, ctx);

  const auto expected = Reference(p, nullptr, nullptr, Activation::kNone);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(out.data<std::int32_t>()[i],
              static_cast<std::int32_t>(expected[i]));
  }
}

TEST(BConv2D, BitpackedWeightsConstructorMatchesFloat) {
  const Problem p = MakeProblem(6, 6, 50, 24, 3, 1, Padding::kSameZero, 55);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;

  BConv2D from_float(p.weights.data(), attrs);

  // Bitpack the weights per (channel, filter position), then build from bits.
  const int words = BitpackedWords(p.geo.in_c);
  std::vector<TBitpacked> packed(static_cast<std::size_t>(p.geo.out_c) * 9 *
                                 words);
  BitpackMatrix(p.weights.data(), static_cast<std::int64_t>(p.geo.out_c) * 9,
                p.geo.in_c, packed.data());
  BConv2D from_bits(packed.data(), attrs);

  Tensor out_a(DataType::kFloat32, Shape{1, 6, 6, 24});
  Tensor out_b(DataType::kFloat32, Shape{1, 6, 6, 24});
  gemm::Context ctx(1);
  from_float.Run(p.input_packed, out_a, ctx);
  from_bits.Run(p.input_packed, out_b, ctx);
  for (std::int64_t i = 0; i < out_a.num_elements(); ++i) {
    ASSERT_EQ(out_a.data<float>()[i], out_b.data<float>()[i]);
  }
}

// The bitpacked-weights constructor reads the caller's buffer only while it
// runs. Builds the kernel from a heap buffer, scribbles over the buffer and
// frees it, then checks Run against the float reference bit for bit: a
// kernel that kept pointing into the buffer would read flipped signs (or,
// under ASan, a freed allocation).
void CheckOutlivesWeightBuffer(int in_c, int out_c, int groups, Padding pad) {
  const int hw = 6;
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = hw;
  geo.in_c = in_c;
  geo.out_c = out_c;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = pad;

  Rng rng(in_c * 131 + out_c * 7 + groups);
  Tensor in_f(DataType::kFloat32, Shape{1, hw, hw, in_c});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  const int in_c_pg = in_c / groups;
  std::vector<float> w(static_cast<std::size_t>(out_c) * 9 * in_c_pg);
  for (auto& v : w) v = rng.Sign();

  const std::size_t words =
      static_cast<std::size_t>(out_c) * 9 * BitpackedWords(in_c_pg);
  auto packed = std::make_unique<TBitpacked[]>(words);
  BitpackMatrix(w.data(), static_cast<std::int64_t>(out_c) * 9, in_c_pg,
                packed.get());
  BConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.groups = groups;
  const BConv2D op(packed.get(), attrs);
  std::fill_n(packed.get(), words, ~TBitpacked{0});
  packed.reset();

  Tensor out(DataType::kFloat32, Shape{1, hw, hw, out_c});
  gemm::Context ctx(1);
  op.Run(in_b, out, ctx);
  std::vector<float> expected(static_cast<std::size_t>(hw) * hw * out_c);
  RefConv2DFloat(in_f.data<float>(), w.data(), geo,
                 pad == Padding::kSameOne ? 1.0f : 0.0f, nullptr, nullptr,
                 Activation::kNone, expected.data(), groups);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]) << i;
  }
}

TEST(BConv2D, PlainKernelOutlivesItsWeightBuffer) {
  CheckOutlivesWeightBuffer(50, 24, 1, Padding::kSameOne);
}

TEST(BConv2D, GroupedKernelOutlivesItsWeightBuffer) {
  CheckOutlivesWeightBuffer(64, 16, 2, Padding::kSameOne);
}

TEST(BConv2D, ZeroPaddedKernelOutlivesItsWeightBuffer) {
  // The correction table's weight sums come from the buffer too.
  CheckOutlivesWeightBuffer(50, 24, 1, Padding::kSameZero);
  CheckOutlivesWeightBuffer(64, 16, 2, Padding::kSameZero);
}

TEST(BConv2D, WeightCompressionIs32x) {
  const Problem p = MakeProblem(4, 4, 256, 256, 3, 1, Padding::kSameOne, 8);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  BConv2D op(p.weights.data(), attrs);
  const std::size_t float_bytes = p.weights.size() * sizeof(float);
  EXPECT_EQ(op.packed_weights_bytes() * 32, float_bytes);
  // The paper's example: 256 filters of 3x3x256 binary weights = 72 KiB.
  EXPECT_EQ(op.packed_weights_bytes(), 72u * 1024u);
}

TEST(BConv2D, StageTimesAreReported) {
  const Problem p = MakeProblem(8, 8, 64, 64, 3, 1, Padding::kSameOne, 66);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 8, 8, 64});
  gemm::Context ctx(1);
  BConvStageTimes times;
  op.Run(p.input_packed, out, ctx, &times);
  EXPECT_GE(times.im2col, 0.0);
  EXPECT_GT(times.gemm, 0.0);
  EXPECT_GE(times.transform, 0.0);
}

class BConvGroups : public ::testing::TestWithParam<int> {};

TEST_P(BConvGroups, MatchesPerGroupReference) {
  // A grouped binarized convolution must equal running each group's slice
  // through an independent dense binarized convolution.
  const int groups = GetParam();
  const int in_c = 64 * groups, out_c = 8 * groups, hw = 5;
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = hw;
  geo.in_c = in_c;
  geo.out_c = out_c;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameOne;

  Rng rng(groups * 41);
  Tensor in_f(DataType::kFloat32, Shape{1, hw, hw, in_c});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  // Grouped weights: [out_c][3][3][in_c/groups].
  const int in_c_pg = in_c / groups, out_c_pg = out_c / groups;
  std::vector<float> w(static_cast<std::size_t>(out_c) * 9 * in_c_pg);
  for (auto& v : w) v = rng.Sign();

  BConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.groups = groups;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D grouped(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, hw, hw, out_c});
  gemm::Context ctx(1);
  grouped.Run(in_b, out, ctx);

  // Reference: per group, slice input channels and run a dense bconv.
  for (int grp = 0; grp < groups; ++grp) {
    Tensor slice_f(DataType::kFloat32, Shape{1, hw, hw, in_c_pg});
    for (int p = 0; p < hw * hw; ++p) {
      std::memcpy(slice_f.data<float>() + static_cast<std::int64_t>(p) * in_c_pg,
                  in_f.data<float>() + static_cast<std::int64_t>(p) * in_c +
                      grp * in_c_pg,
                  in_c_pg * sizeof(float));
    }
    Tensor slice_b(DataType::kBitpacked, slice_f.shape());
    BitpackTensor(slice_f, slice_b);
    BConv2DAttrs dense_attrs;
    dense_attrs.geo = geo;
    dense_attrs.geo.in_c = in_c_pg;
    dense_attrs.geo.out_c = out_c_pg;
    dense_attrs.output_type = BConvOutputType::kFloat;
    BConv2D dense(w.data() + static_cast<std::size_t>(grp) * out_c_pg * 9 * in_c_pg,
                  dense_attrs);
    Tensor ref(DataType::kFloat32, Shape{1, hw, hw, out_c_pg});
    dense.Run(slice_b, ref, ctx);
    for (int p = 0; p < hw * hw; ++p) {
      for (int n = 0; n < out_c_pg; ++n) {
        ASSERT_EQ(out.data<float>()[p * out_c + grp * out_c_pg + n],
                  ref.data<float>()[p * out_c_pg + n])
            << "group " << grp << " pixel " << p << " channel " << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, BConvGroups, ::testing::Values(1, 2, 4));

TEST(BConv2D, GroupedZeroPaddingCorrection) {
  // Zero-padding correction must use the per-group fan-in.
  const int groups = 2, in_c = 64, out_c = 16, hw = 4;
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = hw;
  geo.in_c = in_c;
  geo.out_c = out_c;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(77);
  Tensor in_f(DataType::kFloat32, Shape{1, hw, hw, in_c});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(static_cast<std::size_t>(out_c) * 9 * (in_c / groups));
  for (auto& v : w) v = rng.Sign();

  BConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.groups = groups;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, hw, hw, out_c});
  gemm::Context ctx(1);
  op.Run(in_b, out, ctx);

  // Grouped float reference with zero padding.
  std::vector<float> expected(static_cast<std::size_t>(hw) * hw * out_c);
  RefConv2DFloat(in_f.data<float>(), w.data(), geo, /*pad_value=*/0.0f,
                 nullptr, nullptr, Activation::kNone, expected.data(),
                 groups);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]) << i;
  }
}

}  // namespace
}  // namespace lce
