// Quantized Conv2D tests: the int8 kernel must approximate the float
// convolution of the dequantized data to within quantization error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/random.h"
#include "kernels/conv2d_int8.h"
#include "kernels/reference.h"

namespace lce {
namespace {

TEST(Conv2DInt8, ApproximatesFloatConv) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 8;
  geo.in_c = 16;
  geo.out_c = 24;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(42);
  // Float data in [-1, 1]; weights in [-0.2, 0.2].
  std::vector<float> input_f(static_cast<std::size_t>(8) * 8 * 16);
  for (auto& v : input_f) v = rng.Uniform(-1.0f, 1.0f);
  std::vector<float> weights_f(static_cast<std::size_t>(24) * 9 * 16);
  for (auto& v : weights_f) v = rng.Uniform(-0.2f, 0.2f);

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = ChooseQuantParams(-1.0f, 1.0f);
  attrs.weight_quant = ChooseQuantParams(-0.2f, 0.2f, /*symmetric=*/true);
  attrs.output_quant = ChooseQuantParams(-8.0f, 8.0f);

  // Quantize operands.
  Tensor input_q(DataType::kInt8, Shape{1, 8, 8, 16});
  for (std::size_t i = 0; i < input_f.size(); ++i) {
    input_q.data<std::int8_t>()[i] = QuantizeValue(input_f[i], attrs.input_quant);
  }
  std::vector<std::int8_t> weights_q(weights_f.size());
  for (std::size_t i = 0; i < weights_f.size(); ++i) {
    weights_q[i] = QuantizeValue(weights_f[i], attrs.weight_quant);
  }

  Conv2DInt8 op(weights_q.data(), attrs);
  Tensor out_q(DataType::kInt8, Shape{1, 8, 8, 24});
  gemm::Context ctx(1);
  op.Run(input_q, out_q, ctx);

  // Float reference on the *dequantized* operands (so only output
  // requantization error remains).
  std::vector<float> input_dq(input_f.size());
  for (std::size_t i = 0; i < input_f.size(); ++i) {
    input_dq[i] = DequantizeValue(input_q.data<std::int8_t>()[i], attrs.input_quant);
  }
  std::vector<float> weights_dq(weights_f.size());
  for (std::size_t i = 0; i < weights_f.size(); ++i) {
    weights_dq[i] = DequantizeValue(weights_q[i], attrs.weight_quant);
  }
  std::vector<float> expected(out_q.num_elements());
  RefConv2DFloat(input_dq.data(), weights_dq.data(), geo, 0.0f, nullptr,
                 nullptr, Activation::kNone, expected.data());

  for (std::int64_t i = 0; i < out_q.num_elements(); ++i) {
    const float got =
        DequantizeValue(out_q.data<std::int8_t>()[i], attrs.output_quant);
    ASSERT_NEAR(got, expected[i], 2.0f * attrs.output_quant.scale) << i;
  }
}

TEST(Conv2DInt8, FusedReluClampsAtZeroPoint) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 4;
  geo.in_c = 8;
  geo.out_c = 8;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(11);
  Tensor input_q(DataType::kInt8, Shape{1, 4, 4, 8});
  FillInt8(input_q, rng);
  std::vector<std::int8_t> weights_q(static_cast<std::size_t>(8) * 9 * 8);
  for (auto& v : weights_q) v = rng.Int8(-127, 127);

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.activation = Activation::kRelu;
  attrs.input_quant = {0.02f, 3};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.05f, -10};
  Conv2DInt8 op(weights_q.data(), attrs);
  Tensor out_q(DataType::kInt8, geo.batch == 1 ? Shape{1, 4, 4, 8} : Shape{});
  gemm::Context ctx(1);
  op.Run(input_q, out_q, ctx);

  // ReLU in the quantized domain: no output below the zero point.
  for (std::int64_t i = 0; i < out_q.num_elements(); ++i) {
    EXPECT_GE(out_q.data<std::int8_t>()[i], -10);
  }
}

TEST(Conv2DInt8, ZeroPointPaddingContributesNothing) {
  // With input == zero_point everywhere, every output must be the bias-only
  // value regardless of padding: quantized convolution of "all real zeros".
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 5;
  geo.in_c = 4;
  geo.out_c = 4;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = {0.1f, 7};
  attrs.weight_quant = {0.01f, 0};
  attrs.output_quant = {0.1f, 0};

  Tensor input_q(DataType::kInt8, Shape{1, 5, 5, 4});
  std::fill_n(input_q.data<std::int8_t>(), input_q.num_elements(),
              static_cast<std::int8_t>(7));
  Rng rng(14);
  std::vector<std::int8_t> weights_q(static_cast<std::size_t>(4) * 9 * 4);
  for (auto& v : weights_q) v = rng.Int8(-127, 127);

  Conv2DInt8 op(weights_q.data(), attrs);
  Tensor out_q(DataType::kInt8, Shape{1, 5, 5, 4});
  gemm::Context ctx(1);
  op.Run(input_q, out_q, ctx);
  for (std::int64_t i = 0; i < out_q.num_elements(); ++i) {
    EXPECT_EQ(out_q.data<std::int8_t>()[i], 0) << i;
  }
}

TEST(Conv2DInt8, SaturatedRequantStaysOnItsRail) {
  // s_in * s_w / s_out = 1e6 saturates the fixed-point product at the int32
  // rail; adding z_out there used to wrap to the opposite rail, in the
  // kernel and the reference alike.
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 2;
  geo.in_c = 1;
  geo.out_c = 1;
  geo.filter_h = geo.filter_w = 1;
  geo.padding = Padding::kValid;
  for (const std::int8_t w : {std::int8_t{127}, std::int8_t{-127}}) {
    for (const std::int32_t z_out : {-5, 5}) {
      Conv2DInt8Attrs attrs;
      attrs.geo = geo;
      attrs.input_quant = {1.0f, 0};
      attrs.weight_quant = {1.0f, 0};
      attrs.output_quant = {1e-6f, z_out};
      Tensor input_q(DataType::kInt8, Shape{1, 2, 2, 1});
      std::fill_n(input_q.data<std::int8_t>(), 4, std::int8_t{127});
      Conv2DInt8 op(&w, attrs);
      Tensor out_q(DataType::kInt8, Shape{1, 2, 2, 1});
      gemm::Context ctx(1);
      op.Run(input_q, out_q, ctx);
      std::int8_t ref[4];
      const float weight_scale = 1.0f;
      RefConv2DInt8(input_q.data<std::int8_t>(), &w, geo, attrs.input_quant,
                    &weight_scale, attrs.output_quant, nullptr,
                    Activation::kNone, ref);
      const int want = w > 0 ? 127 : -128;
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(out_q.data<std::int8_t>()[i], want) << "z_out " << z_out;
        EXPECT_EQ(ref[i], want) << "z_out " << z_out;
      }
    }
  }
}

}  // namespace
}  // namespace lce
