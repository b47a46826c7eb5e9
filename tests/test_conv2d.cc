// Full-precision convolution / depthwise / fully-connected kernel tests
// against the naive references; the float GEMM's convolutions (and a fully
// connected layer, its 1x1 case) must also agree bitwise across thread
// counts and kernel profiles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include "core/random.h"
#include "gemm/context.h"
#include "kernels/conv2d_float.h"
#include "kernels/depthwise_conv.h"
#include "kernels/reference.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

// Runs `op` on `input` at every thread count and kernel profile the float
// GEMM splits on, requires the outputs to agree bitwise, and returns them.
std::vector<float> RunEverywhere(const Conv2DFloat& op, const Tensor& input,
                                 const Shape& out_shape) {
  std::vector<float> first;
  for (int threads : {1, 3}) {
    for (auto profile :
         {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
      Tensor out(DataType::kFloat32, out_shape);
      gemm::Context ctx(threads, profile);
      op.Run(input, out, ctx);
      std::vector<float> got(out.data<float>(),
                             out.data<float>() + out.num_elements());
      if (first.empty()) {
        first = got;
      } else {
        EXPECT_EQ(std::memcmp(got.data(), first.data(),
                              got.size() * sizeof(float)),
                  0)
            << "threads=" << threads << " profile="
            << static_cast<int>(profile);
      }
    }
  }
  return first;
}

struct ConvCase {
  int batch, h, w, in_c, out_c, k, stride;
  Padding pad;
  Activation act;
};

void PrintTo(const ConvCase& c, std::ostream* os) {
  *os << c.batch << "x" << c.h << "x" << c.w << "x" << c.in_c << " -> "
      << c.out_c << ", " << c.k << "x" << c.k << "/" << c.stride
      << ", padding " << static_cast<int>(c.pad) << ", activation "
      << static_cast<int>(c.act);
}

class ConvFloatShapes : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvFloatShapes, MatchesReference) {
  const ConvCase c = GetParam();
  Conv2DGeometry geo;
  geo.batch = c.batch;
  geo.in_h = c.h;
  geo.in_w = c.w;
  geo.in_c = c.in_c;
  geo.out_c = c.out_c;
  geo.filter_h = geo.filter_w = c.k;
  geo.stride_h = geo.stride_w = c.stride;
  geo.padding = c.pad;

  Rng rng(c.h + c.in_c * 3 + c.out_c * 7 + c.k + c.stride +
          (c.batch - 1) * 1000 + (c.w - c.h) * 100);
  Tensor input(DataType::kFloat32, Shape{c.batch, c.h, c.w, c.in_c});
  FillUniform(input, rng);
  std::vector<float> weights(static_cast<std::size_t>(c.out_c) * c.k * c.k *
                             c.in_c);
  for (auto& v : weights) v = rng.Uniform();
  std::vector<float> bias(c.out_c);
  for (auto& v : bias) v = rng.Uniform();

  Conv2DFloatAttrs attrs;
  attrs.geo = geo;
  attrs.activation = c.act;
  attrs.bias = bias;
  Conv2DFloat op(weights.data(), attrs);
  const std::vector<float> got = RunEverywhere(
      op, input, Shape{c.batch, geo.out_h(), geo.out_w(), c.out_c});

  std::vector<float> expected(got.size());
  RefConv2DFloat(input.data<float>(), weights.data(), geo,
                 c.pad == Padding::kSameOne ? 1.0f : 0.0f, nullptr,
                 bias.data(), c.act, expected.data());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], expected[i],
                1e-4f * std::max(1.0f, std::abs(expected[i])))
        << i;
  }
}

// The output rows (batch * out_h * out_w) leave the last row tile of the
// float GEMM (kFloatMr rows: 12, 6 or 4 by build) partly empty, span
// several row blocks, or number fewer than one tile; 1x1 stride-1 cases
// read their rows in place, every other case gathers them.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvFloatShapes,
    ::testing::Values(
        ConvCase{1, 6, 6, 3, 8, 3, 1, Padding::kSameZero, Activation::kRelu},
        ConvCase{1, 8, 8, 16, 16, 3, 1, Padding::kValid, Activation::kRelu},
        ConvCase{1, 9, 9, 4, 20, 5, 2, Padding::kSameZero, Activation::kRelu},
        ConvCase{1, 12, 12, 3, 16, 7, 2, Padding::kSameZero,
                 Activation::kRelu},
        ConvCase{1, 5, 5, 10, 10, 1, 1, Padding::kValid, Activation::kRelu},
        ConvCase{1, 11, 11, 7, 33, 3, 2, Padding::kValid, Activation::kRelu},
        ConvCase{3, 7, 10, 5, 19, 3, 1, Padding::kSameZero,
                 Activation::kNone},
        ConvCase{3, 7, 10, 6, 17, 3, 2, Padding::kSameOne, Activation::kRelu},
        ConvCase{3, 7, 10, 4, 9, 3, 2, Padding::kValid, Activation::kRelu6},
        ConvCase{3, 7, 10, 3, 21, 5, 1, Padding::kSameOne,
                 Activation::kSigmoid},
        ConvCase{2, 9, 5, 8, 16, 3, 2, Padding::kSameZero,
                 Activation::kRelu6},
        ConvCase{3, 10, 7, 2, 5, 1, 2, Padding::kValid,
                 Activation::kSigmoid},
        // A 7x7/2 stem: 399 rows, several blocks, a partial last tile.
        ConvCase{1, 37, 41, 3, 16, 7, 2, Padding::kSameZero,
                 Activation::kRelu},
        ConvCase{2, 17, 15, 3, 16, 3, 2, Padding::kSameZero,
                 Activation::kRelu},
        // In place: 105 rows, not a multiple of 12, 6 or 4.
        ConvCase{3, 5, 7, 24, 20, 1, 1, Padding::kValid, Activation::kRelu6},
        // 1x1 but stride 2: gathered, not read in place.
        ConvCase{2, 9, 9, 16, 24, 1, 2, Padding::kSameZero,
                 Activation::kNone},
        // The top and bottom filter rows fall outside the image.
        ConvCase{2, 8, 11, 3, 10, 3, 1, Padding::kSameOne, Activation::kRelu},
        // Two output rows: fewer than one tile in every build.
        ConvCase{1, 2, 3, 4, 7, 3, 2, Padding::kSameOne, Activation::kRelu}));

TEST(Conv2DFloat, ScratchIsBlockSized) {
  // The float GEMM gathers each shard's patch rows one block at a time, so
  // its scratch (slot 0) does not grow with the image, and a 1x1 stride-1
  // convolution or a fully connected layer reads its rows in place.
  const auto slot0_high_water = [](const Conv2DGeometry& g) {
    telemetry::MetricsRegistry::Global().Reset();
    std::vector<float> weights(static_cast<std::size_t>(g.out_c) *
                               Im2ColDepthFloat(g));
    Conv2DFloatAttrs attrs;
    attrs.geo = g;
    const Conv2DFloat op(weights.data(), attrs);
    Tensor input(DataType::kFloat32, Shape{g.batch, g.in_h, g.in_w, g.in_c});
    input.Zero();
    Tensor out(DataType::kFloat32, Shape{g.batch, g.out_h(), g.out_w(),
                                         g.out_c});
    gemm::Context ctx(1);
    op.Run(input, out, ctx);
    return telemetry::MetricsRegistry::Global()
        .Gauge("gemm.scratch_bytes.slot0")
        ->value();
  };
  const auto conv = [](int hw, int in_c, int out_c, int k, int stride) {
    Conv2DGeometry g;
    g.in_h = g.in_w = hw;
    g.in_c = in_c;
    g.out_c = out_c;
    g.filter_h = g.filter_w = k;
    g.stride_h = g.stride_w = stride;
    g.padding = Padding::kSameZero;
    return g;
  };
  const Conv2DGeometry stem = conv(224, 3, 64, 7, 2);
  const std::int64_t stem_bytes = slot0_high_water(stem);
  EXPECT_GT(stem_bytes, 0);
  EXPECT_EQ(stem_bytes, slot0_high_water(conv(64, 3, 64, 7, 2)));
  // Image-sized panels: every patch row of the image.
  const std::int64_t image_bytes =
      Im2ColRows(stem) * Im2ColDepthFloat(stem) *
      static_cast<std::int64_t>(sizeof(float));
  EXPECT_LT(stem_bytes, image_bytes / 16);
  EXPECT_EQ(slot0_high_water(conv(28, 64, 32, 1, 1)), 0);
  EXPECT_EQ(slot0_high_water(FullyConnectedGeometry(3, 512, 100)), 0);
}

TEST(Conv2DFloat, OnePaddingForEmulatedBinarizedConv) {
  // SAME_ONE pads with +1.0 (used when executing the training dialect).
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 4;
  geo.in_c = 2;
  geo.out_c = 3;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameOne;

  Rng rng(4);
  Tensor input(DataType::kFloat32, Shape{1, 4, 4, 2});
  FillSigns(input, rng);
  std::vector<float> weights(3 * 3 * 3 * 2);
  for (auto& v : weights) v = rng.Sign();

  Conv2DFloatAttrs attrs;
  attrs.geo = geo;
  Conv2DFloat op(weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 4, 4, 3});
  gemm::Context ctx(1);
  op.Run(input, out, ctx);

  std::vector<float> expected(out.num_elements());
  RefConv2DFloat(input.data<float>(), weights.data(), geo, 1.0f, nullptr,
                 nullptr, Activation::kNone, expected.data());
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]);
  }
}

TEST(DepthwiseConv, MatchesReference) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 7;
  geo.in_c = geo.out_c = 12;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kSameZero;

  Rng rng(6);
  Tensor input(DataType::kFloat32, Shape{1, 7, 7, 12});
  FillUniform(input, rng);
  std::vector<float> weights(3 * 3 * 12);
  for (auto& v : weights) v = rng.Uniform();

  DepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  DepthwiseConv2DFloat op(weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 4, 4, 12});
  op.Run(input, out);

  std::vector<float> expected(out.num_elements());
  RefDepthwiseConv2DFloat(input.data<float>(), weights.data(), geo, nullptr,
                          Activation::kNone, expected.data());
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_NEAR(out.data<float>()[i], expected[i], 1e-5f);
  }
}

TEST(DepthwiseConv, BlurKernelSumsToOne) {
  const auto blur = MakeBlurKernel3x3(5);
  ASSERT_EQ(blur.size(), 45u);
  for (int c = 0; c < 5; ++c) {
    float sum = 0.0f;
    for (int p = 0; p < 9; ++p) sum += blur[p * 5 + c];
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
}

TEST(FullyConnected, RunsAsOneByOneConv) {
  // A fully connected layer is the 1x1 Conv2DFloat over [batch, 1, 1, in]:
  // rank-2 tensors, [out][in] weights.
  const int batch = 5, in = 50, out_f = 17;
  Rng rng(9);
  Tensor input(DataType::kFloat32, Shape{batch, in});
  FillUniform(input, rng);
  std::vector<float> weights(static_cast<std::size_t>(out_f) * in);
  for (auto& v : weights) v = rng.Uniform();
  std::vector<float> bias(out_f);
  for (auto& v : bias) v = rng.Uniform();

  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kRelu6, Activation::kSigmoid}) {
    Conv2DFloatAttrs attrs;
    attrs.geo = FullyConnectedGeometry(batch, in, out_f);
    attrs.bias = bias;
    attrs.activation = act;
    Conv2DFloat op(weights.data(), attrs);
    const std::vector<float> got =
        RunEverywhere(op, input, Shape{batch, out_f});
    for (int b = 0; b < batch; ++b) {
      for (int n = 0; n < out_f; ++n) {
        double acc = bias[n];
        for (int i = 0; i < in; ++i) {
          acc += static_cast<double>(input.data<float>()[b * in + i]) *
                 weights[static_cast<std::size_t>(n) * in + i];
        }
        const float expected = ApplyActivation(static_cast<float>(acc), act);
        ASSERT_NEAR(got[b * out_f + n], expected, 1e-5f)
            << "activation " << static_cast<int>(act);
      }
    }
  }
}

}  // namespace
}  // namespace lce
