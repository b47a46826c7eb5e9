// Binarized depthwise convolution tests: the bit-sliced vertical-popcount
// kernel against the float depthwise reference on +/-1 data.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "kernels/bdepthwise.h"
#include "kernels/reference.h"

namespace lce {
namespace {

class BDepthwiseGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, Padding>> {};

TEST_P(BDepthwiseGeometry, MatchesFloatReference) {
  const auto [hw, channels, k, stride, pad] = GetParam();
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = hw;
  geo.in_c = geo.out_c = channels;
  geo.filter_h = geo.filter_w = k;
  geo.stride_h = geo.stride_w = stride;
  geo.padding = pad;

  Rng rng(hw * 3 + channels + k * 7 + stride);
  Tensor in_f(DataType::kFloat32, Shape{1, hw, hw, channels});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(static_cast<std::size_t>(k) * k * channels);
  for (auto& v : w) v = rng.Sign();

  BDepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  BDepthwiseConv2D op(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, geo.out_h(), geo.out_w(), channels});
  gemm::Context ctx(2);
  op.Run(in_b, out, ctx);

  // Reference: float depthwise conv of the +/-1 data, one-padded for
  // SAME_ONE.
  std::vector<float> expected(out.num_elements());
  RefDepthwiseConv2DFloat(in_f.data<float>(), w.data(), geo, nullptr,
                          Activation::kNone, expected.data(),
                          /*pad_value=*/1.0f);
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BDepthwiseGeometry,
    ::testing::Values(std::make_tuple(6, 32, 3, 1, Padding::kSameOne),
                      std::make_tuple(6, 32, 3, 1, Padding::kValid),
                      std::make_tuple(8, 40, 3, 2, Padding::kSameOne),
                      std::make_tuple(7, 64, 3, 2, Padding::kValid),
                      std::make_tuple(9, 33, 3, 1, Padding::kSameOne),
                      std::make_tuple(10, 100, 3, 3, Padding::kValid)));

// Batched inputs whose row tiles (BDepthwiseConv2D::kTileRows output
// positions) straddle images, and rectangular inputs and filters: every
// output bitwise equal to the reference at threads {1, 3} x both profiles.
TEST(BDepthwise, BatchedAndRectangularMatchReferenceEverywhere) {
  const struct {
    int batch, h, w, c, fh, fw, sh, sw;
    Padding pad;
  } cases[] = {
      // Output rows per image: 25, 15, 15, 63, 15 and 15, none a multiple
      // of the 4-row tile.
      {3, 5, 5, 32, 3, 3, 1, 1, Padding::kSameOne},
      {2, 9, 3, 64, 3, 3, 2, 1, Padding::kSameOne},
      {4, 7, 5, 40, 3, 3, 1, 1, Padding::kValid},
      {1, 9, 14, 33, 3, 5, 1, 2, Padding::kSameOne},
      {2, 13, 7, 96, 5, 3, 2, 2, Padding::kValid},
      {5, 3, 5, 32, 1, 3, 1, 1, Padding::kSameOne},
  };
  for (const auto& c : cases) {
    Conv2DGeometry geo;
    geo.batch = c.batch;
    geo.in_h = c.h;
    geo.in_w = c.w;
    geo.in_c = geo.out_c = c.c;
    geo.filter_h = c.fh;
    geo.filter_w = c.fw;
    geo.stride_h = c.sh;
    geo.stride_w = c.sw;
    geo.padding = c.pad;
    SCOPED_TRACE(::testing::Message()
                 << c.batch << "x" << c.h << "x" << c.w << "x" << c.c << " "
                 << c.fh << "x" << c.fw << "/" << c.sh << "x" << c.sw);

    Rng rng(c.batch * 101 + c.h * 13 + c.w + c.c);
    Tensor in_f(DataType::kFloat32, Shape{c.batch, c.h, c.w, c.c});
    FillSigns(in_f, rng);
    Tensor in_b(DataType::kBitpacked, in_f.shape());
    BitpackTensor(in_f, in_b);
    std::vector<float> w(static_cast<std::size_t>(c.fh) * c.fw * c.c);
    for (auto& v : w) v = rng.Sign();
    BDepthwiseConv2DAttrs attrs;
    attrs.geo = geo;
    const BDepthwiseConv2D op(w.data(), attrs);

    const Shape out_shape{c.batch, geo.out_h(), geo.out_w(), c.c};
    std::vector<float> expected(static_cast<std::size_t>(
        out_shape.num_elements()));
    RefDepthwiseConv2DFloat(in_f.data<float>(), w.data(), geo, nullptr,
                            Activation::kNone, expected.data(),
                            /*pad_value=*/1.0f);
    for (const int threads : {1, 3}) {
      for (const auto profile :
           {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
        Tensor out(DataType::kFloat32, out_shape);
        gemm::Context ctx(threads, profile);
        op.Run(in_b, out, ctx);
        EXPECT_EQ(std::memcmp(out.data<float>(), expected.data(),
                              expected.size() * sizeof(float)),
                  0)
            << "threads=" << threads
            << " profile=" << static_cast<int>(profile);
      }
    }
  }
}

TEST(BDepthwise, FusedMultiplierAndBias) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 5;
  geo.in_c = geo.out_c = 32;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameOne;

  Rng rng(5);
  Tensor in_f(DataType::kFloat32, Shape{1, 5, 5, 32});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(9 * 32);
  for (auto& v : w) v = rng.Sign();
  std::vector<float> mult(32), bias(32);
  for (auto& v : mult) v = rng.Uniform(-0.5f, 0.5f);
  for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);

  BDepthwiseConv2DAttrs plain_attrs;
  plain_attrs.geo = geo;
  BDepthwiseConv2D plain(w.data(), plain_attrs);
  Tensor raw(DataType::kFloat32, Shape{1, 5, 5, 32});
  gemm::Context ctx(1);
  plain.Run(in_b, raw, ctx);

  BDepthwiseConv2DAttrs fused_attrs = plain_attrs;
  fused_attrs.multiplier = mult;
  fused_attrs.bias = bias;
  BDepthwiseConv2D fused(w.data(), fused_attrs);
  Tensor out(DataType::kFloat32, raw.shape());
  fused.Run(in_b, out, ctx);

  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    const int c = static_cast<int>(i % 32);
    ASSERT_FLOAT_EQ(out.data<float>()[i],
                    raw.data<float>()[i] * mult[c] + bias[c]);
  }
}

TEST(BDepthwise, AllTapsAgreeGivesFullCount) {
  // input == weights per channel -> every product is +1 -> dot = taps.
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 3;
  geo.in_c = geo.out_c = 64;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kValid;

  Rng rng(9);
  // Constant-per-channel signs so every window equals the weights.
  Tensor in_f(DataType::kFloat32, Shape{1, 3, 3, 64});
  std::vector<float> channel_sign(64);
  for (auto& v : channel_sign) v = rng.Sign();
  for (int p = 0; p < 9; ++p) {
    for (int c = 0; c < 64; ++c) {
      in_f.data<float>()[p * 64 + c] = channel_sign[c];
    }
  }
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(9 * 64);
  for (int p = 0; p < 9; ++p) {
    for (int c = 0; c < 64; ++c) w[p * 64 + c] = channel_sign[c];
  }

  BDepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  BDepthwiseConv2D op(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 1, 1, 64});
  gemm::Context ctx(1);
  op.Run(in_b, out, ctx);
  for (int c = 0; c < 64; ++c) {
    EXPECT_EQ(out.data<float>()[c], 9.0f) << c;
  }
}

}  // namespace
}  // namespace lce
