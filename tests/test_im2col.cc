// im2col tests: patch extraction vs a direct gather, padding fill values,
// strides, and the bitpacked variant's one-padding behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "im2col.h"

namespace lce {
namespace {

Conv2DGeometry MakeGeo(int h, int w, int c, int k, int stride, Padding pad,
                       int out_c = 1) {
  Conv2DGeometry g;
  g.batch = 1;
  g.in_h = h;
  g.in_w = w;
  g.in_c = c;
  g.filter_h = g.filter_w = k;
  g.stride_h = g.stride_w = stride;
  g.padding = pad;
  g.out_c = out_c;
  return g;
}

// Direct gather reference for one patch element.
float GatherFloat(const std::vector<float>& input, const Conv2DGeometry& g,
                  int oy, int ox, int ky, int kx, int c, float pad_value) {
  const int iy = oy * g.stride_h - g.pad_h_begin() + ky;
  const int ix = ox * g.stride_w - g.pad_w_begin() + kx;
  if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) return pad_value;
  return input[(static_cast<std::size_t>(iy) * g.in_w + ix) * g.in_c + c];
}

TEST(Im2ColFloat, ValidPaddingGathersPatches) {
  const auto g = MakeGeo(5, 5, 3, 3, 1, Padding::kValid);
  Rng rng(1);
  std::vector<float> input(5 * 5 * 3);
  for (auto& v : input) v = rng.Uniform();
  std::vector<float> patches(Im2ColRows(g) * Im2ColDepthFloat(g));
  Im2ColFloat(input.data(), g, 0.0f, patches.data());

  const int out_w = g.out_w();
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = 0; ox < out_w; ++ox) {
      const float* row =
          patches.data() +
          (static_cast<std::size_t>(oy) * out_w + ox) * Im2ColDepthFloat(g);
      int idx = 0;
      for (int ky = 0; ky < 3; ++ky) {
        for (int kx = 0; kx < 3; ++kx) {
          for (int c = 0; c < 3; ++c) {
            EXPECT_EQ(row[idx++], GatherFloat(input, g, oy, ox, ky, kx, c, 0));
          }
        }
      }
    }
  }
}

class Im2ColPadding : public ::testing::TestWithParam<float> {};

TEST_P(Im2ColPadding, FillsPaddedLocations) {
  const float pad_value = GetParam();
  const auto g = MakeGeo(4, 4, 2, 3, 1, Padding::kSameZero);
  Rng rng(2);
  std::vector<float> input(4 * 4 * 2);
  for (auto& v : input) v = rng.Uniform();
  std::vector<float> patches(Im2ColRows(g) * Im2ColDepthFloat(g));
  Im2ColFloat(input.data(), g, pad_value, patches.data());

  // Top-left output, top-left filter tap reads (-1,-1): padded.
  EXPECT_EQ(patches[0], pad_value);
  EXPECT_EQ(patches[1], pad_value);
}

INSTANTIATE_TEST_SUITE_P(PadValues, Im2ColPadding,
                         ::testing::Values(0.0f, 1.0f, -1.0f));

TEST(Im2ColFloat, StridedOutputSize) {
  const auto g = MakeGeo(8, 8, 1, 3, 2, Padding::kSameZero);
  EXPECT_EQ(g.out_h(), 4);
  EXPECT_EQ(g.out_w(), 4);
  std::vector<float> input(64, 1.0f);
  std::vector<float> patches(Im2ColRows(g) * Im2ColDepthFloat(g));
  Im2ColFloat(input.data(), g, 0.0f, patches.data());
  EXPECT_EQ(Im2ColRows(g), 16);
}

TEST(Im2ColInt8, PadsWithZeroPoint) {
  const auto g = MakeGeo(3, 3, 4, 3, 1, Padding::kSameZero);
  std::vector<std::int8_t> input(3 * 3 * 4, 5);
  std::vector<std::int8_t> patches(Im2ColRows(g) * Im2ColDepthFloat(g));
  Im2ColInt8(input.data(), g, /*pad_value=*/-7, patches.data());
  // First patch element of output (0,0) is padded.
  EXPECT_EQ(patches[0], -7);
}

TEST(Im2ColBitpacked, MatchesFloatPackThenGather) {
  // Property: im2col(bitpack(x)) == bitpack_per_pixel(im2col(x, pad=+1)).
  const auto g = MakeGeo(6, 5, 40, 3, 1, Padding::kSameOne);
  Rng rng(3);
  std::vector<float> input(static_cast<std::size_t>(6) * 5 * 40);
  for (auto& v : input) v = rng.Uniform();

  // Bitpack input, then bitpacked im2col.
  const int words = BitpackedWords(g.in_c);
  std::vector<TBitpacked> packed_input(static_cast<std::size_t>(6) * 5 * words);
  BitpackMatrix(input.data(), 6 * 5, g.in_c, packed_input.data());
  std::vector<TBitpacked> packed_patches(Im2ColRows(g) *
                                         Im2ColDepthBitpacked(g));
  Im2ColBitpacked(packed_input.data(), g, packed_patches.data());

  // Float im2col with one-padding, then per-pixel bitpack.
  std::vector<float> float_patches(Im2ColRows(g) * Im2ColDepthFloat(g));
  Im2ColFloat(input.data(), g, 1.0f, float_patches.data());
  std::vector<TBitpacked> expected(packed_patches.size());
  BitpackMatrix(float_patches.data(),
                Im2ColRows(g) * g.filter_h * g.filter_w, g.in_c,
                expected.data());

  EXPECT_EQ(packed_patches, expected);
}

TEST(Im2ColBitpacked, PaddedTapsAreZeroWords) {
  const auto g = MakeGeo(4, 4, 32, 3, 1, Padding::kSameOne);
  std::vector<TBitpacked> input(16, 0xffffffffu);  // all -1
  std::vector<TBitpacked> patches(Im2ColRows(g) * Im2ColDepthBitpacked(g));
  Im2ColBitpacked(input.data(), g, patches.data());
  // Output (0,0), tap (0,0) reads input (-1,-1): must be the +1 word (0).
  EXPECT_EQ(patches[0], 0u);
  // Tap (1,1) reads input (0,0): all -1.
  EXPECT_EQ(patches[4], 0xffffffffu);
}

TEST(ConvGeometry, TensorFlowSameArithmetic) {
  // 224 -> 112 with k=3 s=2 SAME, pad begin 0 (total pad 1).
  auto g = MakeGeo(224, 224, 3, 3, 2, Padding::kSameZero);
  EXPECT_EQ(g.out_h(), 112);
  EXPECT_EQ(g.pad_h_begin(), 0);
  // 7x7 stride 2 on 224: out 112, pad begin 2 (total 5).
  g = MakeGeo(224, 224, 3, 7, 2, Padding::kSameZero);
  EXPECT_EQ(g.out_h(), 112);
  EXPECT_EQ(g.pad_h_begin(), 2);
  // VALID: (in - k) / stride + 1.
  g = MakeGeo(10, 10, 1, 3, 1, Padding::kValid);
  EXPECT_EQ(g.out_h(), 8);
  g = MakeGeo(10, 10, 1, 3, 2, Padding::kValid);
  EXPECT_EQ(g.out_h(), 4);
}

TEST(ConvGeometry, MacCount) {
  const auto g = MakeGeo(56, 56, 64, 3, 1, Padding::kSameZero, 64);
  EXPECT_EQ(g.macs(), 56LL * 56 * 3 * 3 * 64 * 64);
}

}  // namespace
}  // namespace lce
