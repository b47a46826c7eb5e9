// Full-precision pooling tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/random.h"
#include "kernels/pooling.h"
#include "kernels/reference.h"

namespace lce {
namespace {

TEST(MaxPool2D, MatchesReference) {
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 7;
  geo.channels = 9;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kSameZero;

  Rng rng(1);
  Tensor in(DataType::kFloat32, Shape{1, 7, 7, 9});
  FillUniform(in, rng);
  Tensor out(DataType::kFloat32, Shape{1, geo.out_h(), geo.out_w(), 9});
  MaxPool2DFloat(in, geo, out);

  std::vector<float> expected(out.num_elements());
  RefMaxPool2DFloat(in.data<float>(), geo, expected.data());
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]);
  }
}

// Output into a channel slice of a wider buffer, the way a Concat input is
// written in place: bitwise the dense run, with every float outside the
// slice left at its sentinel.
TEST(MaxPool2D, StridedOutputMatchesDense) {
  constexpr int kChannels = 9, kOffset = 4, kStride = kChannels + 7;
  constexpr std::uint32_t kSentinel = 0x7fc0beefu;  // a NaN no pool writes
  for (const Padding pad : {Padding::kSameZero, Padding::kValid}) {
    Pool2DGeometry geo;
    geo.batch = 2;
    geo.in_h = geo.in_w = 7;
    geo.channels = kChannels;
    geo.filter_h = geo.filter_w = 3;
    geo.stride_h = geo.stride_w = 2;
    geo.padding = pad;
    Rng rng(4);
    Tensor in(DataType::kFloat32, Shape{2, 7, 7, kChannels});
    FillUniform(in, rng);
    const Shape out_shape{2, geo.out_h(), geo.out_w(), kChannels};
    Tensor dense(DataType::kFloat32, out_shape);
    MaxPool2DFloat(in, geo, dense);

    const std::int64_t rows = dense.num_elements() / kChannels;
    std::vector<std::uint32_t> wide(rows * kStride, kSentinel);
    Tensor slice = Tensor::StridedView(DataType::kFloat32, out_shape,
                                       wide.data() + kOffset, kStride);
    MaxPool2DFloat(in, geo, slice);
    for (std::int64_t r = 0; r < rows; ++r) {
      for (int j = 0; j < kStride; ++j) {
        const std::uint32_t got = wide[r * kStride + j];
        if (j >= kOffset && j < kOffset + kChannels) {
          ASSERT_EQ(std::memcmp(&got,
                                dense.data<float>() + r * kChannels + j -
                                    kOffset,
                                sizeof(got)),
                    0)
              << "row " << r << " channel " << j - kOffset;
        } else {
          ASSERT_EQ(got, kSentinel) << "row " << r << " slot " << j;
        }
      }
    }
  }
}

TEST(MaxPool2D, PaddedWindowsIgnorePadding) {
  // TF semantics: padded elements never win the max (even when all inputs
  // are negative).
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 2;
  geo.channels = 1;
  geo.filter_h = geo.filter_w = 3;
  geo.stride_h = geo.stride_w = 1;
  geo.padding = Padding::kSameZero;

  Tensor in(DataType::kFloat32, Shape{1, 2, 2, 1});
  for (int i = 0; i < 4; ++i) in.data<float>()[i] = -5.0f - i;
  Tensor out(DataType::kFloat32, Shape{1, 2, 2, 1});
  MaxPool2DFloat(in, geo, out);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out.data<float>()[i], -5.0f);
}

TEST(AvgPool2D, UniformInputIsIdentity) {
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 4;
  geo.channels = 3;
  geo.filter_h = geo.filter_w = 2;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kValid;

  Tensor in(DataType::kFloat32, Shape{1, 4, 4, 3});
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = 2.5f;
  }
  Tensor out(DataType::kFloat32, Shape{1, 2, 2, 3});
  AvgPool2DFloat(in, geo, out);
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(out.data<float>()[i], 2.5f);
  }
}

TEST(AvgPool2D, BorderDivisorCountsValidOnly) {
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 2;
  geo.channels = 1;
  geo.filter_h = geo.filter_w = 2;
  geo.stride_h = geo.stride_w = 1;
  geo.padding = Padding::kSameZero;

  Tensor in(DataType::kFloat32, Shape{1, 2, 2, 1});
  in.data<float>()[0] = 1.0f;
  in.data<float>()[1] = 2.0f;
  in.data<float>()[2] = 3.0f;
  in.data<float>()[3] = 4.0f;
  Tensor out(DataType::kFloat32, Shape{1, 2, 2, 1});
  AvgPool2DFloat(in, geo, out);
  EXPECT_FLOAT_EQ(out.data<float>()[0], 2.5f);   // all four
  EXPECT_FLOAT_EQ(out.data<float>()[1], 3.0f);   // (2+4)/2
  EXPECT_FLOAT_EQ(out.data<float>()[2], 3.5f);   // (3+4)/2
  EXPECT_FLOAT_EQ(out.data<float>()[3], 4.0f);   // lone corner
}

TEST(GlobalAvgPool, ComputesChannelMeans) {
  Tensor in(DataType::kFloat32, Shape{2, 2, 2, 3});
  for (int b = 0; b < 2; ++b) {
    for (int p = 0; p < 4; ++p) {
      for (int c = 0; c < 3; ++c) {
        in.data<float>()[(b * 4 + p) * 3 + c] =
            static_cast<float>(b * 100 + c + p);
      }
    }
  }
  Tensor out(DataType::kFloat32, Shape{2, 3});
  GlobalAvgPoolFloat(in, out);
  // mean over p of (b*100 + c + p) = b*100 + c + 1.5
  for (int b = 0; b < 2; ++b) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(out.data<float>()[b * 3 + c],
                      static_cast<float>(b * 100 + c) + 1.5f);
    }
  }
}

}  // namespace
}  // namespace lce
