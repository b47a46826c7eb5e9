// IndirectionOffsets unit tests: the prepare-time bitpacked tap table
// (kernels/pipeline/gather_pack.h) through which BConv2D's indirect BGEMM
// and BDepthwiseConv2D read their patch rows.
#include <gtest/gtest.h>

#include "kernels/pipeline/gather_pack.h"

namespace lce::pipeline {
namespace {

Conv2DGeometry MakeGeo(int hw, int c, int k, int stride, Padding pad) {
  Conv2DGeometry g;
  g.in_h = g.in_w = hw;
  g.in_c = g.out_c = c;
  g.filter_h = g.filter_w = k;
  g.stride_h = g.stride_w = stride;
  g.padding = pad;
  return g;
}

TEST(IndirectionOffsets, PaddedTapsAreMarked) {
  const auto g = MakeGeo(4, 32, 3, 1, Padding::kSameOne);
  const IndirectionOffsets ind(g);
  EXPECT_EQ(ind.rows(), 16);
  EXPECT_EQ(ind.taps(), 9);
  EXPECT_EQ(ind.words(), 1);
  // Output (0,0), tap (0,0) reads (-1,-1): a padded tap.
  EXPECT_EQ(ind.row(0)[0], IndirectionOffsets::kPaddedTap);
  // Tap (1,1) reads (0,0): the first input word.
  EXPECT_EQ(ind.row(0)[4], 0);
}

TEST(IndirectionOffsets, StridedTapsPointAtStridedPixels) {
  const auto g = MakeGeo(8, 32, 3, 2, Padding::kValid);
  const IndirectionOffsets ind(g);
  ASSERT_EQ(ind.rows(), 9);  // (8-3)/2+1 = 3 per axis
  // Output (1,1) tap (0,0) reads input pixel (2,2) = word 18.
  EXPECT_EQ(ind.row(1 * 3 + 1)[0], 18);
}

}  // namespace
}  // namespace lce::pipeline
