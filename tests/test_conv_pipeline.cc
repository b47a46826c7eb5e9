// Unit tests for the shared ConvPipeline building blocks: the
// interior/border TilePlan and the patch gathers (kernels/pipeline/; the
// bitpacked tap table itself is checked by test_indirect_bgemm). Each
// gather is checked against the im2col it replaces: the binary row-pointer
// table must address exactly the words of each im2col row (full or
// group-sliced), and each dense float or int8 patch row must equal its
// im2col row, zero-padded to its row stride.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/bgemm.h"
#include "im2col.h"
#include "kernels/pipeline/gather_pack.h"
#include "kernels/pipeline/tile_plan.h"

namespace lce {
namespace {

// Brute-force interior predicate: every tap of the receptive field of
// flattened output position `pos` lies inside the image.
bool BruteForceRowInterior(const Conv2DGeometry& g, std::int64_t pos) {
  const int out_w = g.out_w(), out_h = g.out_h();
  const int ox = static_cast<int>(pos % out_w);
  const int oy = static_cast<int>((pos / out_w) % out_h);
  const int iy0 = oy * g.stride_h - g.pad_h_begin();
  const int ix0 = ox * g.stride_w - g.pad_w_begin();
  return iy0 >= 0 && iy0 + g.filter_h <= g.in_h && ix0 >= 0 &&
         ix0 + g.filter_w <= g.in_w;
}

Conv2DGeometry MakeGeo(int hw, int in_c, int k, int stride, Padding pad,
                       int batch = 1) {
  Conv2DGeometry g;
  g.batch = batch;
  g.in_h = g.in_w = hw;
  g.in_c = in_c;
  g.out_c = in_c;  // irrelevant for plans/gathers
  g.filter_h = g.filter_w = k;
  g.stride_h = g.stride_w = stride;
  g.padding = pad;
  return g;
}

TEST(TilePlan, MatchesBruteForce) {
  const struct {
    int hw, k, stride, batch;
    Padding pad;
  } cases[] = {
      {8, 3, 1, 1, Padding::kSameOne},  {8, 3, 1, 2, Padding::kSameZero},
      {9, 3, 2, 1, Padding::kSameZero}, {7, 5, 1, 1, Padding::kSameOne},
      {10, 3, 3, 1, Padding::kSameZero}, {6, 1, 1, 1, Padding::kValid},
      {12, 3, 2, 3, Padding::kSameOne},
  };
  for (const auto& c : cases) {
    const Conv2DGeometry g = MakeGeo(c.hw, 32, c.k, c.stride, c.pad, c.batch);
    for (const int tile_rows : {1, 2, 4, 8}) {
      const pipeline::TilePlan plan(g, tile_rows);
      const std::int64_t rows = Im2ColRows(g);
      ASSERT_EQ(plan.rows(), rows);
      ASSERT_EQ(plan.num_tiles(), (rows + tile_rows - 1) / tile_rows);

      std::int64_t interior_count = 0;
      for (std::int64_t t = 0; t < plan.num_tiles(); ++t) {
        bool all_interior = true;
        for (int r = 0; r < tile_rows; ++r) {
          const std::int64_t pos = t * tile_rows + r;
          if (pos >= rows) break;  // tail rows past the end are ignored
          const bool brute = BruteForceRowInterior(g, pos);
          ASSERT_EQ(pipeline::TilePlan::RowInterior(g, pos), brute)
              << "hw=" << c.hw << " k=" << c.k << " pos=" << pos;
          all_interior = all_interior && brute;
        }
        ASSERT_EQ(plan.interior(t), all_interior)
            << "hw=" << c.hw << " k=" << c.k << " tile " << t;
        interior_count += all_interior ? 1 : 0;
      }
      ASSERT_EQ(plan.interior_tiles(), interior_count);

      // Prefix-sum range queries against a direct count.
      for (std::int64_t b = 0; b < plan.num_tiles(); b += 3) {
        for (std::int64_t e = b; e <= plan.num_tiles(); e += 5) {
          std::int64_t direct = 0;
          for (std::int64_t t = b; t < e; ++t) direct += plan.interior(t);
          ASSERT_EQ(plan.InteriorInRange(b, e), direct);
          ASSERT_EQ(plan.AllInterior(b, e), direct == e - b);
        }
      }
    }
  }
}

TEST(TilePlan, ValidPaddingIsAllInterior) {
  const Conv2DGeometry g = MakeGeo(9, 64, 3, 2, Padding::kValid);
  const pipeline::TilePlan plan(g, 4);
  EXPECT_EQ(plan.interior_tiles(), plan.num_tiles());
  EXPECT_TRUE(plan.AllInterior(0, plan.num_tiles()));
}

// Builds the row-pointer table of every tile of the geometry and checks,
// for each group's word slice, that every row's taps concatenated
// reproduce its bitpacked im2col row (Im2ColBitpackedGroup for grouped
// slices): the checked gather on every tile, and the sentinel-free variant
// on interior tiles.
void CheckRowPointersMatchIm2Col(const Conv2DGeometry& g, int groups = 1) {
  Rng rng(g.in_h * 31 + g.filter_h * 7 + g.in_c + groups);
  Tensor in_f(DataType::kFloat32, Shape{g.batch, g.in_h, g.in_w, g.in_c});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  const TBitpacked* in = in_b.data<TBitpacked>();

  const std::int64_t rows = Im2ColRows(g);
  const int total_words = BitpackedWords(g.in_c);
  const int group_words = total_words / groups;
  const int taps = g.filter_h * g.filter_w;
  const int group_kw = taps * group_words;
  const pipeline::IndirectionOffsets ind(g);
  const std::vector<TBitpacked> zero_row(total_words, 0);
  const pipeline::TilePlan plan(g, gemm::kBgemmMr);

  std::vector<TBitpacked> patches(static_cast<std::size_t>(rows) * group_kw);
  std::vector<const TBitpacked*> table(
      static_cast<std::size_t>(gemm::kBgemmMr) * taps);
  for (int grp = 0; grp < groups; ++grp) {
    const int word_begin = grp * group_words;
    if (groups == 1) {
      Im2ColBitpacked(in, g, patches.data());
    } else {
      Im2ColBitpackedGroup(in, g, total_words, word_begin, group_words,
                           patches.data());
    }
    for (std::int64_t t = 0; t < plan.num_tiles(); ++t) {
      const std::int64_t row0 = t * gemm::kBgemmMr;
      const int nrows = static_cast<int>(
          std::min<std::int64_t>(gemm::kBgemmMr, rows - row0));
      for (const bool interior : {false, true}) {
        if (interior && !plan.interior(t)) continue;
        pipeline::GatherRowPointers(in, ind, zero_row.data(), row0, nrows,
                                    interior, table.data());
        for (int r = 0; r < nrows; ++r) {
          const TBitpacked* expected =
              patches.data() + (row0 + r) * group_kw;
          for (int tap = 0; tap < taps; ++tap) {
            ASSERT_EQ(std::memcmp(table[r * taps + tap] + word_begin,
                                  expected + tap * group_words,
                                  group_words * sizeof(TBitpacked)),
                      0)
                << (interior ? "interior" : "checked") << " gather, group "
                << grp << ", row " << row0 + r << ", tap " << tap;
          }
        }
      }
    }
  }
}

TEST(GatherRowPointers, EvenWordsMatchesIm2Col) {
  CheckRowPointersMatchIm2Col(MakeGeo(9, 64, 3, 1, Padding::kSameOne));
  CheckRowPointersMatchIm2Col(MakeGeo(8, 128, 3, 2, Padding::kSameOne));
}

TEST(GatherRowPointers, OddWordsMatchesIm2Col) {
  // 32 channels = 1 word, 96 channels = 3 words per pixel.
  CheckRowPointersMatchIm2Col(MakeGeo(9, 32, 3, 1, Padding::kSameOne));
  CheckRowPointersMatchIm2Col(MakeGeo(7, 96, 5, 1, Padding::kSameOne));
}

TEST(GatherRowPointers, LargeFilterMatchesIm2Col) {
  // A 19x19 filter over 96 channels: 361 taps * 3 words = 1083-word patch
  // rows, with one-padded border taps on every tile.
  CheckRowPointersMatchIm2Col(MakeGeo(19, 96, 19, 1, Padding::kSameOne));
}

TEST(GatherRowPointers, BatchedMatchesIm2Col) {
  CheckRowPointersMatchIm2Col(
      MakeGeo(6, 64, 3, 1, Padding::kSameOne, /*batch=*/3));
  // 25 output positions per image: nearly every row tile straddles an
  // image boundary.
  CheckRowPointersMatchIm2Col(
      MakeGeo(5, 64, 3, 1, Padding::kSameOne, /*batch=*/8));
}

TEST(GatherRowPointers, GroupSliceMatchesGroupIm2Col) {
  // Group word counts of 1 (32 ch/group) and 2 (64 ch/group).
  const struct {
    int in_c, groups;
  } cases[] = {{64, 2}, {128, 4}, {128, 2}, {96, 3}};
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "in_c=" << c.in_c
                                      << " groups=" << c.groups);
    CheckRowPointersMatchIm2Col(MakeGeo(8, c.in_c, 3, 1, Padding::kSameOne),
                                c.groups);
  }
}

// Gathers every patch row of `g` with GatherPatchRows in blocks of `block`
// rows (so blocks straddle images when a batch has several), each into a
// sentinel-filled buffer of row stride `ld`: every element the gather owns
// must be written, each row must equal its im2col row in `patches`, and its
// [K, ld) tail must be zero.
template <typename T>
void CheckPatchRows(const T* in, const Conv2DGeometry& g, T pad,
                    const std::vector<T>& patches, std::int64_t ld,
                    int block) {
  const std::int64_t rows = Im2ColRows(g);
  const int k = Im2ColDepthFloat(g);
  // ld elements, so data() is non-null even when the tail is empty.
  const std::vector<T> zeros(static_cast<std::size_t>(ld), T{0});
  std::vector<T> got(static_cast<std::size_t>(block) * ld);
  for (std::int64_t row0 = 0; row0 < rows; row0 += block) {
    const int n = static_cast<int>(std::min<std::int64_t>(block, rows - row0));
    std::memset(got.data(), 0x5A, got.size() * sizeof(T));
    pipeline::GatherPatchRows(in, g, pad, row0, n, ld, got.data());
    for (int r = 0; r < n; ++r) {
      const T* row = got.data() + r * ld;
      ASSERT_EQ(std::memcmp(row, patches.data() + (row0 + r) * k,
                            sizeof(T) * k),
                0)
          << "ld " << ld << ", block " << block << ", row " << row0 + r;
      ASSERT_EQ(std::memcmp(row + k, zeros.data(), sizeof(T) * (ld - k)), 0)
          << "ld " << ld << ", row " << row0 + r << ": tail past K not zero";
    }
  }
}

TEST(GatherPack, PatchRowsMatchIm2Col) {
  const struct {
    int batch, h, w, c, fh, fw, sh, sw;
    Padding pad;
  } cases[] = {
      {1, 9, 13, 5, 3, 3, 1, 1, Padding::kSameZero},  // rectangular
      {2, 7, 5, 4, 3, 3, 2, 2, Padding::kSameOne},
      {1, 8, 11, 6, 3, 5, 1, 2, Padding::kSameZero},  // rectangular filter
      {1, 6, 8, 16, 3, 3, 1, 1, Padding::kValid},
      {2, 11, 10, 3, 2, 2, 3, 3, Padding::kValid},    // stride > filter
      {3, 7, 9, 8, 1, 1, 2, 2, Padding::kSameZero},   // 1x1, stride 2
      {2, 10, 9, 2, 3, 2, 4, 3, Padding::kSameOne},   // stride > filter
      {1, 23, 19, 3, 7, 7, 2, 2, Padding::kSameZero}, // the 7x7/2 stem
      {3, 5, 6, 12, 3, 3, 1, 1, Padding::kSameZero},  // 30 rows per image
  };
  for (const auto& c : cases) {
    Conv2DGeometry g;
    g.batch = c.batch;
    g.in_h = c.h;
    g.in_w = c.w;
    g.in_c = g.out_c = c.c;
    g.filter_h = c.fh;
    g.filter_w = c.fw;
    g.stride_h = c.sh;
    g.stride_w = c.sw;
    g.padding = c.pad;
    SCOPED_TRACE(::testing::Message()
                 << c.batch << "x" << c.h << "x" << c.w << "x" << c.c << " "
                 << c.fh << "x" << c.fw << "/" << c.sh << "x" << c.sw
                 << " padding " << static_cast<int>(c.pad));
    Rng rng(c.h * 31 + c.w * 7 + c.c + c.fh);
    const std::int64_t rows = Im2ColRows(g);
    const int k = Im2ColDepthFloat(g);
    const std::size_t patch_elems = static_cast<std::size_t>(rows) * k;
    const Shape shape{c.batch, c.h, c.w, c.c};
    // 7 rows per block straddle images; one block takes the whole batch.
    const int blocks[] = {1, 7, static_cast<int>(rows)};

    // Float: padded taps read 0.0, or +1.0 under SAME_ONE.
    Tensor in_f(DataType::kFloat32, shape);
    FillUniform(in_f, rng);
    const float pad_f = c.pad == Padding::kSameOne ? 1.0f : 0.0f;
    std::vector<float> patches_f(patch_elems);
    Im2ColFloat(in_f.data<float>(), g, pad_f, patches_f.data());
    // Int8: padded taps read a nonzero input zero point.
    Tensor in_q(DataType::kInt8, shape);
    FillInt8(in_q, rng);
    const std::int8_t pad_q = -7;
    std::vector<std::int8_t> patches_q(patch_elems);
    Im2ColInt8(in_q.data<std::int8_t>(), g, pad_q, patches_q.data());

    for (const std::int64_t ld : {std::int64_t{k}, std::int64_t{k} + 5}) {
      for (const int block : blocks) {
        CheckPatchRows(in_f.data<float>(), g, pad_f, patches_f, ld, block);
        CheckPatchRows(in_q.data<std::int8_t>(), g, pad_q, patches_q, ld,
                       block);
      }
    }
  }
}

}  // namespace
}  // namespace lce
