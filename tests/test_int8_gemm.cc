// Int8 GEMM tests: every tier of gemm/int8_isa.h against one exact
// reference, through the benches' full-matrix Int8Gemm
// (bench/gemm_drivers.h; 1 and 4 threads) and Int8DotComputeBlock,
// profile agreement, the panel layout and row sums -- including the
// adversarial +-127/-128 patterns that would expose a saturating
// vpmaddubsw implementation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "gemm/int8_gemm.h"
#include "gemm/int8_isa.h"
#include "gemm_drivers.h"

namespace lce::gemm {
namespace {

using bench::Int8Gemm;

void NaiveInt8Gemm(const std::vector<std::int8_t>& lhs,
                   const std::vector<std::int8_t>& rhs, int m, int n, int k,
                   std::vector<std::int32_t>* out) {
  out->assign(static_cast<std::size_t>(m) * n, 0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int32_t>(lhs[static_cast<std::size_t>(i) * k + kk]) *
               static_cast<std::int32_t>(rhs[static_cast<std::size_t>(j) * k + kk]);
      }
      (*out)[static_cast<std::size_t>(i) * n + j] = acc;
    }
  }
}

// All tiers selectable on this machine: the portable kernel plus every
// compiled-in AND CPU-supported dot tier.
std::vector<Int8Tier> DotBlockTiers() {
  std::vector<Int8Tier> tiers = {Int8Tier::kScalar};
  for (Int8Tier t :
       {Int8Tier::kVnni, Int8Tier::kAvx2Dot, Int8Tier::kNeonDot}) {
    if (Int8TierAvailable(t)) tiers.push_back(t);
  }
  return tiers;
}

class Int8GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Int8GemmShapes, ExactMatch) {
  const auto [m, n, k] = GetParam();
  Rng rng(m + n * 5 + k * 11);
  std::vector<std::int8_t> lhs(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Int8(-128, 127);
  for (auto& v : rhs) v = rng.Int8(-127, 127);
  std::vector<std::int32_t> expected;
  NaiveInt8Gemm(lhs, rhs, m, n, k, &expected);

  for (Int8Tier tier : DotBlockTiers()) {
    SetInt8TierOverrideForTest(static_cast<int>(tier));
    for (const int threads : {1, 4}) {
      Context ctx(threads);
      std::vector<std::int32_t> out(static_cast<std::size_t>(m) * n, -1);
      Int8Gemm(lhs.data(), m, rhs.data(), n, k, out.data(), n, ctx);
      EXPECT_EQ(out, expected)
          << "tier=" << Int8TierName(tier) << " threads=" << threads;
    }
  }
  SetInt8TierOverrideForTest(0);
}

// k % 4 != 0 stages the rows (k = 1, 7, 97, 147); the rest are read in
// place. m = 300 spans three 128-row blocks, the last one partial.
INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, Int8GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 4, 32),
                      std::make_tuple(3, 5, 7), std::make_tuple(8, 8, 64),
                      std::make_tuple(17, 13, 100), std::make_tuple(33, 7, 97),
                      std::make_tuple(64, 64, 576),
                      std::make_tuple(5, 40, 2304),
                      std::make_tuple(300, 20, 147)));

TEST(Int8Gemm, ExtremeValuesNoSaturation) {
  // Worst case for a saturating maddubs implementation: all -128 x all +127.
  const int m = 2, n = 2, k = 256;
  std::vector<std::int8_t> lhs(static_cast<std::size_t>(m) * k, -128);
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(n) * k, 127);
  Context ctx(1);
  std::vector<std::int32_t> out(4);
  Int8Gemm(lhs.data(), m, rhs.data(), n, k, out.data(), n, ctx);
  for (auto v : out) EXPECT_EQ(v, -128 * 127 * k);
}

TEST(Int8Gemm, ProfilesAgree) {
  const int m = 9, n = 11, k = 130;
  Rng rng(77);
  std::vector<std::int8_t> lhs(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Int8(-128, 127);
  for (auto& v : rhs) v = rng.Int8(-127, 127);
  std::vector<std::int32_t> simd(static_cast<std::size_t>(m) * n);
  std::vector<std::int32_t> scalar(simd.size());
  {
    Context ctx(1, KernelProfile::kSimd);
    Int8Gemm(lhs.data(), m, rhs.data(), n, k, simd.data(), n, ctx);
  }
  {
    Context ctx(1, KernelProfile::kScalar);
    Int8Gemm(lhs.data(), m, rhs.data(), n, k, scalar.data(), n, ctx);
  }
  EXPECT_EQ(simd, scalar);
}

// Runs Int8DotComputeBlock for `tier` on row-major lhs/rhs and compares
// against NaiveInt8Gemm.
void CheckDotBlock(const std::vector<std::int8_t>& lhs,
                   const std::vector<std::int8_t>& rhs, int m, int n, int k,
                   Int8Tier tier) {
  std::vector<std::int32_t> expected;
  NaiveInt8Gemm(lhs, rhs, m, n, k, &expected);

  PackedInt8DotPanels panels(rhs.data(), n, k);
  const int lda = panels.k_groups() * kInt8DotKg;
  std::vector<std::int8_t> arows(static_cast<std::size_t>(m) * lda, 0);
  for (int r = 0; r < m; ++r) {
    for (int kk = 0; kk < k; ++kk) {
      arows[static_cast<std::size_t>(r) * lda + kk] =
          lhs[static_cast<std::size_t>(r) * k + kk];
    }
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(m) * n, -1);
  Int8DotComputeBlock(arows.data(), lda, panels, tier, m, out.data(), n);
  EXPECT_EQ(out, expected) << "tier=" << Int8TierName(tier) << " m=" << m
                           << " n=" << n << " k=" << k;
}

TEST_P(Int8GemmShapes, DotTiersExactMatch) {
  const auto [m, n, k] = GetParam();
  Rng rng(3 * m + n * 7 + k * 13);
  std::vector<std::int8_t> lhs(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Int8(-128, 127);
  for (auto& v : rhs) v = rng.Int8(-128, 127);
  for (Int8Tier tier : DotBlockTiers()) CheckDotBlock(lhs, rhs, m, n, k, tier);
}

TEST(Int8DotBlock, ExtremeValuesNoSaturation) {
  // The canonical hazard: biased u8 activation 255 (= +127) times weight
  // +127, twice per i16 lane, overflows a saturating vpmaddubsw pairwise
  // sum (2 * 255 * 127 = 64770 > 32767). Every tier must still produce the
  // exact widened dot product; the AVX2 kernel does so by splitting even
  // and odd bytes so each i16 lane holds a single u8 x s8 product.
  const int m = 3, n = 17, k = 256;
  std::vector<std::int8_t> lhs(static_cast<std::size_t>(m) * k, 127);
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(n) * k, 127);
  for (Int8Tier tier : DotBlockTiers()) CheckDotBlock(lhs, rhs, m, n, k, tier);

  // And the all -128 x +127 corner of the Int8Gemm test above.
  lhs.assign(lhs.size(), -128);
  for (Int8Tier tier : DotBlockTiers()) CheckDotBlock(lhs, rhs, m, n, k, tier);
}

TEST(Int8DotBlock, AdversarialSignPatterns) {
  // Random +-127 / -128-only values: every 4-byte group sits at the edge
  // of the biased-u8 product range, so any off-by-one in the +128 bias or
  // the 128 * rowsum correction shows up immediately.
  const int m = 8, n = 33, k = 252;
  Rng rng(2026);
  std::vector<std::int8_t> lhs(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(n) * k);
  const std::int8_t extremes[3] = {-128, -127, 127};
  for (auto& v : lhs) v = extremes[rng.Int8(0, 2)];
  for (auto& v : rhs) v = extremes[rng.Int8(0, 2)];
  for (Int8Tier tier : DotBlockTiers()) CheckDotBlock(lhs, rhs, m, n, k, tier);
}

TEST(Int8DotBlock, PanelLayoutAndRowSums) {
  const int n = 20, k = 10;  // 2 panels (second partial), 3 K-groups
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(n) * k);
  for (int j = 0; j < n; ++j) {
    for (int kk = 0; kk < k; ++kk) {
      rhs[static_cast<std::size_t>(j) * k + kk] =
          static_cast<std::int8_t>(j - kk);
    }
  }
  PackedInt8DotPanels panels(rhs.data(), n, k);
  EXPECT_EQ(panels.num_panels(), 2);
  EXPECT_EQ(panels.k_groups(), 3);
  EXPECT_EQ(panels.panel_bytes(), 3 * kInt8DotNr * kInt8DotKg);
  // Element (j, kk) lives at panel[kk/4][(kk/4*16 + j%16)*4 + kk%4].
  for (int j = 0; j < n; ++j) {
    const std::int8_t* p = panels.panel(j / kInt8DotNr);
    const int jj = j % kInt8DotNr;
    for (int kk = 0; kk < k; ++kk) {
      EXPECT_EQ(p[(kk / kInt8DotKg * kInt8DotNr + jj) * kInt8DotKg +
                  kk % kInt8DotKg],
                static_cast<std::int8_t>(j - kk));
    }
  }
  // K-padding bytes (kk = 10, 11 of the last group) must be zero.
  for (int j = 0; j < n; ++j) {
    const std::int8_t* p = panels.panel(j / kInt8DotNr);
    const int jj = j % kInt8DotNr;
    for (int kk = k; kk < panels.k_groups() * kInt8DotKg; ++kk) {
      EXPECT_EQ(p[(kk / kInt8DotKg * kInt8DotNr + jj) * kInt8DotKg +
                  kk % kInt8DotKg],
                0);
    }
  }
  // row_sums: padded to a panel multiple, real entries exact.
  ASSERT_EQ(panels.row_sums().size(),
            static_cast<std::size_t>(2) * kInt8DotNr);
  for (int j = 0; j < n; ++j) {
    std::int32_t s = 0;
    for (int kk = 0; kk < k; ++kk) s += static_cast<std::int8_t>(j - kk);
    EXPECT_EQ(panels.row_sums()[j], s);
  }
  for (std::size_t j = n; j < panels.row_sums().size(); ++j) {
    EXPECT_EQ(panels.row_sums()[j], 0);
  }

  // One partial panel of constant rows: sums 10, 20, 30, then zeros.
  std::vector<std::int8_t> small(3 * k);
  for (int j = 0; j < 3; ++j) {
    for (int kk = 0; kk < k; ++kk) {
      small[static_cast<std::size_t>(j) * k + kk] =
          static_cast<std::int8_t>(j + 1);
    }
  }
  const PackedInt8DotPanels one(small.data(), 3, k);
  ASSERT_EQ(one.row_sums().size(), static_cast<std::size_t>(kInt8DotNr));
  EXPECT_EQ(one.row_sums()[0], 10);
  EXPECT_EQ(one.row_sums()[1], 20);
  EXPECT_EQ(one.row_sums()[2], 30);
  EXPECT_EQ(one.row_sums()[3], 0);
}

TEST(Int8Isa, SelectionRespectsOverridesAndAvailability) {
  // kScalar is always available.
  EXPECT_TRUE(Int8TierAvailable(Int8Tier::kScalar));
  // The best tier is available by definition.
  EXPECT_TRUE(Int8TierAvailable(BestInt8Tier()));
  // The test hook wins over everything and ignores unsupported tiers.
  SetInt8TierOverrideForTest(static_cast<int>(Int8Tier::kScalar));
  EXPECT_EQ(SelectInt8Tier(), Int8Tier::kScalar);
  SetInt8TierOverrideForTest(static_cast<int>(Int8Tier::kNeonDot));
  if (!Int8TierAvailable(Int8Tier::kNeonDot)) {
    EXPECT_NE(SelectInt8Tier(), Int8Tier::kNeonDot);
  }
  // The retired tier value 2 is never available, so forcing it is ignored.
  EXPECT_FALSE(Int8TierAvailable(static_cast<Int8Tier>(2)));
  SetInt8TierOverrideForTest(2);
  EXPECT_TRUE(Int8TierAvailable(SelectInt8Tier()));
  SetInt8TierOverrideForTest(0);
  if (std::getenv("LCE_FORCE_ISA") == nullptr) {
    EXPECT_EQ(SelectInt8Tier(), BestInt8Tier());
  } else if (std::string(std::getenv("LCE_FORCE_ISA")) == "scalar") {
    // The forced-scalar ctest variants pin the env override.
    EXPECT_EQ(SelectInt8Tier(), Int8Tier::kScalar);
  }
}

}  // namespace
}  // namespace lce::gemm
