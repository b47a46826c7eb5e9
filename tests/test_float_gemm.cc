// Float GEMM tests against a naive triple loop: both kernel profiles
// (bitwise equal), edge tiles and multithreading. A plain [m][k] x [n][k]^T
// product is the GEMM's 1x1 convolution case over [m, 1, 1, k].
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/random.h"
#include "gemm/float_gemm.h"

namespace lce::gemm {
namespace {

void NaiveGemm(const std::vector<float>& lhs, const std::vector<float>& rhs,
               int m, int n, int k, std::vector<float>* out) {
  out->assign(static_cast<std::size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(lhs[static_cast<std::size_t>(i) * k + kk]) *
               rhs[static_cast<std::size_t>(j) * k + kk];
      }
      (*out)[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
}

// out[m][n] = lhs[m][k] x rhs[n][k]^T, run as the 1x1 convolution.
std::vector<float> Gemm(const std::vector<float>& lhs, int m,
                        const std::vector<float>& rhs, int n, int k,
                        Context& ctx) {
  const PackedFloatMatrix packed(rhs.data(), n, k);
  std::vector<float> out(static_cast<std::size_t>(m) * n);
  FloatGemm(lhs.data(), FullyConnectedGeometry(m, k, n), packed, nullptr,
            Activation::kNone, out.data(), n, ctx);
  return out;
}

class FloatGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FloatGemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 7 + n * 3 + k);
  std::vector<float> lhs(static_cast<std::size_t>(m) * k);
  std::vector<float> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Uniform();
  for (auto& v : rhs) v = rng.Uniform();
  std::vector<float> expected;
  NaiveGemm(lhs, rhs, m, n, k, &expected);

  Context ctx(1);
  const std::vector<float> out = Gemm(lhs, m, rhs, n, k, ctx);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-4f * std::max(1.0f, std::abs(expected[i])))
        << "element " << i;
  }
  // Every thread count and kernel profile gives the same bits.
  for (int threads : {1, 3}) {
    for (auto profile : {KernelProfile::kSimd, KernelProfile::kScalar}) {
      Context other(threads, profile);
      const std::vector<float> got = Gemm(lhs, m, rhs, n, k, other);
      EXPECT_EQ(std::memcmp(got.data(), out.data(), out.size() * sizeof(float)),
                0)
          << "threads=" << threads << " profile=" << static_cast<int>(profile);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, FloatGemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 16, 8),
                      std::make_tuple(4, 16, 32), std::make_tuple(5, 17, 3),
                      std::make_tuple(3, 50, 27), std::make_tuple(64, 64, 147),
                      std::make_tuple(31, 33, 65),
                      std::make_tuple(100, 10, 576)));

// Every row count of an edge tile in every build (kFloatMr is 12, 6 or 4),
// on a classifier's shape: a fully connected layer at batch 1..13.
INSTANTIATE_TEST_SUITE_P(ClassifierRows, FloatGemmShapes,
                         ::testing::Combine(::testing::Range(1, 14),
                                            ::testing::Values(1000),
                                            ::testing::Values(512)));

// Output into a channel slice of a wider buffer (ldo > n), the way a Concat
// input is written in place: bitwise the dense run, with every float
// outside the slice left at its sentinel. Both the in-place 1x1 path (a
// fully connected layer over m rows) and the gathering 3x3 path (an m x 3
// image), with a bias and an activation in the store.
class FloatGemmStridedOutput : public ::testing::TestWithParam<int> {};

TEST_P(FloatGemmStridedOutput, MatchesDenseAndKeepsSentinel) {
  const int m = GetParam();
  const int n = 37, in_c = 9;
  constexpr int kOffset = 5, kLdo = 37 + 19;
  constexpr std::uint32_t kSentinel = 0x7fc0beefu;  // a NaN no store writes
  Conv2DGeometry conv;
  conv.in_h = m;
  conv.in_w = 3;
  conv.in_c = in_c;
  conv.out_c = n;
  conv.filter_h = conv.filter_w = 3;
  conv.padding = Padding::kSameZero;
  for (const Conv2DGeometry& g :
       {FullyConnectedGeometry(m, in_c, n), conv}) {
    const std::int64_t rows = Im2ColRows(g);
    const int k = Im2ColDepthFloat(g);
    Rng rng(m * 11 + k);
    std::vector<float> input(
        static_cast<std::size_t>(g.batch) * g.in_h * g.in_w * in_c);
    std::vector<float> rhs(static_cast<std::size_t>(n) * k), bias(n);
    for (auto& v : input) v = rng.Uniform(-1.0f, 1.0f);
    for (auto& v : rhs) v = rng.Uniform(-1.0f, 1.0f);
    for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);
    const PackedFloatMatrix packed(rhs.data(), n, k);
    for (int threads : {1, 3}) {
      for (auto profile : {KernelProfile::kSimd, KernelProfile::kScalar}) {
        Context ctx(threads, profile);
        std::vector<float> dense(static_cast<std::size_t>(rows) * n);
        FloatGemm(input.data(), g, packed, bias.data(), Activation::kRelu,
                  dense.data(), n, ctx);
        std::vector<std::uint32_t> wide(static_cast<std::size_t>(rows) * kLdo,
                                        kSentinel);
        FloatGemm(input.data(), g, packed, bias.data(), Activation::kRelu,
                  reinterpret_cast<float*>(wide.data()) + kOffset, kLdo, ctx);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (int j = 0; j < kLdo; ++j) {
            const std::uint32_t got = wide[r * kLdo + j];
            if (j >= kOffset && j < kOffset + n) {
              ASSERT_EQ(std::memcmp(&got, &dense[r * n + j - kOffset], 4), 0)
                  << "row " << r << " col " << j - kOffset << " threads "
                  << threads << " filter " << g.filter_h;
            } else {
              ASSERT_EQ(got, kSentinel) << "row " << r << " slot " << j;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeRows, FloatGemmStridedOutput,
                         ::testing::Range(1, 14));

TEST(FloatGemm, ProfilesAgree) {
  // Bitwise: the scalar kernel rounds the way the SIMD one does (a fused
  // multiply-add per MAC, in the same k order) whatever the compiler's
  // contraction setting, which the Debug sanitizer builds do not apply.
  const int m = 517, n = 37, k = 147;
  Rng rng(5);
  std::vector<float> lhs(static_cast<std::size_t>(m) * k);
  std::vector<float> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Uniform();
  for (auto& v : rhs) v = rng.Uniform();
  Context simd_ctx(1, KernelProfile::kSimd);
  Context scalar_ctx(1, KernelProfile::kScalar);
  const std::vector<float> simd = Gemm(lhs, m, rhs, n, k, simd_ctx);
  const std::vector<float> scalar = Gemm(lhs, m, rhs, n, k, scalar_ctx);
  int differing = 0;
  for (std::size_t i = 0; i < simd.size(); ++i) {
    differing += std::memcmp(&simd[i], &scalar[i], sizeof(float)) != 0;
  }
  EXPECT_EQ(differing, 0) << "of " << simd.size() << " outputs";
}

TEST(FloatGemm, MultithreadedMatches) {
  const int m = 70, n = 20, k = 64;
  Rng rng(8);
  std::vector<float> lhs(static_cast<std::size_t>(m) * k);
  std::vector<float> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Uniform();
  for (auto& v : rhs) v = rng.Uniform();
  std::vector<float> expected;
  NaiveGemm(lhs, rhs, m, n, k, &expected);
  Context ctx(3);
  const std::vector<float> out = Gemm(lhs, m, rhs, n, k, ctx);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-4f);
  }
}

TEST(FloatGemm, ExactForSmallIntegers) {
  // Integer-valued inputs below the fp32 exact range must produce exact
  // results -- the property the training-vs-converted equivalence tests for
  // binarized convolutions rely on.
  const int m = 8, n = 24, k = 100;
  Rng rng(12);
  std::vector<float> lhs(static_cast<std::size_t>(m) * k);
  std::vector<float> rhs(static_cast<std::size_t>(n) * k);
  for (auto& v : lhs) v = rng.Sign();
  for (auto& v : rhs) v = rng.Sign();
  std::vector<float> expected;
  NaiveGemm(lhs, rhs, m, n, k, &expected);
  Context ctx(1);
  EXPECT_EQ(Gemm(lhs, m, rhs, n, k, ctx), expected);
}

}  // namespace
}  // namespace lce::gemm
