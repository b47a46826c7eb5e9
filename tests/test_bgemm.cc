// BGEMM tests: the channel-in-lane XOR-POPCOUNT kernel, driven through the
// benches' full-matrix BGemm (bench/gemm_drivers.h), against the reference
// dot product on both kernel profiles, edge tiles, multithreading and the
// baseline (DaBNN/TVM/BMXNet-style) kernels.
#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <vector>

#include "bgemm_baselines.h"
#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/bgemm.h"
#include "gemm_drivers.h"

namespace lce::gemm {
namespace {

using bench::BGemm;

struct BinaryProblem {
  int m, n, k_bits;
  std::vector<TBitpacked> lhs, rhs;
  std::vector<std::int32_t> expected;
  int kw() const { return BitpackedWords(k_bits); }
};

BinaryProblem MakeProblem(int m, int n, int k_bits, std::uint64_t seed) {
  BinaryProblem p{m, n, k_bits, {}, {}, {}};
  Rng rng(seed);
  const int kw = p.kw();
  p.lhs.resize(static_cast<std::size_t>(m) * kw);
  p.rhs.resize(static_cast<std::size_t>(n) * kw);
  auto fill = [&](std::vector<TBitpacked>& v) {
    for (auto& w : v) w = static_cast<TBitpacked>(rng.Next());
    // Zero the channel-padding bits of every row's last word.
    const int rem = k_bits % kBitpackWordSize;
    if (rem != 0) {
      for (std::size_t i = kw - 1; i < v.size(); i += kw) {
        v[i] &= (TBitpacked{1} << rem) - 1;
      }
    }
  };
  fill(p.lhs);
  fill(p.rhs);
  p.expected.resize(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      p.expected[static_cast<std::size_t>(i) * n + j] = BinaryDotReference(
          p.lhs.data() + static_cast<std::size_t>(i) * kw,
          p.rhs.data() + static_cast<std::size_t>(j) * kw, k_bits);
    }
  }
  return p;
}

// (m, n, k_bits) x kernel profile: every shape runs on both profiles, so
// the scalar and SIMD kernels agree bitwise by matching the same reference.
// Shapes cover every tail-tile row count (m % 8), partial channel tiles
// (n % 32) and K word counts on both sides of the AVX2 tier's 31-word
// byte-counter flush.
class BGemmShapes
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<int, int, int>, KernelProfile>> {};

TEST_P(BGemmShapes, MatchesReference) {
  const auto [shape, profile] = GetParam();
  const auto [m, n, k_bits] = shape;
  const BinaryProblem p = MakeProblem(m, n, k_bits, m * 131 + n * 17 + k_bits);
  Context ctx(1, profile);
  std::vector<std::int32_t> out(static_cast<std::size_t>(m) * n, -12345);
  BGemm(p.lhs.data(), m, p.rhs.data(), n, p.kw(), k_bits, out.data(), n, ctx);
  EXPECT_EQ(out, p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, BGemmShapes,
    ::testing::Combine(
        ::testing::Values(
            std::make_tuple(1, 1, 32), std::make_tuple(1, 1, 17),
            std::make_tuple(4, 4, 256), std::make_tuple(5, 3, 64),
            std::make_tuple(7, 9, 100), std::make_tuple(16, 16, 2304),
            std::make_tuple(33, 65, 288), std::make_tuple(2, 130, 31),
            std::make_tuple(100, 8, 1024), std::make_tuple(13, 13, 4608),
            std::make_tuple(37, 29, 576), std::make_tuple(3, 31, 992),
            std::make_tuple(6, 40, 1025), std::make_tuple(11, 96, 64)),
        ::testing::Values(KernelProfile::kSimd, KernelProfile::kScalar)));

TEST(BGemm, MultithreadedMatchesSingleThreaded) {
  const BinaryProblem p = MakeProblem(64, 48, 320, 7);
  std::vector<std::int32_t> mt(64 * 48);
  Context ctx(4);
  BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits, mt.data(),
        p.n, ctx);
  EXPECT_EQ(mt, p.expected);
}

TEST(BGemm, OddTilesMultithreadedMatchesReference) {
  // m and n deliberately not multiples of the 8x32 tile: the edge tiles
  // must stay correct when the row-tile loop is sharded across threads.
  const BinaryProblem p = MakeProblem(37, 29, 576, 23);
  std::vector<std::int32_t> mt(37 * 29);
  Context ctx(4);
  BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits, mt.data(),
        p.n, ctx);
  EXPECT_EQ(mt, p.expected);
}

TEST(BGemm, ConcurrentCallsOnSharedPoolMatchReference) {
  // Serving configuration: several request threads run BGemm at once, each
  // with its own Context (own scratch) on one shared pool. Results must be
  // identical to the serial reference for every caller.
  auto pool = ThreadPool::Shared(4);
  constexpr int kThreads = 4;
  std::vector<BinaryProblem> problems;
  for (int t = 0; t < kThreads; ++t) {
    problems.push_back(MakeProblem(37 + t, 29 + t, 320, 1000 + t));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const BinaryProblem& p = problems[t];
      Context ctx(pool);
      for (int round = 0; round < 10; ++round) {
        std::vector<std::int32_t> out(static_cast<std::size_t>(p.m) * p.n);
        BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits,
              out.data(), p.n, ctx);
        ASSERT_EQ(out, p.expected) << "thread " << t << " round " << round;
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST(ContextDeathTest, ScratchSlotOutOfRangeAborts) {
  // Slot indices are a fixed contract between the kernels; an out-of-range
  // slot must abort instead of silently indexing off the end of scratch_.
  Context ctx(1);
  EXPECT_DEATH(ctx.Scratch(Context::kNumScratchSlots, 16),
               "slot out of range");
  EXPECT_DEATH(ctx.Scratch(-1, 16), "slot out of range");
}

TEST(BGemm, PrepackedRhsIsReusable) {
  const BinaryProblem p = MakeProblem(10, 12, 96, 3);
  PackedBinaryMatrix packed(p.rhs.data(), p.n, p.kw());
  Context ctx(1);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::int32_t> out(10 * 12);
    BGemm(p.lhs.data(), p.m, packed, p.k_bits, out.data(), p.n, ctx);
    EXPECT_EQ(out, p.expected) << "round " << round;
  }
}

TEST(BGemm, RespectsLeadingDimension) {
  const BinaryProblem p = MakeProblem(6, 5, 64, 9);
  const int ldc = 11;
  std::vector<std::int32_t> out(6 * ldc, -777);
  Context ctx(1);
  BGemm(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits, out.data(),
        ldc, ctx);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(out[i * ldc + j], p.expected[i * 5 + j]);
    }
    for (int j = 5; j < ldc; ++j) {
      EXPECT_EQ(out[i * ldc + j], -777) << "padding columns must be untouched";
    }
  }
}

TEST(BGemm, AllOnesAgainstAllOnes) {
  // Identical operands: dot == k_bits exactly.
  const int m = 3, n = 3, k_bits = 100;
  const int kw = BitpackedWords(k_bits);
  std::vector<TBitpacked> ones(static_cast<std::size_t>(m) * kw, 0);
  std::vector<std::int32_t> out(m * n);
  Context ctx(1);
  BGemm(ones.data(), m, ones.data(), n, kw, k_bits, out.data(), n, ctx);
  for (auto v : out) EXPECT_EQ(v, k_bits);
}

TEST(BGemm, OppositeOperands) {
  const int k_bits = 64;
  std::vector<TBitpacked> a(2, 0);             // all +1
  std::vector<TBitpacked> b(2, 0xffffffffu);   // all -1
  std::int32_t out = 0;
  Context ctx(1);
  BGemm(a.data(), 1, b.data(), 1, 2, k_bits, &out, 1, ctx);
  EXPECT_EQ(out, -k_bits);
}

using BaselineFn = void (*)(const TBitpacked*, int, const TBitpacked*, int,
                            int, int, std::int32_t*, int);

class BaselineBGemm : public ::testing::TestWithParam<BaselineFn> {};

TEST_P(BaselineBGemm, MatchesReference) {
  const BinaryProblem p = MakeProblem(21, 19, 161, 13);
  std::vector<std::int32_t> out(21 * 19);
  GetParam()(p.lhs.data(), p.m, p.rhs.data(), p.n, p.kw(), p.k_bits,
             out.data(), p.n);
  EXPECT_EQ(out, p.expected);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineBGemm,
                         ::testing::Values(&bench::DaBnnStyleBGemm,
                                           &bench::TvmStyleBGemm,
                                           &bench::BmxnetStyleBGemm));

}  // namespace
}  // namespace lce::gemm
