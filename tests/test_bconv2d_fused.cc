// Fused row-tile BConv2D pipeline tests.
//
// The pipeline must be bit-identical to the float reference for every
// geometry class -- pointwise, grouped, one- and zero-padded, strided, odd
// channel counts -- single- and multi-threaded, and for every output type.
// On top of the value parity, these tests pin down the resource contract:
// no full-image accumulator in scratch slot 2, no im2col patch buffer in
// slot 1, and the `bconv2d.fused_tiles` telemetry counter.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/bgemm.h"
#include "kernels/bconv2d.h"
#include "kernels/im2col.h"
#include "kernels/reference.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

std::int64_t GaugeValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Gauge(name)->value();
}

std::int64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Counter(name)->value();
}

struct Problem {
  Conv2DGeometry geo;
  int groups = 1;
  Tensor input_float;          // +/-1 values
  Tensor input_packed;         // bitpacked
  std::vector<float> weights;  // +/-1 OHWI, innermost dim in_c/groups
};

Problem MakeProblem(int hw, int in_c, int out_c, int k, int stride,
                    Padding pad, int groups, std::uint64_t seed) {
  Problem p;
  p.geo.batch = 1;
  p.geo.in_h = p.geo.in_w = hw;
  p.geo.in_c = in_c;
  p.geo.out_c = out_c;
  p.geo.filter_h = p.geo.filter_w = k;
  p.geo.stride_h = p.geo.stride_w = stride;
  p.geo.padding = pad;
  p.groups = groups;

  Rng rng(seed);
  p.input_float = Tensor(DataType::kFloat32, Shape{1, hw, hw, in_c});
  FillSigns(p.input_float, rng);
  p.input_packed = Tensor(DataType::kBitpacked, p.input_float.shape());
  BitpackTensor(p.input_float, p.input_packed);
  p.weights.resize(static_cast<std::size_t>(out_c) * k * k * (in_c / groups));
  for (auto& v : p.weights) v = rng.Sign();
  return p;
}

// Float convolution of the +/-1 data (one-padded for SAME_ONE).
std::vector<float> Reference(const Problem& p) {
  const Conv2DGeometry& g = p.geo;
  std::vector<float> out(Im2ColRows(g) * g.out_c);
  RefConv2DFloat(p.input_float.data<float>(), p.weights.data(), g,
                 g.padding == Padding::kSameOne ? 1.0f : 0.0f, nullptr,
                 nullptr, Activation::kNone, out.data(), p.groups);
  return out;
}

// (hw, in_c, out_c, filter, stride, padding, groups, threads)
using FusedCase = std::tuple<int, int, int, int, int, Padding, int, int>;

class FusedParity : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedParity, BitExactVsReference) {
  const auto [hw, in_c, out_c, k, stride, pad, groups, threads] = GetParam();
  const Problem p = MakeProblem(hw, in_c, out_c, k, stride, pad, groups,
                                hw * 131 + in_c * 7 + out_c + k + stride);
  const auto expected = Reference(p);

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.groups = groups;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);

  Tensor out(DataType::kFloat32,
             Shape{1, p.geo.out_h(), p.geo.out_w(), out_c});
  gemm::Context ctx(threads);
  op.Run(p.input_packed, out, ctx);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]) << "element " << i;
  }
}

// ::testing::Combine over independent axes would multiply out illegal
// combinations (grouped pointwise etc.), so the sweep is an explicit list:
// every geometry class the fused pipeline dispatches on, each at 1 and 4
// threads.
std::vector<FusedCase> FusedSweep() {
  const std::vector<std::tuple<int, int, int, int, int, Padding, int>> geos = {
      {8, 64, 32, 1, 1, Padding::kValid, 1},      // pointwise fast path
      {8, 64, 64, 3, 1, Padding::kSameOne, 1},    // one-padding
      {8, 64, 64, 3, 1, Padding::kSameZero, 1},   // zero-padding correction
      {9, 96, 40, 3, 2, Padding::kSameZero, 1},   // strided + zero-padding
      {9, 96, 40, 3, 2, Padding::kSameOne, 1},    // strided + one-padding
      {7, 33, 17, 3, 1, Padding::kSameZero, 1},   // odd channels
      {7, 33, 17, 5, 1, Padding::kSameOne, 1},    // 5x5, odd channels
      {10, 100, 64, 3, 2, Padding::kValid, 1},    // VALID, strided
      {12, 72, 40, 3, 2, Padding::kSameZero, 1},  // strided border tiles
      {6, 128, 16, 3, 1, Padding::kSameOne, 2},   // grouped (fused gather)
      {6, 128, 16, 3, 1, Padding::kSameZero, 4},  // grouped + zero-padding
  };
  std::vector<FusedCase> cases;
  for (const auto& [hw, in_c, out_c, k, s, pad, g] : geos) {
    for (int threads : {1, 4}) {
      cases.emplace_back(hw, in_c, out_c, k, s, pad, g, threads);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(GeometrySweep, FusedParity,
                         ::testing::ValuesIn(FusedSweep()));

TEST(BConvFused, Int32OutputMatchesReference) {
  const Problem p = MakeProblem(6, 96, 24, 3, 1, Padding::kSameZero, 1, 123);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kInt32;
  BConv2D op(p.weights.data(), attrs);

  Tensor out(DataType::kInt32, Shape{1, 6, 6, 24});
  gemm::Context ctx(2);
  op.Run(p.input_packed, out, ctx);
  const auto expected = Reference(p);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(out.data<std::int32_t>()[i],
              static_cast<std::int32_t>(expected[i]))
        << i;
  }
}

TEST(BConvFused, NoFullImageAccumulatorInScratch) {
  // The defining property of the fusion: scratch slot 2 holds per-shard
  // tiles (independent of the image size), not a rows x out_c accumulator.
  const Problem p = MakeProblem(32, 64, 64, 3, 1, Padding::kSameOne, 1, 7);
  const std::int64_t full_acc_bytes =
      Im2ColRows(p.geo) * p.geo.out_c * sizeof(std::int32_t);

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D fused(p.weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 32, 32, 64});

  telemetry::MetricsRegistry::Global().Reset();
  gemm::Context ctx(1);
  fused.Run(p.input_packed, out, ctx);
  const std::int64_t fused_slot2 = GaugeValue("gemm.scratch_bytes.slot2");
  EXPECT_GT(fused_slot2, 0);
  EXPECT_LT(fused_slot2, full_acc_bytes / 4)
      << "fused path still allocates an image-sized accumulator";
}

TEST(BConvFused, NoIm2ColPatchBufferInScratch) {
  // Gathering replaces im2col: neither an ungrouped nor a grouped
  // convolution touches the slot-1 patch scratch.
  Tensor out(DataType::kFloat32, Shape{1, 16, 16, 32});
  for (const int groups : {1, 2}) {
    const Problem p =
        MakeProblem(16, 64, 32, 3, 1, Padding::kSameOne, groups, 11);
    BConv2DAttrs attrs;
    attrs.geo = p.geo;
    attrs.groups = groups;
    attrs.output_type = BConvOutputType::kFloat;
    BConv2D op(p.weights.data(), attrs);
    telemetry::MetricsRegistry::Global().Reset();
    gemm::Context ctx(1);
    op.Run(p.input_packed, out, ctx);
    EXPECT_EQ(GaugeValue("gemm.scratch_bytes.slot1"), 0) << "groups=" << groups;
  }
}

TEST(BConvFused, FusedTilesCounter) {
  const Problem p = MakeProblem(8, 64, 32, 3, 1, Padding::kSameOne, 1, 13);
  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 8, 8, 32});

  const std::int64_t rows = Im2ColRows(p.geo);
  const std::int64_t m_tiles = (rows + gemm::kBgemmMr - 1) / gemm::kBgemmMr;
  telemetry::MetricsRegistry::Global().Reset();
  gemm::Context ctx(2);
  op.Run(p.input_packed, out, ctx);
  EXPECT_EQ(CounterValue("bconv2d.fused_tiles"), m_tiles);
  op.Run(p.input_packed, out, ctx);
  EXPECT_EQ(CounterValue("bconv2d.fused_tiles"), 2 * m_tiles);
}

TEST(BConvFused, StageTimesSurviveFusion) {
  // The Table 4 stage split must keep flowing from the fused pipeline: the
  // gemm share is reconstructed from per-shard busy time, and im2col is
  // zero because the gather runs inside the gemm stage.
  const Problem p = MakeProblem(16, 64, 64, 3, 1, Padding::kSameOne, 1, 21);
  Tensor out(DataType::kFloat32, Shape{1, 16, 16, 64});

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);

  gemm::Context ctx(2);
  BConvStageTimes times;
  op.Run(p.input_packed, out, ctx, &times);
  EXPECT_EQ(times.im2col, 0.0);
  EXPECT_GT(times.gemm, 0.0);
  EXPECT_GT(times.transform, 0.0);
}

}  // namespace
}  // namespace lce
