// Fused row-tile BConv2D pipeline tests.
//
// The pipeline must be bit-identical to the float reference for every
// geometry class -- pointwise, grouped, one- and zero-padded, strided, odd
// channel counts -- single- and multi-threaded, and for every output type.
// On top of the value parity, these tests pin down the resource contract:
// no full-image accumulator in scratch slot 2, no im2col patch buffer in
// slot 1, and the `bconv2d.fused_tiles` telemetry counter. Float output
// into a channel slice of a wider buffer, and every output transform's row
// stride, are checked against the dense run with sentinel-filled buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/bgemm.h"
#include "kernels/bconv2d.h"
#include "kernels/pipeline/output_transform.h"
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
                    Padding pad, int groups, std::uint64_t seed,
                    int batch = 1) {
  Problem p;
  p.geo.batch = batch;
  p.geo.in_h = p.geo.in_w = hw;
  p.geo.in_c = in_c;
  p.geo.out_c = out_c;
  p.geo.filter_h = p.geo.filter_w = k;
  p.geo.stride_h = p.geo.stride_w = stride;
  p.geo.padding = pad;
  p.groups = groups;

  Rng rng(seed);
  p.input_float = Tensor(DataType::kFloat32, Shape{batch, hw, hw, in_c});
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

struct FusedCase {
  int hw, in_c, out_c, k, stride;
  Padding pad;
  int groups, batch, threads;
  gemm::KernelProfile profile;
};

void PrintTo(const FusedCase& c, std::ostream* os) {
  *os << "hw=" << c.hw << " in_c=" << c.in_c << " out_c=" << c.out_c
      << " k=" << c.k << " stride=" << c.stride
      << " pad=" << static_cast<int>(c.pad) << " groups=" << c.groups
      << " batch=" << c.batch << " threads=" << c.threads << " profile="
      << (c.profile == gemm::KernelProfile::kSimd ? "simd" : "scalar");
}

class FusedParity : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedParity, BitExactVsReference) {
  const FusedCase c = GetParam();
  const Problem p =
      MakeProblem(c.hw, c.in_c, c.out_c, c.k, c.stride, c.pad, c.groups,
                  c.hw * 131 + c.in_c * 7 + c.out_c + c.k + c.stride, c.batch);
  const auto expected = Reference(p);

  BConv2DAttrs attrs;
  attrs.geo = p.geo;
  attrs.groups = c.groups;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(p.weights.data(), attrs);

  Tensor out(DataType::kFloat32,
             Shape{c.batch, p.geo.out_h(), p.geo.out_w(), c.out_c});
  gemm::Context ctx(c.threads, c.profile);
  op.Run(p.input_packed, out, ctx);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(out.data<float>()[i], expected[i]) << "element " << i;
  }
}

// ::testing::Combine over independent axes would multiply out illegal
// combinations (grouped pointwise etc.), so the geometries are an explicit
// list: every geometry class the fused pipeline dispatches on, each at 1
// and 4 threads on both kernel profiles. Every case matches the float
// reference exactly, so the scalar and SIMD kernels also agree bitwise.
std::vector<FusedCase> FusedSweep() {
  struct Geo {
    int hw, in_c, out_c, k, stride;
    Padding pad;
    int groups, batch;
  };
  const Geo geos[] = {
      {8, 64, 32, 1, 1, Padding::kValid, 1, 1},      // pointwise fast path
      {8, 64, 64, 3, 1, Padding::kSameOne, 1, 1},    // one-padding
      {8, 64, 64, 3, 1, Padding::kSameZero, 1, 1},   // zero-padding correction
      {9, 96, 40, 3, 2, Padding::kSameZero, 1, 1},   // strided + zero-padding
      {9, 96, 40, 3, 2, Padding::kSameOne, 1, 1},    // strided + one-padding
      {9, 96, 32, 3, 2, Padding::kSameZero, 1, 1},   // one full channel tile
      {7, 33, 17, 3, 1, Padding::kSameZero, 1, 1},   // odd channels
      {7, 33, 17, 5, 1, Padding::kSameOne, 1, 1},    // 5x5, odd channels
      {10, 100, 64, 3, 2, Padding::kValid, 1, 1},    // VALID, strided
      {12, 72, 40, 3, 2, Padding::kSameZero, 1, 1},  // strided border tiles
      {6, 128, 16, 3, 1, Padding::kSameOne, 2, 1},   // grouped (fused gather)
      {6, 128, 16, 3, 1, Padding::kSameZero, 4, 1},  // grouped + zero-padding
      {7, 64, 40, 3, 1, Padding::kSameZero, 1, 3},   // row tiles span images
  };
  std::vector<FusedCase> cases;
  for (const Geo& g : geos) {
    for (int threads : {1, 4}) {
      for (const gemm::KernelProfile profile :
           {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
        cases.push_back({g.hw, g.in_c, g.out_c, g.k, g.stride, g.pad,
                         g.groups, g.batch, threads, profile});
      }
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

// A float-output BConv2D writing into a channel slice of a wider buffer,
// the way a Concat input is written in place (docs/PERFORMANCE.md):
// bitwise the dense run, with every float outside the slice left at its
// sentinel. Both paddings, batch 2, with the fused multiplier and bias of
// a DenseNet layer's batch norm.
TEST(BConvFused, FloatOutputIntoStridedSlice) {
  constexpr int kOutC = 40, kOffset = 24, kStride = kOffset + kOutC + 8;
  constexpr std::uint32_t kSentinel = 0x7fc0beefu;  // a NaN no store writes
  for (const Padding pad : {Padding::kSameOne, Padding::kSameZero}) {
    const Problem p = MakeProblem(9, 64, kOutC, 3, 1, pad, 1, 31, 2);
    BConv2DAttrs attrs;
    attrs.geo = p.geo;
    attrs.output_type = BConvOutputType::kFloat;
    Rng rng(5);
    for (int n = 0; n < kOutC; ++n) {
      attrs.multiplier.push_back(rng.Uniform(-0.1f, 0.1f));
      attrs.bias.push_back(rng.Uniform(-1.0f, 1.0f));
    }
    const BConv2D op(p.weights.data(), attrs);
    const Shape shape{2, p.geo.out_h(), p.geo.out_w(), kOutC};
    const std::int64_t rows = Im2ColRows(p.geo);
    for (int threads : {1, 3}) {
      for (const gemm::KernelProfile profile :
           {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
        gemm::Context ctx(threads, profile);
        Tensor dense(DataType::kFloat32, shape);
        op.Run(p.input_packed, dense, ctx);
        std::vector<std::uint32_t> wide(rows * kStride, kSentinel);
        Tensor slice = Tensor::StridedView(DataType::kFloat32, shape,
                                           wide.data() + kOffset, kStride);
        op.Run(p.input_packed, slice, ctx);
        for (std::int64_t r = 0; r < rows; ++r) {
          for (int j = 0; j < kStride; ++j) {
            const std::uint32_t got = wide[r * kStride + j];
            if (j >= kOffset && j < kOffset + kOutC) {
              ASSERT_EQ(std::memcmp(&got,
                                    dense.data<float>() + r * kOutC + j -
                                        kOffset,
                                    sizeof(got)),
                        0)
                  << "pad " << static_cast<int>(pad) << " threads "
                  << threads << " row " << r << " channel " << j - kOffset;
            } else {
              ASSERT_EQ(got, kSentinel) << "row " << r << " slot " << j;
            }
          }
        }
      }
    }
  }
}

// Every output transform honours the row stride it is given: rows written
// out_stride elements apart equal the dense rows bitwise, and no byte
// between or before them is written. row0 = 2 checks that the stride also
// places the first row.
TEST(OutputTransform, EveryFlavorHonoursRowStride) {
  constexpr int kOutC = 40, kRows = 7, kRow0 = 2, kExtra = 5;
  constexpr std::uint8_t kSentinel = 0xa5;
  Rng rng(17);
  std::vector<std::int32_t> acc(kRows * kOutC);
  for (auto& a : acc) a = static_cast<std::int32_t>(rng.UniformInt(201)) - 100;
  std::vector<float> mult(kOutC), bias(kOutC);
  for (auto& m : mult) m = rng.Uniform(-0.5f, 0.5f);
  for (auto& b : bias) b = rng.Uniform(-2.0f, 2.0f);
  std::vector<std::int32_t> row_sums(kOutC), bias_int32(kOutC);
  for (auto& r : row_sums) r = static_cast<std::int32_t>(rng.UniformInt(64));
  for (auto& b : bias_int32) b = static_cast<std::int32_t>(rng.UniformInt(64));

  struct Flavor {
    const char* name;
    std::unique_ptr<pipeline::OutputTransform> transform;
    int elem_bytes;
    std::int64_t dense_stride;
  };
  std::vector<Flavor> flavors;
  flavors.push_back({"float", std::make_unique<pipeline::FloatOutputTransform>(
                                  kOutC, Activation::kNone,
                                  std::vector<float>{}, std::vector<float>{}),
                     4, kOutC});
  flavors.push_back(
      {"float relu", std::make_unique<pipeline::FloatOutputTransform>(
                         kOutC, Activation::kRelu, std::vector<float>{},
                         std::vector<float>{}),
       4, kOutC});
  flavors.push_back({"float affine",
                     std::make_unique<pipeline::FloatOutputTransform>(
                         kOutC, Activation::kNone, mult, bias),
                     4, kOutC});
  flavors.push_back({"float relu affine",
                     std::make_unique<pipeline::FloatOutputTransform>(
                         kOutC, Activation::kRelu, mult, bias),
                     4, kOutC});
  flavors.push_back({"float relu6 affine",
                     std::make_unique<pipeline::FloatOutputTransform>(
                         kOutC, Activation::kRelu6, mult, bias),
                     4, kOutC});
  flavors.push_back(
      {"bitpacked", std::make_unique<pipeline::BitpackedOutputTransform>(
                        kOutC, 100, Activation::kNone, mult, bias),
       4, BitpackedWords(kOutC)});
  flavors.push_back(
      {"int32", std::make_unique<pipeline::Int32OutputTransform>(kOutC), 4,
       kOutC});
  flavors.push_back(
      {"int8", std::make_unique<pipeline::Int8RequantTransform>(
                   kOutC, 3, -5, row_sums.data(), bias_int32,
                   std::vector<std::int32_t>{1 << 30}, std::vector<int>{-2},
                   -128, 127),
       1, kOutC});

  for (const Flavor& f : flavors) {
    const std::int64_t stride = f.dense_stride + kExtra;
    std::vector<std::uint8_t> dense(
        (kRow0 + kRows) * f.dense_stride * f.elem_bytes, kSentinel);
    std::vector<std::uint8_t> wide((kRow0 + kRows) * stride * f.elem_bytes,
                                   kSentinel);
    f.transform->Apply(acc.data(), kRow0, kRows, dense.data(),
                       f.dense_stride);
    f.transform->Apply(acc.data(), kRow0, kRows, wide.data(), stride);
    const std::int64_t row_bytes = f.dense_stride * f.elem_bytes;
    for (int r = 0; r < kRow0 + kRows; ++r) {
      for (std::int64_t b = 0; b < stride * f.elem_bytes; ++b) {
        const std::uint8_t got = wide[r * stride * f.elem_bytes + b];
        if (r >= kRow0 && b < row_bytes) {
          ASSERT_EQ(got, dense[r * row_bytes + b])
              << f.name << " row " << r << " byte " << b;
        } else {
          ASSERT_EQ(got, kSentinel) << f.name << " row " << r << " byte " << b;
        }
      }
    }
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
