// Bit-exactness of the ConvPipeline variants that joined the shared engine
// after BConv2D -- binary depthwise, grouped binary, and int8 -- against
// the independent references in kernels/reference.h, single- and
// multi-threaded, and for int8 on every compiled-in micro-kernel tier. The
// per-variant `*.fused_tiles` / `*.interior_tiles` telemetry is pinned down
// here too.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "kernels/bconv2d.h"
#include "kernels/bdepthwise.h"
#include "kernels/conv2d_int8.h"
#include "kernels/reference.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

std::int64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Counter(name)->value();
}

// ---------------------------------------------------------------------------
// Binary depthwise
// ---------------------------------------------------------------------------

struct DepthwiseCase {
  int hw, channels, k, stride;
  Padding pad;
};

class DepthwiseFusedParity : public ::testing::TestWithParam<DepthwiseCase> {};

TEST_P(DepthwiseFusedParity, FusedMatchesReference) {
  const DepthwiseCase c = GetParam();
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = c.hw;
  geo.in_c = geo.out_c = c.channels;
  geo.filter_h = geo.filter_w = c.k;
  geo.stride_h = geo.stride_w = c.stride;
  geo.padding = c.pad;

  Rng rng(c.hw * 17 + c.channels + c.k);
  Tensor in_f(DataType::kFloat32, Shape{1, c.hw, c.hw, c.channels});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(static_cast<std::size_t>(c.k) * c.k * c.channels);
  for (auto& v : w) v = rng.Sign();
  std::vector<float> mult(c.channels), bias(c.channels);
  for (auto& v : mult) v = rng.Uniform(-0.5f, 0.5f);
  for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);

  BDepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.multiplier = mult;
  attrs.bias = bias;
  BDepthwiseConv2D op(w.data(), attrs);

  // Float depthwise convolution of the +/-1 data (one-padded), then the
  // fused per-channel transform.
  std::vector<float> expected(static_cast<std::size_t>(geo.out_h()) *
                              geo.out_w() * c.channels);
  RefDepthwiseConv2DFloat(in_f.data<float>(), w.data(), geo, nullptr,
                          Activation::kNone, expected.data(),
                          /*pad_value=*/1.0f);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::size_t ch = i % c.channels;
    expected[i] = expected[i] * mult[ch] + bias[ch];
  }
  for (const int threads : {1, 4}) {
    Tensor out(DataType::kFloat32,
               Shape{1, geo.out_h(), geo.out_w(), c.channels});
    gemm::Context ctx(threads);
    op.Run(in_b, out, ctx);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(out.data<float>()[i], expected[i])
          << "threads=" << threads << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DepthwiseFusedParity,
    ::testing::Values(DepthwiseCase{8, 32, 3, 1, Padding::kSameOne},
                      DepthwiseCase{8, 64, 3, 1, Padding::kValid},
                      DepthwiseCase{9, 33, 3, 2, Padding::kSameOne},
                      DepthwiseCase{7, 100, 3, 2, Padding::kValid},
                      DepthwiseCase{11, 40, 3, 3, Padding::kSameOne},
                      DepthwiseCase{6, 32, 1, 1, Padding::kValid}));

TEST(DepthwiseFused, TileCountersAdvance) {
  // 12-wide output rows: the 10-position interior run of each SAME row
  // fully contains one aligned 4-row tile, so interior tiles exist without
  // covering everything (an 8-wide image would legitimately have zero).
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 12;
  geo.in_c = geo.out_c = 32;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameOne;

  Rng rng(3);
  Tensor in_b(DataType::kBitpacked, Shape{1, 12, 12, 32});
  FillBitpacked(in_b, rng);
  std::vector<float> w(9 * 32, 1.0f);
  BDepthwiseConv2DAttrs attrs;
  attrs.geo = geo;
  BDepthwiseConv2D op(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 12, 12, 32});

  const std::int64_t rows = Im2ColRows(geo);
  constexpr int kTileRows = BDepthwiseConv2D::kTileRows;
  const std::int64_t m_tiles = (rows + kTileRows - 1) / kTileRows;
  telemetry::MetricsRegistry::Global().Reset();
  gemm::Context ctx(2);
  op.Run(in_b, out, ctx);
  EXPECT_EQ(CounterValue("bdepthwise.fused_tiles"), m_tiles);
  EXPECT_GT(CounterValue("bdepthwise.interior_tiles"), 0);
  EXPECT_LT(CounterValue("bdepthwise.interior_tiles"), m_tiles);
}

// ---------------------------------------------------------------------------
// Grouped binary convolution
// ---------------------------------------------------------------------------

struct GroupedCase {
  int hw, in_c, out_c, groups, k;
  Padding pad;
  BConvOutputType output;
};

class GroupedFusedParity : public ::testing::TestWithParam<GroupedCase> {};

TEST_P(GroupedFusedParity, FusedMatchesReference) {
  const GroupedCase c = GetParam();
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = c.hw;
  geo.in_c = c.in_c;
  geo.out_c = c.out_c;
  geo.filter_h = geo.filter_w = c.k;
  geo.padding = c.pad;

  Rng rng(c.in_c * 13 + c.out_c + c.groups);
  Tensor in_f(DataType::kFloat32, Shape{1, c.hw, c.hw, c.in_c});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(static_cast<std::size_t>(c.out_c) * c.k * c.k *
                       (c.in_c / c.groups));
  for (auto& v : w) v = rng.Sign();
  std::vector<float> mult(c.out_c), bias(c.out_c);
  for (auto& v : mult) v = rng.Uniform(-0.3f, 0.3f);
  for (auto& v : bias) v = rng.Uniform(-2.0f, 2.0f);

  BConv2DAttrs attrs;
  attrs.geo = geo;
  attrs.groups = c.groups;
  attrs.output_type = c.output;
  attrs.multiplier = mult;
  attrs.bias = bias;
  BConv2D op(w.data(), attrs);

  // Grouped float convolution of the +/-1 data, then the fused
  // per-channel transform; bitpacked output is its sign, packed.
  const Shape out_shape{1, geo.out_h(), geo.out_w(), c.out_c};
  Tensor expected(DataType::kFloat32, out_shape);
  float* e = expected.data<float>();
  RefConv2DFloat(in_f.data<float>(), w.data(), geo,
                 c.pad == Padding::kSameOne ? 1.0f : 0.0f, nullptr, nullptr,
                 Activation::kNone, e, c.groups);
  for (std::int64_t i = 0; i < expected.num_elements(); ++i) {
    const std::int64_t n = i % c.out_c;
    e[i] = e[i] * mult[n] + bias[n];
  }
  const DataType out_dtype = c.output == BConvOutputType::kBitpacked
                                 ? DataType::kBitpacked
                                 : DataType::kFloat32;
  if (out_dtype == DataType::kBitpacked) {
    Tensor packed(DataType::kBitpacked, out_shape);
    BitpackTensor(expected, packed);
    expected = std::move(packed);
  }
  telemetry::MetricsRegistry::Global().Reset();
  for (const int threads : {1, 4}) {
    Tensor out(out_dtype, out_shape);
    gemm::Context ctx(threads);
    op.Run(in_b, out, ctx);
    ASSERT_EQ(std::memcmp(out.raw_data(), expected.raw_data(),
                          expected.byte_size()),
              0)
        << "threads=" << threads;
  }
  // Grouped runs go through the fused engine.
  EXPECT_GT(CounterValue("bconv2d.fused_tiles"), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupedFusedParity,
    ::testing::Values(
        // Odd channels-per-group (34/2 = 17) exercises the group column
        // slices that straddle output word boundaries.
        GroupedCase{8, 64, 34, 2, 3, Padding::kSameOne,
                    BConvOutputType::kFloat},
        GroupedCase{8, 64, 32, 2, 3, Padding::kSameZero,
                    BConvOutputType::kFloat},
        GroupedCase{7, 128, 68, 4, 3, Padding::kSameZero,
                    BConvOutputType::kFloat},
        GroupedCase{7, 128, 64, 4, 3, Padding::kSameOne,
                    BConvOutputType::kBitpacked},
        GroupedCase{9, 64, 48, 2, 5, Padding::kSameZero,
                    BConvOutputType::kBitpacked},
        GroupedCase{6, 96, 36, 3, 1, Padding::kValid,
                    BConvOutputType::kFloat}));

// ---------------------------------------------------------------------------
// Int8 convolution
// ---------------------------------------------------------------------------

struct Int8Case {
  int hw, in_c, out_c, k, stride;
  Activation act;
  bool per_channel;
  float out_scale;
  int batch = 1;
};

// Every int8 tier selectable on this machine (gemm/int8_isa.h).
std::vector<gemm::Int8Tier> AvailableInt8Tiers() {
  std::vector<gemm::Int8Tier> tiers;
  for (gemm::Int8Tier t :
       {gemm::Int8Tier::kScalar, gemm::Int8Tier::kAvx2Dot,
        gemm::Int8Tier::kNeonDot, gemm::Int8Tier::kVnni}) {
    if (gemm::Int8TierAvailable(t)) tiers.push_back(t);
  }
  return tiers;
}

// RefConv2DInt8 on the attrs' quantization, with the per-tensor weight
// scale broadcast when the attrs have no per-channel scales.
std::vector<std::int8_t> Int8Reference(const Tensor& in,
                                       const std::vector<std::int8_t>& w,
                                       const Conv2DInt8Attrs& attrs) {
  const Conv2DGeometry& g = attrs.geo;
  std::vector<float> scales = attrs.weight_scales;
  if (scales.empty()) scales.assign(g.out_c, attrs.weight_quant.scale);
  std::vector<std::int8_t> out(static_cast<std::size_t>(g.batch) *
                               g.out_h() * g.out_w() * g.out_c);
  RefConv2DInt8(in.data<std::int8_t>(), w.data(), g, attrs.input_quant,
                scales.data(), attrs.output_quant,
                attrs.bias.empty() ? nullptr : attrs.bias.data(),
                attrs.activation, out.data());
  return out;
}

// Runs `op` on every int8 tier selectable on this machine, single- and
// multi-threaded, and requires each run to reproduce `expected` exactly.
void ExpectEveryTierMatches(const Conv2DInt8& op, const Tensor& in,
                            const std::vector<std::int8_t>& expected) {
  const Conv2DGeometry& g = op.attrs().geo;
  for (const gemm::Int8Tier tier : AvailableInt8Tiers()) {
    gemm::SetInt8TierOverrideForTest(static_cast<int>(tier));
    for (const int threads : {1, 4}) {
      Tensor out(DataType::kInt8,
                 Shape{g.batch, g.out_h(), g.out_w(), g.out_c});
      gemm::Context ctx(threads);
      op.Run(in, out, ctx);
      EXPECT_EQ(std::memcmp(out.raw_data(), expected.data(), expected.size()),
                0)
          << "tier=" << gemm::Int8TierName(tier) << " threads=" << threads;
    }
  }
  gemm::SetInt8TierOverrideForTest(0);
}

class Int8FusedParity : public ::testing::TestWithParam<Int8Case> {};

TEST_P(Int8FusedParity, FusedMatchesReference) {
  const Int8Case c = GetParam();
  Conv2DGeometry geo;
  geo.batch = c.batch;
  geo.in_h = geo.in_w = c.hw;
  geo.in_c = c.in_c;
  geo.out_c = c.out_c;
  geo.filter_h = geo.filter_w = c.k;
  geo.stride_h = geo.stride_w = c.stride;
  geo.padding = Padding::kSameZero;

  Rng rng(c.hw + c.in_c * 3 + c.out_c);
  Tensor in(DataType::kInt8, Shape{c.batch, c.hw, c.hw, c.in_c});
  FillInt8(in, rng);
  std::vector<std::int8_t> w(static_cast<std::size_t>(c.out_c) * c.k * c.k *
                             c.in_c);
  for (auto& v : w) v = rng.Int8(-127, 127);

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.activation = c.act;
  attrs.input_quant = {0.02f, 3};  // nonzero input zero point: padded taps
  attrs.weight_quant = {0.005f, 0};
  // A small output scale pushes many accumulators past +/-127, so the
  // requantization rounding and clamping at the saturation boundaries is
  // exercised.
  attrs.output_quant = {c.out_scale, -4};
  attrs.bias.resize(c.out_c);
  for (auto& v : attrs.bias) {
    v = static_cast<std::int32_t>(rng.UniformInt(2000)) - 1000;
  }
  if (c.per_channel) {
    attrs.weight_scales.resize(c.out_c);
    for (auto& v : attrs.weight_scales) v = rng.Uniform(0.001f, 0.01f);
  }
  const Conv2DInt8 op(w.data(), attrs);
  ExpectEveryTierMatches(op, in, Int8Reference(in, w, attrs));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Int8FusedParity,
    ::testing::Values(
        // Tiny out_scale saturates many outputs at -128/127.
        Int8Case{8, 16, 24, 3, 1, Activation::kNone, false, 0.001f},
        Int8Case{8, 16, 24, 3, 1, Activation::kNone, false, 0.05f},
        Int8Case{9, 24, 17, 3, 2, Activation::kRelu, false, 0.02f},
        Int8Case{7, 8, 40, 5, 1, Activation::kRelu6, false, 0.01f},
        Int8Case{8, 16, 24, 3, 1, Activation::kNone, true, 0.002f},
        Int8Case{6, 32, 8, 1, 1, Activation::kNone, true, 0.05f},
        // ResNet stem: K = 7 * 7 * 3 = 147 is not a multiple of 4.
        Int8Case{20, 3, 24, 7, 2, Activation::kRelu, false, 0.02f},
        // 25 output rows per image, so 2-row tiles straddle images.
        Int8Case{5, 16, 20, 3, 1, Activation::kNone, false, 0.02f, 3}));

TEST(Int8Fused, TileCountersAdvance) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 8;
  geo.in_c = 16;
  geo.out_c = 8;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(4);
  Tensor in(DataType::kInt8, Shape{1, 8, 8, 16});
  FillInt8(in, rng);
  std::vector<std::int8_t> w(static_cast<std::size_t>(8) * 9 * 16, 1);
  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = {0.02f, 0};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.05f, 0};
  Conv2DInt8 op(w.data(), attrs);
  Tensor out(DataType::kInt8, Shape{1, 8, 8, 8});

  const std::int64_t rows = Im2ColRows(geo);
  constexpr int kTileRows = Conv2DInt8::kTileRows;
  const std::int64_t m_tiles = (rows + kTileRows - 1) / kTileRows;
  telemetry::MetricsRegistry::Global().Reset();
  gemm::Context ctx(2);
  op.Run(in, out, ctx);
  EXPECT_EQ(CounterValue("conv2d_int8.fused_tiles"), m_tiles);
  EXPECT_GT(CounterValue("conv2d_int8.interior_tiles"), 0);
  EXPECT_LT(CounterValue("conv2d_int8.interior_tiles"), m_tiles);
}

// Adversarial saturation property test at the convolution level: weights
// and activations drawn only from {-128, -127, +127}, so a saturating
// vpmaddubsw pairwise sum (or a bias/rowsum bookkeeping slip) in any tier
// diverges from the exact reference. Padding is exercised too (kSameZero
// with a nonzero input zero point).
TEST(Int8Fused, ExtremeValueTierParity) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 9;
  geo.in_c = 32;
  geo.out_c = 24;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(31337);
  const std::int8_t extremes[3] = {-128, -127, 127};
  Tensor in(DataType::kInt8, Shape{1, 9, 9, 32});
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<std::int8_t>()[i] = extremes[rng.Int8(0, 2)];
  }
  std::vector<std::int8_t> w(static_cast<std::size_t>(24) * 9 * 32);
  for (auto& v : w) v = extremes[rng.Int8(0, 2)];

  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = {0.02f, 3};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.25f, -4};  // keep most outputs off the clamp rails
  const Conv2DInt8 op(w.data(), attrs);
  ExpectEveryTierMatches(op, in, Int8Reference(in, w, attrs));
}

// The conv2d_int8.tier gauge must report the tier that actually ran.
TEST(Int8Fused, TierGaugeReportsSelectedTier) {
  Conv2DGeometry geo;
  geo.in_h = geo.in_w = 8;
  geo.in_c = 16;
  geo.out_c = 8;
  geo.filter_h = geo.filter_w = 3;
  geo.padding = Padding::kSameZero;

  Rng rng(5);
  Tensor in(DataType::kInt8, Shape{1, 8, 8, 16});
  FillInt8(in, rng);
  std::vector<std::int8_t> w(static_cast<std::size_t>(8) * 9 * 16, 2);
  Conv2DInt8Attrs attrs;
  attrs.geo = geo;
  attrs.input_quant = {0.02f, 0};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.05f, 0};
  Conv2DInt8 op(w.data(), attrs);
  Tensor out(DataType::kInt8, Shape{1, 8, 8, 8});

  auto gauge = [] {
    return telemetry::MetricsRegistry::Global().Gauge("conv2d_int8.tier");
  };
  for (const gemm::Int8Tier tier : AvailableInt8Tiers()) {
    gemm::SetInt8TierOverrideForTest(static_cast<int>(tier));
    gemm::Context ctx(1);
    op.Run(in, out, ctx);
    EXPECT_EQ(gauge()->value(), static_cast<std::int64_t>(tier))
        << "forced tier " << gemm::Int8TierName(tier);
  }
  gemm::SetInt8TierOverrideForTest(0);
  {
    gemm::Context ctx(1);
    op.Run(in, out, ctx);
    EXPECT_EQ(gauge()->value(),
              static_cast<std::int64_t>(gemm::SelectInt8Tier()));
  }
  // A scalar-profile context pins the gauge to the scalar tier regardless
  // of the machine's best tier.
  {
    gemm::Context ctx(1, gemm::KernelProfile::kScalar);
    op.Run(in, out, ctx);
    EXPECT_EQ(gauge()->value(),
              static_cast<std::int64_t>(gemm::Int8Tier::kScalar));
  }
}

}  // namespace
}  // namespace lce
