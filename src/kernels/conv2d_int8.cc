#include "kernels/conv2d_int8.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/macros.h"
#include "kernels/pipeline/gather_pack.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

// Tier the last int8 Run() executed with (gemm/int8_isa.h enum values):
// lets benches, the flight recorder, and the perf-smoke CI job tell which
// kernel actually ran.
telemetry::Metric* TierGauge() {
  static telemetry::Metric* gauge =
      telemetry::MetricsRegistry::Global().Gauge("conv2d_int8.tier");
  return gauge;
}

}  // namespace

std::unique_ptr<pipeline::OutputTransform> MakeInt8RequantTransform(
    const Conv2DInt8Attrs& attrs, const std::int32_t* row_sums) {
  const int out_c = attrs.geo.out_c;
  std::vector<std::int32_t> requant_multiplier;
  std::vector<int> requant_shift;
  if (!attrs.weight_scales.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs.weight_scales.size()), out_c);
    requant_multiplier.resize(out_c);
    requant_shift.resize(out_c);
    for (int n = 0; n < out_c; ++n) {
      const double real_multiplier =
          static_cast<double>(attrs.input_quant.scale) *
          attrs.weight_scales[n] / attrs.output_quant.scale;
      QuantizeMultiplier(real_multiplier, &requant_multiplier[n],
                         &requant_shift[n]);
    }
  } else {
    requant_multiplier.resize(1);
    requant_shift.resize(1);
    const double real_multiplier =
        static_cast<double>(attrs.input_quant.scale) *
        attrs.weight_quant.scale / attrs.output_quant.scale;
    QuantizeMultiplier(real_multiplier, &requant_multiplier[0],
                       &requant_shift[0]);
  }

  // Fused activation becomes clamping in the quantized domain. Tiny output
  // scales push the quotient far past the int32 range, so saturate in the
  // floating-point domain -- casting an out-of-range double would be UB.
  std::int32_t act_min = -128, act_max = 127;
  const auto quantize_clamp = [&](double real) -> std::int32_t {
    const double q = std::round(real / attrs.output_quant.scale) +
                     attrs.output_quant.zero_point;
    if (q < -128.0) return -128;
    if (q > 127.0) return 127;
    return static_cast<std::int32_t>(q);
  };
  switch (attrs.activation) {
    case Activation::kNone:
    case Activation::kSigmoid:  // not supported fused in the int8 path
      break;
    case Activation::kRelu:
      act_min = quantize_clamp(0.0);
      break;
    case Activation::kRelu6:
      act_min = quantize_clamp(0.0);
      act_max = quantize_clamp(6.0);
      break;
  }

  return std::make_unique<pipeline::Int8RequantTransform>(
      out_c, attrs.input_quant.zero_point, attrs.output_quant.zero_point,
      row_sums, attrs.bias, requant_multiplier, requant_shift, act_min,
      act_max);
}

Conv2DInt8::Conv2DInt8(const std::int8_t* weights_ohwi, Conv2DInt8Attrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(g.padding != Padding::kSameOne);
  LCE_CHECK_EQ(attrs_.weight_quant.zero_point, 0);  // symmetric weights
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.out_c);
  }
  auto weights = std::make_shared<SharedWeights>();
  weights->dot_panels = gemm::PackedInt8DotPanels(weights_ohwi, g.out_c,
                                                  Im2ColDepthFloat(g));
  weights->transform =
      MakeInt8RequantTransform(attrs_, weights->dot_panels.row_sums().data());
  weights_ = std::move(weights);

  InitGeometry();
}

Conv2DInt8::Conv2DInt8(const Conv2DInt8& base, Conv2DInt8Attrs attrs)
    : attrs_(std::move(attrs)), weights_(base.weights_) {
  // InitGeometry rebuilds the tile plan for this instance's own geometry.
  CheckSiblingGeometry(attrs_.geo, base.attrs_.geo);
  InitGeometry();
}

void Conv2DInt8::InitGeometry() {
  const Conv2DGeometry& g = attrs_.geo;
  // Pad with the input zero point so padding contributes zero after offset
  // subtraction (the value Im2ColInt8 pads with too).
  pad_value_ = static_cast<std::int8_t>(
      std::clamp(attrs_.input_quant.zero_point, -128, 127));
  tile_plan_ = pipeline::TilePlan(g, kTileRows);
}

// TileCompute policy of the int8 kernel, every tier: the dense patch gather
// stages the block's raw patch rows (K zero-padded to lda) and the dot
// kernels broadcast 4-byte activation groups straight from them, with no
// panel interleave pass. The block compute is panel-outer / row-inner over
// the Compile()-time PackedInt8DotPanels (weight-stationary: one panel
// stays L1-resident across all rows of the block before the next streams
// in). The tier is fixed at selection time rather than read from the
// engine's profile, so LCE_FORCE_ISA=scalar reaches the scalar kernel even
// in a SIMD-profile context.
class Conv2DInt8DotTileCompute final : public pipeline::TileCompute {
 public:
  Conv2DInt8DotTileCompute(const Conv2DInt8& op, const std::int8_t* input,
                           gemm::Int8Tier tier)
      : op_(op),
        input_(input),
        tier_(tier),
        lda_(op.weights_->dot_panels.k_groups() * gemm::kInt8DotKg) {}

  std::size_t ShardScratchBytes(int block_tiles) const override {
    // Staged raw rows for the whole block; no panel buffer.
    return static_cast<std::size_t>(block_tiles) * Conv2DInt8::kTileRows *
           lda_;
  }

  void ComputeBlock(std::int64_t /*tile0*/, int block_tiles,
                    std::int64_t row0, int block_rows,
                    const pipeline::TilePlan& /*plan*/,
                    gemm::KernelProfile /*profile*/, std::uint8_t* scratch,
                    std::int32_t* acc) const override {
    auto* rows_stage = reinterpret_cast<std::int8_t*>(scratch);
    pipeline::GatherPatchRows(input_, op_.attrs_.geo, op_.pad_value_, row0,
                              block_rows, lda_, rows_stage);
    // Rows of the last tile past the image are zeroed, so every staged row
    // the scratch size counts is defined; the dot kernels stop at
    // block_rows and never read them.
    const int staged_rows = block_tiles * Conv2DInt8::kTileRows;
    std::memset(rows_stage + static_cast<std::int64_t>(block_rows) * lda_, 0,
                static_cast<std::size_t>(staged_rows - block_rows) * lda_);
    gemm::Int8DotComputeBlock(rows_stage, lda_, op_.weights_->dot_panels,
                              tier_, block_rows, acc, op_.attrs_.geo.out_c);
  }

 private:
  const Conv2DInt8& op_;
  const std::int8_t* input_;
  gemm::Int8Tier tier_;
  int lda_;
};

void Conv2DInt8::Run(const Tensor& input, Tensor& output,
                     gemm::Context& ctx) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kInt8);
  LCE_CHECK(output.dtype() == DataType::kInt8);

  // A scalar-profile context pins the whole kernel to the scalar tier (the
  // profile exists so tests can demand the portable kernels). Otherwise the
  // tier is the runtime selection.
  const gemm::Int8Tier tier = ctx.profile() == gemm::KernelProfile::kScalar
                                  ? gemm::Int8Tier::kScalar
                                  : gemm::SelectInt8Tier();
  TierGauge()->Set(static_cast<std::int64_t>(tier));

  const Conv2DInt8DotTileCompute compute(*this, input.data<std::int8_t>(),
                                         tier);
  static const pipeline::ConvPipelineMetrics metrics("conv2d_int8");
  pipeline::ConvPipelineArgs args;
  args.metrics = &metrics;
  // 64 two-row tiles (128 rows) per block amortize the B-panel loads like
  // a full-image GEMM while the staged rows + accumulator still fit in L2.
  args.block_tiles = 64;
  args.out_c = g.out_c;
  args.plan = &tile_plan_;
  args.compute = &compute;
  args.transform = weights_->transform.get();
  args.out = output.raw_data();
  args.out_stride = output.row_stride();
  pipeline::RunConvPipeline(args, ctx, nullptr);
}

}  // namespace lce
