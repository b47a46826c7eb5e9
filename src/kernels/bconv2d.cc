#include "kernels/bconv2d.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "core/bitpack.h"
#include "core/macros.h"
#include "telemetry/metrics.h"

namespace lce {

BConv2D::BConv2D(const float* weights_ohwi, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  InitGeometry();
  const Conv2DGeometry& g = attrs_.geo;
  const int in_c_pg = g.in_c / std::max(1, attrs_.groups);
  const int words = BitpackedWords(in_c_pg);
  // Bitpack the weights: per (output channel, filter position), pack the
  // input-channel vector. This is the 32x weight compression; the rows
  // live only until InitWeights has packed them.
  const std::int64_t positions =
      static_cast<std::int64_t>(g.out_c) * g.filter_h * g.filter_w;
  std::vector<TBitpacked> rows(static_cast<std::size_t>(positions) * words, 0);
  for (std::int64_t p = 0; p < positions; ++p) {
    BitpackRow(weights_ohwi + p * in_c_pg, in_c_pg, rows.data() + p * words);
  }
  InitWeights(rows.data());
}

BConv2D::BConv2D(const TBitpacked* packed_weights_ohwi, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  InitGeometry();
  InitWeights(packed_weights_ohwi);
}

BConv2D::BConv2D(const BConv2D& base, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)), weights_(base.weights_) {
  // InitGeometry rebuilds every spatially-dependent structure (indirection
  // table, zero row, tile plan) for this instance's own geometry.
  CheckSiblingGeometry(attrs_.geo, base.attrs_.geo);
  LCE_CHECK(attrs_.groups == base.attrs_.groups &&
            attrs_.output_type == base.attrs_.output_type);
  InitGeometry();
}

void BConv2D::InitGeometry() {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK_GT(g.in_c, 0);
  LCE_CHECK_GT(g.out_c, 0);
  if (!attrs_.multiplier.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.multiplier.size()), g.out_c);
  }
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.out_c);
  }

  const int groups = std::max(1, attrs_.groups);
  LCE_CHECK_EQ(g.in_c % groups, 0);
  LCE_CHECK_EQ(g.out_c % groups, 0);
  const int in_c_pg = g.in_c / groups;
  if (groups > 1) {
    // Group boundaries must fall on bitpacked word boundaries.
    LCE_CHECK_EQ(in_c_pg % kBitpackWordSize, 0);
  }
  k_bits_ = g.filter_h * g.filter_w * in_c_pg;

  // Gather setup. Every convolution gathers its patch rows through the
  // indirection table except an ungrouped 1x1 stride-1 one, which feeds its
  // input to the GEMM directly and needs no table. The table depends only
  // on the geometry, so it is built once here instead of on every Run (the
  // indirection setup cost stays out of the inference hot path).
  if (!DirectPack()) {
    indirection_ = pipeline::IndirectionOffsets(g);
    // 0 bits = +1.0 one-padding; a whole pixel wide, so every group's
    // word slice of it stays in bounds.
    zero_row_.assign(BitpackedWords(g.in_c), 0);
  }

  // Interior/border row-tile classification for the fused engine.
  tile_plan_ = pipeline::TilePlan(g, gemm::kBgemmMr);
}

std::size_t BConv2D::packed_weights_bytes() const {
  const Conv2DGeometry& g = attrs_.geo;
  const int words = BitpackedWords(g.in_c / std::max(1, attrs_.groups));
  return static_cast<std::size_t>(g.out_c) * g.filter_h * g.filter_w * words *
         sizeof(TBitpacked);
}

void BConv2D::InitWeights(const TBitpacked* rows) {
  const Conv2DGeometry& g = attrs_.geo;
  const int groups = std::max(1, attrs_.groups);
  const int in_c_pg = g.in_c / groups;
  const int words = BitpackedWords(in_c_pg);
  const int taps = g.filter_h * g.filter_w;
  const int patch_words = taps * words;

  auto weights = std::make_shared<SharedWeights>();
  const int out_c_pg = g.out_c / groups;
  weights->groups.reserve(groups);
  for (int grp = 0; grp < groups; ++grp) {
    weights->groups.emplace_back(
        rows + static_cast<std::int64_t>(grp) * out_c_pg * patch_words,
        out_c_pg, patch_words);
  }

  // Zero-padding correction table: sum of +/-1 weights per filter position,
  // recovered from the bitpacked rows (wsum = in_c - 2 * popcount since a 1
  // bit encodes -1 and padding bits are 0 but excluded via in_c).
  if (g.padding == Padding::kSameZero) {
    weights->filter_pos_weight_sums.assign(
        static_cast<std::size_t>(taps) * g.out_c, 0);
    for (int n = 0; n < g.out_c; ++n) {
      for (int p = 0; p < taps; ++p) {
        const TBitpacked* row =
            rows + (static_cast<std::int64_t>(n) * taps + p) * words;
        std::int32_t neg = 0;
        for (int w = 0; w < words; ++w) neg += std::popcount(row[w]);
        weights->filter_pos_weight_sums[static_cast<std::size_t>(p) * g.out_c +
                                        n] = in_c_pg - 2 * neg;
      }
    }
  }

  // Output transform policy (the bitpacked flavor precomputes its
  // thresholds in its constructor).
  switch (attrs_.output_type) {
    case BConvOutputType::kFloat:
      weights->transform = std::make_unique<pipeline::FloatOutputTransform>(
          g.out_c, attrs_.pre_activation, attrs_.multiplier, attrs_.bias);
      break;
    case BConvOutputType::kBitpacked:
      weights->transform = std::make_unique<pipeline::BitpackedOutputTransform>(
          g.out_c, k_bits_, attrs_.pre_activation, attrs_.multiplier,
          attrs_.bias);
      break;
    case BConvOutputType::kInt32:
      weights->transform =
          std::make_unique<pipeline::Int32OutputTransform>(g.out_c);
      break;
  }
  weights_ = std::move(weights);
}

void BConv2D::ApplyZeroPaddingCorrectionRows(std::int32_t* acc,
                                             std::int64_t row0,
                                             std::int64_t nrows) const {
  const Conv2DGeometry& g = attrs_.geo;
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  for (std::int64_t r = 0; r < nrows; ++r) {
    // Decompose the flattened output position; the batch index is
    // irrelevant since padding geometry repeats per image.
    const std::int64_t pos = row0 + r;
    const int ox = static_cast<int>(pos % out_w);
    const int oy = static_cast<int>((pos / out_w) % out_h);
    const int iy0 = oy * g.stride_h - pad_h;
    const int ix0 = ox * g.stride_w - pad_w;
    if (iy0 >= 0 && iy0 + g.filter_h <= g.in_h && ix0 >= 0 &&
        ix0 + g.filter_w <= g.in_w) {
      continue;  // no padded taps
    }
    std::int32_t* row = acc + r * g.out_c;
    for (int ky = 0; ky < g.filter_h; ++ky) {
      const int iy = iy0 + ky;
      for (int kx = 0; kx < g.filter_w; ++kx) {
        const int ix = ix0 + kx;
        if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) continue;
        // This tap read one-padding (+1) but should contribute 0:
        // subtract the weight value at this position, per channel.
        const std::int32_t* wsum =
            weights_->filter_pos_weight_sums.data() +
            static_cast<std::size_t>(ky * g.filter_w + kx) * g.out_c;
        for (int n = 0; n < g.out_c; ++n) row[n] -= wsum[n];
      }
    }
  }
}

// TileCompute policy of the binary convolution: build the block's table of
// per-tap row pointers into the input (the pointwise input rows, or the
// taps of the indirection cache) and run the XOR-popcount block kernel
// through it in place, once per group.
class BConvTileCompute final : public pipeline::TileCompute {
 public:
  BConvTileCompute(const BConv2D& op, const TBitpacked* input)
      : op_(op),
        input_(input),
        taps_(op.DirectPack() ? 1 : op.indirection_.taps()),
        group_words_(BitpackedWords(op.attrs_.geo.in_c /
                                    std::max(1, op.attrs_.groups))) {}

  std::size_t ShardScratchBytes(int block_tiles) const override {
    return static_cast<std::size_t>(block_tiles) * gemm::kBgemmMr * taps_ *
           sizeof(const TBitpacked*);
  }

  void ComputeBlock(std::int64_t tile0, int block_tiles, std::int64_t row0,
                    int block_rows, const pipeline::TilePlan& plan,
                    gemm::KernelProfile profile, std::uint8_t* scratch,
                    std::int32_t* acc) const override {
    auto* rows = reinterpret_cast<const TBitpacked**>(scratch);
    if (op_.DirectPack()) {
      // A 1x1 stride-1 convolution's patch rows are its input rows.
      for (int r = 0; r < block_rows; ++r) {
        rows[r] = input_ + (row0 + r) * group_words_;
      }
    } else {
      const int tile_rows = plan.tile_rows();
      for (int i = 0; i < block_tiles; ++i) {
        const int r0 = i * tile_rows;
        pipeline::GatherRowPointers(
            input_, op_.indirection_, op_.zero_row_.data(), row0 + r0,
            std::min(tile_rows, block_rows - r0), plan.interior(tile0 + i),
            rows + static_cast<std::int64_t>(r0) * taps_);
      }
    }
    // Each group reads its word slice of every pixel and writes its columns
    // into its slice of the shared block accumulator (ldc = out_c), so the
    // correction and transform downstream see one plain dense block.
    const int out_c = op_.attrs_.geo.out_c;
    const int groups = static_cast<int>(op_.weights_->groups.size());
    const int out_c_pg = out_c / groups;
    for (int grp = 0; grp < groups; ++grp) {
      gemm::BGemmComputeBlock(rows, taps_, grp * group_words_, group_words_,
                              op_.weights_->groups[grp], op_.k_bits_, profile,
                              block_rows, acc + grp * out_c_pg, out_c);
    }
  }

 private:
  const BConv2D& op_;
  const TBitpacked* input_;
  int taps_;
  int group_words_;  // words per pixel of one group's channel slice
};

// RowCorrector policy: zero-padding fixup, invoked by the engine only for
// blocks containing at least one border tile.
class BConvZeroPadCorrector final : public pipeline::RowCorrector {
 public:
  explicit BConvZeroPadCorrector(const BConv2D& op) : op_(op) {}
  void Apply(std::int32_t* acc, std::int64_t row0,
             std::int64_t nrows) const override {
    op_.ApplyZeroPaddingCorrectionRows(acc, row0, nrows);
  }

 private:
  const BConv2D& op_;
};

void BConv2D::Run(const Tensor& input, Tensor& output, gemm::Context& ctx,
                  BConvStageTimes* times) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kBitpacked);
  // The last dimension: a fully connected layer's tensors are rank 2.
  LCE_CHECK_EQ(input.shape().dim(input.shape().rank() - 1), g.in_c);
  switch (attrs_.output_type) {
    case BConvOutputType::kFloat:
      LCE_CHECK(output.dtype() == DataType::kFloat32);
      break;
    case BConvOutputType::kBitpacked:
      LCE_CHECK(output.dtype() == DataType::kBitpacked);
      break;
    case BConvOutputType::kInt32:
      LCE_CHECK(output.dtype() == DataType::kInt32);
      break;
  }

  // Fused row-tile pipeline for every configuration: row-pointer gather,
  // BGEMM, zero-padding correction and output transform all run per row
  // tile inside the shared engine, so neither patches nor a full-image
  // accumulator are ever materialized.
  const int groups = std::max(1, attrs_.groups);

  static telemetry::Metric* macs =
      telemetry::MetricsRegistry::Global().Counter("bgemm.binary_macs");
  macs->Add(Im2ColRows(g) * (g.out_c / groups) * k_bits_ * groups);

  const BConvTileCompute compute(*this, input.data<TBitpacked>());
  const BConvZeroPadCorrector corrector(*this);

  static const pipeline::ConvPipelineMetrics metrics("bconv2d");
  pipeline::ConvPipelineArgs args;
  args.metrics = &metrics;
  args.out_c = g.out_c;
  args.plan = &tile_plan_;
  args.compute = &compute;
  args.corrector =
      g.padding == Padding::kSameZero ? &corrector : nullptr;
  args.transform = weights_->transform.get();
  args.out = output.raw_data();
  args.out_stride = output.row_stride();
  pipeline::RunConvPipeline(args, ctx, times);
}

}  // namespace lce
