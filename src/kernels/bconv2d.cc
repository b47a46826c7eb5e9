#include "kernels/bconv2d.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "core/bitpack.h"
#include "core/macros.h"
#include "kernels/im2col.h"
#include "kernels/pipeline/gather_pack.h"
#include "telemetry/metrics.h"

namespace lce {

BConv2D::BConv2D(const float* weights_ohwi, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  InitGeometry();
  const Conv2DGeometry& g = attrs_.geo;
  const int in_c_pg = g.in_c / std::max(1, attrs_.groups);
  const int words = BitpackedWords(in_c_pg);
  auto weights = std::make_shared<SharedWeights>();
  // Bitpack the weights: per (output channel, filter position), pack the
  // input-channel vector. This is the 32x weight compression.
  weights->rows.assign(
      static_cast<std::size_t>(g.out_c) * g.filter_h * g.filter_w * words, 0);
  for (int n = 0; n < g.out_c; ++n) {
    for (int p = 0; p < g.filter_h * g.filter_w; ++p) {
      const float* src =
          weights_ohwi +
          (static_cast<std::int64_t>(n) * g.filter_h * g.filter_w + p) * in_c_pg;
      BitpackRow(src, in_c_pg,
                 weights->rows.data() +
                     (static_cast<std::int64_t>(n) * g.filter_h * g.filter_w + p) * words);
    }
  }
  InitWeights(weights.get());
  weights_ = std::move(weights);
}

BConv2D::BConv2D(const TBitpacked* packed_weights_ohwi, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  InitGeometry();
  const Conv2DGeometry& g = attrs_.geo;
  const int in_c_pg = g.in_c / std::max(1, attrs_.groups);
  const int words = BitpackedWords(in_c_pg);
  const std::size_t total =
      static_cast<std::size_t>(g.out_c) * g.filter_h * g.filter_w * words;
  auto weights = std::make_shared<SharedWeights>();
  weights->rows.assign(packed_weights_ohwi, packed_weights_ohwi + total);
  InitWeights(weights.get());
  weights_ = std::move(weights);
}

BConv2D::BConv2D(const BConv2D& base, BConv2DAttrs attrs)
    : attrs_(std::move(attrs)), weights_(base.weights_) {
  // Everything the shared state encodes -- packed weights, correction
  // tables, output transforms, all keyed by channels/filter/stride/padding
  // -- must be identical; the batch and the spatial input size (shape
  // buckets) may differ, since InitGeometry rebuilds every
  // spatially-dependent structure (indirection table, zero row, tile plan)
  // for this instance's own geometry.
  const Conv2DGeometry& g = attrs_.geo;
  const Conv2DGeometry& bg = base.attrs_.geo;
  LCE_CHECK(g.in_c == bg.in_c && g.out_c == bg.out_c &&
            g.filter_h == bg.filter_h && g.filter_w == bg.filter_w &&
            g.stride_h == bg.stride_h && g.stride_w == bg.stride_w &&
            g.padding == bg.padding);
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
  const int words = BitpackedWords(in_c_pg);
  k_bits_ = g.filter_h * g.filter_w * in_c_pg;

  // Gather setup. Every convolution gathers its patch rows through the
  // indirection table except an ungrouped 1x1 stride-1 one, which feeds its
  // input to the GEMM directly and needs no table. The table depends only
  // on the geometry, so it is built once here instead of on every Run (the
  // indirection setup cost stays out of the inference hot path).
  if (!DirectPack()) {
    indirection_ = gemm::IndirectionOffsets(g);
    zero_row_.assign(words, 0);  // 0 bits = +1.0 one-padding
  }

  // Interior/border row-tile classification for the fused engine.
  tile_plan_ = pipeline::TilePlan(g, gemm::kBgemmMr);
}

void BConv2D::InitWeights(SharedWeights* weights) const {
  const Conv2DGeometry& g = attrs_.geo;
  const int groups = std::max(1, attrs_.groups);
  const int in_c_pg = g.in_c / groups;
  const int words = BitpackedWords(in_c_pg);
  const int patch_words = g.filter_h * g.filter_w * words;

  const int out_c_pg = g.out_c / groups;
  weights->groups.clear();
  weights->groups.reserve(groups);
  for (int grp = 0; grp < groups; ++grp) {
    weights->groups.emplace_back(
        weights->rows.data() +
            static_cast<std::int64_t>(grp) * out_c_pg * patch_words,
        out_c_pg, patch_words);
  }

  // Zero-padding correction table: sum of +/-1 weights per filter position,
  // recovered from the bitpacked rows (wsum = in_c - 2 * popcount since a 1
  // bit encodes -1 and padding bits are 0 but excluded via in_c).
  if (g.padding == Padding::kSameZero) {
    weights->filter_pos_weight_sums.assign(
        static_cast<std::size_t>(g.filter_h) * g.filter_w * g.out_c, 0);
    for (int n = 0; n < g.out_c; ++n) {
      for (int p = 0; p < g.filter_h * g.filter_w; ++p) {
        const TBitpacked* row =
            weights->rows.data() +
            (static_cast<std::int64_t>(n) * g.filter_h * g.filter_w + p) * words;
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

// TileCompute policy of the binary convolution: pack BGEMM A-panels (from
// the pointwise input rows, by gathering through the indirection cache, or
// by per-group sliced gathering) and run the XOR-popcount block kernel.
class BConvTileCompute final : public pipeline::TileCompute {
 public:
  enum class Mode {
    kPatches,        // contiguous patch rows (the pointwise input)
    kGather,         // indirect gather, groups == 1
    kGatherGrouped,  // per-group sliced gather, one GEMM per group
  };

  BConvTileCompute(const BConv2D& op, Mode mode, const TBitpacked* input)
      : op_(op),
        mode_(mode),
        input_(input),
        rows_(Im2ColRows(op.attrs_.geo)),
        patch_words_(Im2ColDepthBitpacked(op.attrs_.geo)),
        k_blocks_(op.weights_->groups[0].k_blocks()),
        a_elems_(gemm::BGemmApanelElems(k_blocks_, gemm::kBgemmMr)) {}

  std::size_t ShardScratchBytes(int block_tiles) const override {
    return static_cast<std::size_t>(a_elems_) * block_tiles *
           sizeof(std::uint64_t);
  }

  void ComputeBlock(std::int64_t tile0, int block_tiles, std::int64_t row0,
                    int block_rows, const pipeline::TilePlan& plan,
                    gemm::KernelProfile profile, std::uint8_t* scratch,
                    std::int32_t* acc) const override {
    auto* apanels = reinterpret_cast<std::uint64_t*>(scratch);
    const int out_c = op_.attrs_.geo.out_c;

    if (mode_ == Mode::kGatherGrouped) {
      // One sliced gather + GEMM per group; each group's columns land in
      // their slice of the shared block accumulator (ldc = out_c), so the
      // correction and transform downstream see one plain dense block.
      const int groups = op_.attrs_.groups;
      const int out_c_pg = out_c / groups;
      const int group_words = static_cast<int>(op_.zero_row_.size());
      for (int grp = 0; grp < groups; ++grp) {
        for (int i = 0; i < block_tiles; ++i) {
          pipeline::GatherPackBitpackedGroup(
              input_, op_.indirection_, op_.zero_row_.data(),
              grp * group_words, group_words,
              row0 + static_cast<std::int64_t>(i) * gemm::kBgemmMr,
              gemm::kBgemmMr, k_blocks_, plan.interior(tile0 + i),
              apanels + static_cast<std::int64_t>(i) * a_elems_);
        }
        gemm::BGemmComputeBlock(apanels, a_elems_, op_.weights_->groups[grp],
                                op_.k_bits_, profile, block_tiles, block_rows,
                                acc + grp * out_c_pg, out_c);
      }
      return;
    }

    for (int i = 0; i < block_tiles; ++i) {
      std::uint64_t* panel = apanels + static_cast<std::int64_t>(i) * a_elems_;
      const std::int64_t tile_row0 =
          row0 + static_cast<std::int64_t>(i) * gemm::kBgemmMr;
      if (mode_ == Mode::kGather) {
        pipeline::GatherPackBitpacked(input_, op_.indirection_,
                                      op_.zero_row_.data(), tile_row0,
                                      gemm::kBgemmMr, k_blocks_,
                                      plan.interior(tile0 + i), panel);
      } else {
        gemm::BGemmPackLhsTile(input_, static_cast<int>(rows_), patch_words_,
                               static_cast<int>(tile_row0), gemm::kBgemmMr,
                               k_blocks_, panel);
      }
    }
    gemm::BGemmComputeBlock(apanels, a_elems_, op_.weights_->groups[0],
                            op_.k_bits_, profile, block_tiles, block_rows, acc,
                            out_c);
  }

 private:
  const BConv2D& op_;
  Mode mode_;
  const TBitpacked* input_;
  std::int64_t rows_;
  int patch_words_;
  int k_blocks_;
  std::int64_t a_elems_;
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
  LCE_CHECK_EQ(input.shape().dim(3), g.in_c);
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

  // Fused row-tile pipeline for every configuration: pack (or gather),
  // BGEMM, zero-padding correction and output transform all run per row
  // tile inside the shared engine, so neither patches nor a full-image
  // accumulator are ever materialized.
  const int groups = std::max(1, attrs_.groups);
  BConvTileCompute::Mode mode = BConvTileCompute::Mode::kGather;
  if (groups > 1) {
    mode = BConvTileCompute::Mode::kGatherGrouped;
  } else if (DirectPack()) {
    // A 1x1 stride-1 convolution's patch rows are its input rows.
    mode = BConvTileCompute::Mode::kPatches;
  }

  static telemetry::Metric* macs =
      telemetry::MetricsRegistry::Global().Counter("bgemm.binary_macs");
  macs->Add(Im2ColRows(g) * (g.out_c / groups) * k_bits_ * groups);

  const BConvTileCompute compute(*this, mode, input.data<TBitpacked>());
  const BConvZeroPadCorrector corrector(*this);

  pipeline::ConvPipelineArgs args;
  args.variant = "bconv2d";
  args.out_c = g.out_c;
  args.plan = &tile_plan_;
  args.compute = &compute;
  args.corrector =
      g.padding == Padding::kSameZero ? &corrector : nullptr;
  args.transform = weights_->transform.get();
  args.out = output.raw_data();
  pipeline::RunConvPipeline(args, ctx, times);
}

}  // namespace lce
