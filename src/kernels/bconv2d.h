// LceBConv2d: the primary binarized operator (paper section 3.2).
//
// Three-stage pipeline, as described in the paper:
//   1. the bitpacked patch rows (one-padding falls out naturally), gathered
//      through the prepare-time indirection cache instead of materialized
//      by im2col (a pointwise convolution reads its input directly);
//   2. BGEMM (XOR + POPCOUNT) accumulating into int32;
//   3. an output-type-specific output transform that applies the fused
//      channel-wise multiplier/bias (from batch-norm fusion), the fused
//      activation, and writes float output -- or compares the accumulator
//      against precomputed per-channel thresholds and writes bitpacked
//      output directly (enabling binarized-layer chaining without
//      materializing full-precision values).
//
// Execution runs through the shared fused row-tile engine
// (kernels/pipeline/conv_pipeline.h) for all group counts; the transforms
// are the shared policies in kernels/pipeline/output_transform.h. The
// paper's full-image im2col + BGEMM baseline lives with the benchmarks
// (bench/im2col_baseline.h).
//
// Zero-padding support: bitpacked data cannot represent 0, so SAME_ZERO
// convolutions are computed with one-padding and then corrected by
// subtracting, per output position, the sum of the +/-1 weights that overlap
// the padded region (precomputed per (filter position, output channel)).
// This is the paper's "extra correction step [which] is therefore slower".
#ifndef LCE_KERNELS_BCONV2D_H_
#define LCE_KERNELS_BCONV2D_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"
#include "core/types.h"
#include "gemm/bgemm.h"
#include "gemm/context.h"
#include "gemm/indirect_bgemm.h"
#include "kernels/conv_params.h"
#include "kernels/pipeline/conv_pipeline.h"

namespace lce {

enum class BConvOutputType : std::uint8_t {
  kFloat = 0,      // full-precision output with fused mult/bias/activation
  kBitpacked = 1,  // thresholded, bitpacked output (binarized chaining)
  kInt32 = 2,      // raw accumulator output (tests / debugging)
};

// Output types legal in serialized graphs (kInt32 is a kernel-level
// debugging mode and never appears in a valid model file).
constexpr bool IsValidGraphBConvOutputType(std::uint8_t v) {
  return v <= static_cast<std::uint8_t>(BConvOutputType::kBitpacked);
}

struct BConv2DAttrs {
  Conv2DGeometry geo;
  BConvOutputType output_type = BConvOutputType::kFloat;
  // Grouped convolution: input and output channels are split into `groups`
  // independent convolutions. Both in_c/groups and out_c/groups must be
  // whole, and in_c/groups must be a multiple of 32 so that group
  // boundaries fall on bitpacked word boundaries.
  int groups = 1;
  // Fused activation applied to the integer accumulator *before* the
  // channel-wise transform (matches conv -> ReLU -> BatchNorm graphs, the
  // QuickNet pattern).
  Activation pre_activation = Activation::kNone;
  // Per-output-channel fused multiplier/bias (empty means 1 / 0).
  std::vector<float> multiplier;
  std::vector<float> bias;
};

// Wall-clock seconds spent in each stage of the last Run() call; used by the
// profiler for the Table 4 accumulation-loop vs output-transform breakdown.
using BConvStageTimes = pipeline::ConvStageTimes;

class BConv2D {
 public:
  // weights: float OHWI with +/-1 values (only the sign is used); for
  // grouped convolutions the innermost dimension is in_c/groups. The
  // weights are bitpacked and Ruy-packed once here -- the converter's
  // "binary weight compression" plus the kernel's weight pre-packing.
  BConv2D(const float* weights_ohwi, BConv2DAttrs attrs);

  // weights already bitpacked (the converter's compressed form): layout
  // [out_c][filter_h*filter_w][words(in_c)], i.e. an OHWI tensor packed
  // along the innermost dimension.
  BConv2D(const TBitpacked* packed_weights_ohwi, BConv2DAttrs attrs);

  // Batch-variant sibling (docs/SERVING.md): shares `base`'s packed weight
  // rows, per-group packed matrices, zero-padding correction table and
  // output transform -- all batch-invariant -- and rebuilds only the
  // geometry-dependent state (indirection cache, tile plan). `attrs` must
  // match base.attrs() in everything except geo.batch.
  BConv2D(const BConv2D& base, BConv2DAttrs attrs);

  // input: bitpacked NHWC [batch, in_h, in_w, in_c(packed)].
  // output: dtype matching attrs.output_type, shape [batch, oh, ow, out_c].
  // scratch usage: context slot 2 (per-shard A-panels + row-tile
  // accumulator).
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx,
           BConvStageTimes* times = nullptr) const;

  const BConv2DAttrs& attrs() const { return attrs_; }

  // Size in bytes of the bitpacked weights (32x smaller than float).
  std::size_t packed_weights_bytes() const {
    return weights_->rows.size() * sizeof(TBitpacked);
  }

 private:
  // Batch-invariant prepared weight state, shared (read-only) between a
  // kernel and its batch-variant siblings: the bitpacked weight rows, the
  // per-group Ruy-packed matrices, the zero-padding correction table and
  // the output transform policy. Immutable once the owning constructor
  // finishes, so any number of siblings may Run() concurrently against it.
  struct SharedWeights {
    // [out_c][fh*fw*words(in_c/groups)]
    std::vector<TBitpacked> rows;
    // One packed weight matrix per group (a single entry when groups == 1).
    std::vector<gemm::PackedBinaryMatrix> groups;
    // Zero-padding correction: weight sums per (filter position, channel),
    // [fh*fw][out_c]; empty unless padding == kSameZero.
    std::vector<std::int32_t> filter_pos_weight_sums;
    // Output transform policy (float / bitpacked-threshold / raw int32).
    std::unique_ptr<pipeline::OutputTransform> transform;
  };

  // True for an ungrouped 1x1 stride-1 convolution: its patch rows are its
  // input rows, packed directly with no indirection table.
  bool DirectPack() const {
    const Conv2DGeometry& g = attrs_.geo;
    return attrs_.groups <= 1 && g.filter_h == 1 && g.filter_w == 1 &&
           g.stride_h == 1 && g.stride_w == 1;
  }
  // Builds the geometry-dependent per-variant state: validation, k_bits_,
  // the indirection cache and the interior/border tile plan. The only
  // setup a batch-variant sibling repeats.
  void InitGeometry();
  // Builds the shared batch-invariant weight state from w->rows (packed
  // matrices, correction table, transform). Requires InitGeometry() first
  // (the bitpacked transform needs k_bits_).
  void InitWeights(SharedWeights* w) const;
  // Corrects `nrows` output positions starting at flattened position `row0`;
  // `acc` points at the first of those rows (tile-local, stride out_c).
  void ApplyZeroPaddingCorrectionRows(std::int32_t* acc, std::int64_t row0,
                                      std::int64_t nrows) const;

  // The pipeline policies are implemented in bconv2d.cc and need access to
  // the prepared state above.
  friend class BConvTileCompute;
  friend class BConvZeroPadCorrector;

  BConv2DAttrs attrs_;
  std::shared_ptr<const SharedWeights> weights_;
  int k_bits_ = 0;  // logical K per group: fh*fw*(in_c/groups)

  // Gather state (every convolution except ungrouped pointwise): the
  // geometry-only indirection table, built once here rather than per Run,
  // plus the all-zero row padded taps gather from (one-padding). zero_row_
  // is sized words(in_c/groups) -- one group's slice.
  gemm::IndirectionOffsets indirection_;
  std::vector<TBitpacked> zero_row_;

  // Interior/border row-tile classification (shared engine input).
  pipeline::TilePlan tile_plan_;
};

}  // namespace lce

#endif  // LCE_KERNELS_BCONV2D_H_
