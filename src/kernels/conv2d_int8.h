// 8-bit quantized Conv2D (fused gather + packed int8 GEMM + requantization),
// standing in for TFLite's quantized convolution in the paper's int8
// comparisons. Per-tensor affine quantization, symmetric weights.
//
// Execution runs through the shared fused row-tile engine
// (kernels/pipeline/conv_pipeline.h): patch rows are copied into staged rows
// by the dense gather the float convolution shares
// (pipeline::GatherPatchRows), the selected tier's
// dot-product kernel (gemm/int8_isa.h) multiplies them against the one
// packed weight layout, gemm::PackedInt8DotPanels, and the requantization
// is the shared Int8RequantTransform applied per cache-resident tile.
#ifndef LCE_KERNELS_CONV2D_INT8_H_
#define LCE_KERNELS_CONV2D_INT8_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/quantization.h"
#include "core/tensor.h"
#include "gemm/context.h"
#include "gemm/int8_gemm.h"
#include "kernels/conv_params.h"
#include "kernels/pipeline/conv_pipeline.h"

namespace lce {

struct Conv2DInt8Attrs {
  Conv2DGeometry geo;
  Activation activation = Activation::kNone;
  QuantParams input_quant;        // scale s_in, zero point z_in
  QuantParams weight_quant;       // symmetric: zero point 0 (per-tensor)
  QuantParams output_quant;       // scale s_out, zero point z_out
  std::vector<std::int32_t> bias;  // int32, scale s_in*s_w[c]; empty means 0
  // Optional per-output-channel weight scales (TFLite-style per-channel
  // quantization). When non-empty, overrides weight_quant.scale; bias[c]
  // must then be at scale s_in * weight_scales[c].
  std::vector<float> weight_scales;
};

// The requantization policy of a Conv2DInt8 with these attrs: multipliers
// and shifts from the input/weight/output scales (per channel when
// attrs.weight_scales is set), the fused activation as a clamp, and the
// input zero-point correction from `row_sums` (the packed weight panels'
// per-channel sums, folded into the transform's per-channel offsets).
std::unique_ptr<pipeline::OutputTransform> MakeInt8RequantTransform(
    const Conv2DInt8Attrs& attrs, const std::int32_t* row_sums);

class Conv2DInt8 {
 public:
  // Output positions per row tile of the fused pipeline: the granularity
  // of sharding and of the interior/border classification.
  static constexpr int kTileRows = 2;

  Conv2DInt8(const std::int8_t* weights_ohwi, Conv2DInt8Attrs attrs);

  // Batch-variant sibling (docs/SERVING.md): shares `base`'s packed weight
  // panels and requantization transform (batch-invariant) and rebuilds only
  // the geometry-dependent state (the tile plan). `attrs`
  // may differ from base.attrs() only in what CheckSiblingGeometry allows
  // (batch, spatial input size).
  Conv2DInt8(const Conv2DInt8& base, Conv2DInt8Attrs attrs);

  // input: int8 NHWC; output: int8 NHWC.
  // scratch usage: context slot 2 (per-shard staged rows + row-tile
  // accumulator).
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

  const Conv2DInt8Attrs& attrs() const { return attrs_; }

 private:
  // Batch-invariant prepared weight state, shared (read-only) between a
  // kernel and its batch-variant siblings.
  struct SharedWeights {
    gemm::PackedInt8DotPanels dot_panels;
    // Requantization policy (multipliers, shifts, activation clamp).
    std::unique_ptr<pipeline::OutputTransform> transform;
  };

  // Builds the geometry-dependent per-variant state (pad value, tile plan)
  // -- the only setup a batch-variant sibling repeats.
  void InitGeometry();

  friend class Conv2DInt8DotTileCompute;

  Conv2DInt8Attrs attrs_;
  std::shared_ptr<const SharedWeights> weights_;
  // Byte value padded taps read: the input zero point, so padding
  // contributes zero after offset subtraction.
  std::int8_t pad_value_ = 0;
  // Pipeline state: the interior/border tile classification.
  pipeline::TilePlan tile_plan_;
};

}  // namespace lce

#endif  // LCE_KERNELS_CONV2D_INT8_H_
