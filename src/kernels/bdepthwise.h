// Binarized depthwise convolution (extension): the depthwise analogue of
// LceBConv2d, needed for MobileNet-style BNNs (e.g. MoBiNet, referenced by
// the paper).
//
// A depthwise binary convolution cannot use BGEMM: each channel accumulates
// its own taps independently, so the reduction runs *across filter taps
// within a bit lane* rather than across packed words. The kernel uses
// bit-sliced arithmetic: XOR gives the per-lane product bits tap by tap,
// and a ripple-carry adder over counter bit-planes accumulates 32 channel
// counters in parallel per word -- a vertical popcount. With T taps the
// per-channel dot is T - 2*count.
//
// Execution runs through the shared fused row-tile engine
// (kernels/pipeline/conv_pipeline.h): the bit-sliced counter is the
// micro-kernel policy, it reads its taps in place through the row pointers
// BConv2D's BGEMM reads through too (pipeline::GatherRowPointers), and the
// shared float output transform applies the fused multiplier/bias per
// cache-resident tile.
#ifndef LCE_KERNELS_BDEPTHWISE_H_
#define LCE_KERNELS_BDEPTHWISE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"
#include "core/types.h"
#include "gemm/context.h"
#include "kernels/conv_params.h"
#include "kernels/pipeline/conv_pipeline.h"
#include "kernels/pipeline/gather_pack.h"

namespace lce {

struct BDepthwiseConv2DAttrs {
  Conv2DGeometry geo;  // out_c must equal in_c; padding kSameOne or kValid
  // Per-channel fused multiplier/bias applied to the integer dot (batch-norm
  // fusion, as in LceBConv2d). Empty means 1 / 0.
  std::vector<float> multiplier;
  std::vector<float> bias;
};

class BDepthwiseConv2D {
 public:
  // Output positions per row tile of the fused pipeline: the granularity
  // of sharding and of the interior/border classification (the counters
  // themselves run one output row at a time).
  static constexpr int kTileRows = 4;

  // weights: float [filter_h][filter_w][channels] with +/-1 values.
  BDepthwiseConv2D(const float* weights, BDepthwiseConv2DAttrs attrs);

  // input: bitpacked NHWC; output: float NHWC.
  // scratch usage: context slot 2 (per-shard row-pointer tables + row-tile
  // accumulator).
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

  const BDepthwiseConv2DAttrs& attrs() const { return attrs_; }

 private:
  friend class BDepthwiseTileCompute;

  BDepthwiseConv2DAttrs attrs_;
  // Bitpacked weights, [filter_h*filter_w][words(channels)].
  std::vector<TBitpacked> packed_weights_;
  // Pipeline state, built once at construction: tap offsets, one-padding
  // source row, interior/border tile classification and the shared float
  // output transform.
  pipeline::IndirectionOffsets indirection_;
  std::vector<TBitpacked> zero_row_;
  pipeline::TilePlan tile_plan_;
  std::unique_ptr<pipeline::OutputTransform> transform_;
};

}  // namespace lce

#endif  // LCE_KERNELS_BDEPTHWISE_H_
