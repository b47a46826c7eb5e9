// Full-precision depthwise Conv2D, used by the QuickNet stem (depthwise
// separable downsampling, Figure 6a) and the antialiased "blur pool"
// transition blocks (Figure 6b: strided depthwise convolution with a fixed
// blurring kernel).
#ifndef LCE_KERNELS_DEPTHWISE_CONV_H_
#define LCE_KERNELS_DEPTHWISE_CONV_H_

#include <memory>
#include <vector>

#include "core/tensor.h"
#include "kernels/conv_params.h"

namespace lce {

struct DepthwiseConv2DAttrs {
  Conv2DGeometry geo;  // out_c must equal in_c (channel multiplier 1)
  Activation activation = Activation::kNone;
  std::vector<float> bias;  // per channel; empty means 0
};

class DepthwiseConv2DFloat {
 public:
  // weights: [filter_h][filter_w][channels] float.
  DepthwiseConv2DFloat(const float* weights, DepthwiseConv2DAttrs attrs);

  // Batch-variant sibling (docs/SERVING.md): shares `base`'s weights;
  // `attrs` may differ from base.attrs() only in what CheckSiblingGeometry
  // allows (batch, spatial input size).
  DepthwiseConv2DFloat(const DepthwiseConv2DFloat& base,
                       DepthwiseConv2DAttrs attrs);

  void Run(const Tensor& input, Tensor& output) const;

  const DepthwiseConv2DAttrs& attrs() const { return attrs_; }

 private:
  DepthwiseConv2DAttrs attrs_;
  std::shared_ptr<const std::vector<float>> weights_;
};

// Returns the fixed 3x3 binomial blur kernel [1 2 1; 2 4 2; 1 2 1]/16
// replicated over `channels`, as used by antialiased downsampling
// (Zhang 2019, referenced by the paper's transition blocks).
std::vector<float> MakeBlurKernel3x3(int channels);

}  // namespace lce

#endif  // LCE_KERNELS_DEPTHWISE_CONV_H_
