// Full-precision Conv2D on the packed float GEMM, which gathers its patches
// straight from the input and applies bias and activation as it stores: the
// role TFLite's float convolution plays for the non-binary layers of the
// models. A fully connected layer is its 1x1 case over [batch, 1, 1, in]
// (FullyConnectedGeometry in kernels/conv_params.h).
#ifndef LCE_KERNELS_CONV2D_FLOAT_H_
#define LCE_KERNELS_CONV2D_FLOAT_H_

#include <memory>
#include <vector>

#include "core/tensor.h"
#include "gemm/context.h"
#include "gemm/float_gemm.h"
#include "kernels/conv_params.h"

namespace lce {

struct Conv2DFloatAttrs {
  Conv2DGeometry geo;
  Activation activation = Activation::kNone;
  std::vector<float> bias;  // per out channel; empty means 0
};

class Conv2DFloat {
 public:
  // weights: float OHWI, packed once for the GEMM.
  Conv2DFloat(const float* weights_ohwi, Conv2DFloatAttrs attrs);

  // Batch-variant sibling (docs/SERVING.md): shares `base`'s packed weight
  // matrix; `attrs` may differ from base.attrs() only in what
  // CheckSiblingGeometry allows (batch, spatial input size).
  Conv2DFloat(const Conv2DFloat& base, Conv2DFloatAttrs attrs);

  // input: float NHWC; output: float NHWC [batch, oh, ow, out_c]. The 1x1
  // case also takes the rank-2 [batch, in] / [batch, out] tensors of a
  // fully connected layer.
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

  const Conv2DFloatAttrs& attrs() const { return attrs_; }

 private:
  Conv2DFloatAttrs attrs_;
  std::shared_ptr<const gemm::PackedFloatMatrix> packed_weights_;
};

}  // namespace lce

#endif  // LCE_KERNELS_CONV2D_FLOAT_H_
