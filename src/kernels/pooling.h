// Full-precision pooling operators (TFLite-equivalent implementations used
// by the non-binary parts of the models).
#ifndef LCE_KERNELS_POOLING_H_
#define LCE_KERNELS_POOLING_H_

#include "core/tensor.h"
#include "kernels/conv_params.h"

namespace lce {

// Float max pooling, NHWC. Padded positions are ignored. The output may be
// a channel slice of a wider buffer (its Tensor::row_stride()).
void MaxPool2DFloat(const Tensor& input, const Pool2DGeometry& geo,
                    Tensor& output);

// Float average pooling, NHWC. The divisor counts only valid positions.
void AvgPool2DFloat(const Tensor& input, const Pool2DGeometry& geo,
                    Tensor& output);

// Global average pooling: [N,H,W,C] float -> [N,C] float.
void GlobalAvgPoolFloat(const Tensor& input, Tensor& output);

}  // namespace lce

#endif  // LCE_KERNELS_POOLING_H_
