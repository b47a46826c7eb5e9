// Naive reference implementations used as ground truth in tests. These are
// deliberately simple loop nests with no packing or fusion.
#ifndef LCE_KERNELS_REFERENCE_H_
#define LCE_KERNELS_REFERENCE_H_

#include <cstdint>

#include "core/quantization.h"
#include "kernels/conv_params.h"

namespace lce {

// Plain float convolution, NHWC input, OHWI weights. Padded locations use
// pad_value (0.0 for SAME_ZERO, +1.0 for SAME_ONE). If multiplier/bias are
// non-null they are applied per output channel: y = act(conv * mult + bias).
// With groups > 1 the channels split into independent groups: weights are
// [out_c][fh][fw][in_c/groups] and output channel n reads input group
// n / (out_c/groups).
void RefConv2DFloat(const float* input, const float* weights,
                    const Conv2DGeometry& geo, float pad_value,
                    const float* multiplier, const float* bias,
                    Activation act, float* output, int groups = 1);

// Plain float depthwise convolution; weights are [1][fh][fw][channels]
// (channel multiplier 1). Padded locations use pad_value.
void RefDepthwiseConv2DFloat(const float* input, const float* weights,
                             const Conv2DGeometry& geo, const float* bias,
                             Activation act, float* output,
                             float pad_value = 0.0f);

// Plain int8 convolution with per-tensor affine activations and symmetric
// per-output-channel weight scales: the int32 accumulator sums
// (x - z_in) * w over the taps (padded taps read z_in, so contribute 0) plus
// bias[n] (null means 0), and is requantized with the fixed-point
// QuantizeMultiplier / MultiplyByQuantizedMultiplier of
// s_in * weight_scales[n] / s_out, offset by z_out and clamped to int8 --
// or to the quantized [0, inf) / [0, 6] range for a fused ReLU / ReLU6.
void RefConv2DInt8(const std::int8_t* input, const std::int8_t* weights,
                   const Conv2DGeometry& geo, const QuantParams& input_quant,
                   const float* weight_scales, const QuantParams& output_quant,
                   const std::int32_t* bias, Activation act,
                   std::int8_t* output);

// Plain float max pooling (padded locations are ignored, TF semantics).
void RefMaxPool2DFloat(const float* input, const Pool2DGeometry& geo,
                       float* output);

}  // namespace lce

#endif  // LCE_KERNELS_REFERENCE_H_
