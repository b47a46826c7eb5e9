// Quantize / dequantize operators.
//
// LceQuantize binarizes activations by extracting sign bits into bitpacked
// words (0 bit = +1.0, 1 bit = -1.0), padding channels up to a multiple of
// 32 (paper section 3.2). LceDequantize converts bitpacked data back to
// +/-1.0 floats.
//
// QuantizeInt8 / DequantizeInt8 convert between float and affine int8
// (core/quantization.h), the glue around the int8 convolutions of a
// post-training-quantized graph.
#ifndef LCE_KERNELS_QUANTIZE_OPS_H_
#define LCE_KERNELS_QUANTIZE_OPS_H_

#include "core/quantization.h"
#include "core/tensor.h"
#include "gemm/context.h"

namespace lce {

// input: float NHWC -> output: bitpacked NHWC (same logical shape).
void LceQuantize(const Tensor& input, Tensor& output);

// input: bitpacked NHWC -> output: +/-1.0 float NHWC.
void LceDequantize(const Tensor& input, Tensor& output);

// input: float -> output: int8, element-wise QuantizeValue(v, q). The SIMD
// profile runs 8 lanes at a time on AVX2 (and AVX-512) hosts, byte-identical
// to QuantizeValue for every input, NaN and infinities included; the scalar
// profile, and ISAs without a vector kernel, run QuantizeValue itself.
void QuantizeInt8(const Tensor& input, const QuantParams& q,
                  gemm::KernelProfile profile, Tensor& output);

// input: int8 -> output: float, element-wise DequantizeValue(v, q).
void DequantizeInt8(const Tensor& input, const QuantParams& q, Tensor& output);

}  // namespace lce

#endif  // LCE_KERNELS_QUANTIZE_OPS_H_
