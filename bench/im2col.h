// im2col: rearranges convolution input patches into GEMM LHS rows (paper
// section 3.2, stage one of LceBConv2d and of the float/int8 convolutions).
// No production kernel builds a patch matrix -- the binary and int8
// convolutions gather through the ConvPipeline, the float convolution into
// its GEMM's A panels -- so these full-image gathers serve the benchmarks'
// im2col baseline (im2col_baseline.h) and the tests that use them as
// oracles.
//
// Patch layout per output position: [filter_h][filter_w][channels], matching
// OHWI weights flattened per output channel.
//
// The bitpacked variant fills spatially-padded locations with 0 words, which
// encode +1.0 -- i.e. *one-padding* falls out of bitpacked im2col naturally.
// Zero-padding for binary convolutions requires the correction step
// implemented in bconv2d.cc.
#ifndef LCE_BENCH_IM2COL_H_
#define LCE_BENCH_IM2COL_H_

#include <cstdint>

#include "core/types.h"
#include "kernels/conv_params.h"

namespace lce {

// Float: padded locations filled with `pad_value` (0 for SAME_ZERO, 1 for
// SAME_ONE). Output: [batch*out_h*out_w][filter_h*filter_w*in_c].
void Im2ColFloat(const float* input, const Conv2DGeometry& geo,
                 float pad_value, float* output);

// Int8: padded locations filled with `pad_value` (the input zero point, so
// padding contributes zero after offset subtraction).
void Im2ColInt8(const std::int8_t* input, const Conv2DGeometry& geo,
                std::int8_t pad_value, std::int8_t* output);

// Bitpacked: input is NHWC with channels packed into words(in_c) words.
// Output: [batch*out_h*out_w][filter_h*filter_w*words(in_c)] words.
// Padded locations are 0 words (+1.0 one-padding).
void Im2ColBitpacked(const TBitpacked* input, const Conv2DGeometry& geo,
                     TBitpacked* output);

// Grouped variant: gathers only `word_count` words starting at `word_begin`
// of each pixel's `total_words`-word channel vector (group boundaries must
// fall on word boundaries). Output rows have filter_h*filter_w*word_count
// words.
void Im2ColBitpackedGroup(const TBitpacked* input, const Conv2DGeometry& geo,
                          int total_words, int word_begin, int word_count,
                          TBitpacked* output);

}  // namespace lce

#endif  // LCE_BENCH_IM2COL_H_
