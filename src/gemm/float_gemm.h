// Packed float GEMM used by the full-precision layers: the float
// convolutions (first layers, pointwise shortcut convolutions, ...) and the
// fully connected layers, which run as 1x1 convolutions over
// [batch, 1, 1, in]. This plays the role TFLite's Ruy float path plays in
// the paper's measurements.
//
// Computes out[r][j] = act(sum_k patch(r)[k] * rhs[j][k] + bias[j]), where
// patch(r) is output position r's [filter_h][filter_w][in_c] input patch and
// the RHS is stored one output channel per row (OHWI flattened). The patch
// matrix is never built whole: each shard walks its output rows in blocks,
// gathers one block of patch rows into its slice of scratch slot 0 (with
// pipeline::GatherPatchRows, the dense gather the int8 convolution shares),
// runs every B tile over it, and applies the bias and activation as each
// tile is stored. Scratch slot 0 is therefore block-sized, independent of
// the image. A 1x1, stride-1 convolution and every fully connected layer read
// their patch rows in place (patch row r is input pixel r) and use no
// scratch.
//
// Each output is the fused multiply-add chain over k = 0..K-1 from +0.0,
// then + bias, then the activation, in every tile shape, block order,
// thread count and kernel profile, so all of them agree bitwise.
#ifndef LCE_GEMM_FLOAT_GEMM_H_
#define LCE_GEMM_FLOAT_GEMM_H_

#include <cstdint>

#include "core/aligned_buffer.h"
#include "gemm/context.h"
#include "kernels/conv_params.h"

namespace lce::gemm {

// Columns of one micro-kernel tile: the packed B layout.
inline constexpr int kFloatNr = 16;

// RHS packed once at op-preparation time into [k][NR]-interleaved tiles.
class PackedFloatMatrix {
 public:
  PackedFloatMatrix(const float* rows, int n, int k);

  int n() const { return n_; }
  int k() const { return k_; }
  int num_tiles() const { return num_tiles_; }
  const float* tile(int t) const {
    return reinterpret_cast<const float*>(buf_.data()) +
           static_cast<std::int64_t>(t) * tile_elems();
  }
  std::int64_t tile_elems() const {
    return static_cast<std::int64_t>(k_) * kFloatNr;
  }

 private:
  int n_ = 0;
  int k_ = 0;
  int num_tiles_ = 0;
  AlignedBuffer buf_;
};

// Convolves the NHWC `input` under `g` with `rhs` (g.out_c rows of
// filter_h * filter_w * in_c) into the NHWC `out`, whose output position r
// starts at out + r * ldo (ldo >= g.out_c; more when `out` is a channel
// slice of a wider buffer). Padded taps read 0.0, or +1.0 under
// Padding::kSameOne (the training dialect's emulated one-padded binarized
// convolution). `bias` (null: none) is added and `activation` applied
// where each tile is stored. Scratch slot 0 holds each shard's block of
// gathered patch rows; a 1x1, stride-1 convolution uses none.
void FloatGemm(const float* input, const Conv2DGeometry& g,
               const PackedFloatMatrix& rhs, const float* bias,
               Activation activation, float* out, std::int64_t ldo,
               Context& ctx);

}  // namespace lce::gemm

#endif  // LCE_GEMM_FLOAT_GEMM_H_
