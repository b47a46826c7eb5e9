// Shared 2D convolution/pooling geometry: strides, padding arithmetic and
// output-size computation (TensorFlow SAME/VALID semantics).
#ifndef LCE_KERNELS_CONV_PARAMS_H_
#define LCE_KERNELS_CONV_PARAMS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/macros.h"
#include "core/types.h"

namespace lce {

struct Conv2DGeometry {
  int batch = 1;
  int in_h = 0, in_w = 0, in_c = 0;
  int filter_h = 0, filter_w = 0;
  int out_c = 0;
  int stride_h = 1, stride_w = 1;
  Padding padding = Padding::kValid;

  int out_h() const { return OutSize(in_h, filter_h, stride_h); }
  int out_w() const { return OutSize(in_w, filter_w, stride_w); }

  // Top/left padding amounts (zero for VALID).
  int pad_h_begin() const { return PadBegin(in_h, filter_h, stride_h); }
  int pad_w_begin() const { return PadBegin(in_w, filter_w, stride_w); }

  // MACs for a standard convolution: out_positions * filter_volume * out_c.
  std::int64_t macs() const {
    return static_cast<std::int64_t>(batch) * out_h() * out_w() * filter_h *
           filter_w * in_c * out_c;
  }

  bool operator==(const Conv2DGeometry&) const = default;

 private:
  int OutSize(int in, int filter, int stride) const {
    if (padding == Padding::kValid) {
      return (in - filter + stride) / stride;
    }
    return (in + stride - 1) / stride;
  }
  int PadBegin(int in, int filter, int stride) const {
    if (padding == Padding::kValid) return 0;
    const int out = OutSize(in, filter, stride);
    const int total = std::max(0, (out - 1) * stride + filter - in);
    return total / 2;
  }
};

struct Pool2DGeometry {
  int batch = 1;
  int in_h = 0, in_w = 0, channels = 0;
  int filter_h = 2, filter_w = 2;
  int stride_h = 2, stride_w = 2;
  Padding padding = Padding::kValid;

  int out_h() const { return OutSize(in_h, filter_h, stride_h); }
  int out_w() const { return OutSize(in_w, filter_w, stride_w); }
  int pad_h_begin() const { return PadBegin(in_h, filter_h, stride_h); }
  int pad_w_begin() const { return PadBegin(in_w, filter_w, stride_w); }

  bool operator==(const Pool2DGeometry&) const = default;

 private:
  int OutSize(int in, int filter, int stride) const {
    if (padding == Padding::kValid) {
      return (in - filter + stride) / stride;
    }
    return (in + stride - 1) / stride;
  }
  int PadBegin(int in, int filter, int stride) const {
    if (padding == Padding::kValid) return 0;
    const int out = OutSize(in, filter, stride);
    const int total = std::max(0, (out - 1) * stride + filter - in);
    return total / 2;
  }
};

// The convolution's GEMM shape: one LHS row per output position, and a
// row depth of one patch ([filter_h][filter_w][channels], in floats or in
// bitpacked words).
inline std::int64_t Im2ColRows(const Conv2DGeometry& g) {
  return static_cast<std::int64_t>(g.batch) * g.out_h() * g.out_w();
}
inline int Im2ColDepthFloat(const Conv2DGeometry& g) {
  return g.filter_h * g.filter_w * g.in_c;
}
inline int Im2ColDepthBitpacked(const Conv2DGeometry& g) {
  return g.filter_h * g.filter_w * BitpackedWords(g.in_c);
}

// What a weight-sharing sibling kernel (docs/SERVING.md) may change: the
// batch and the spatial input size. Channels, filter, stride and padding
// key every piece of prepared weight state (packed weights, correction
// tables, output transforms), so they must equal the base kernel's.
inline void CheckSiblingGeometry(const Conv2DGeometry& g,
                                 const Conv2DGeometry& base) {
  LCE_CHECK(g.in_c == base.in_c && g.out_c == base.out_c &&
            g.filter_h == base.filter_h && g.filter_w == base.filter_w &&
            g.stride_h == base.stride_h && g.stride_w == base.stride_w &&
            g.padding == base.padding);
}

// A fully connected layer as the 1x1 convolution it runs as: its
// [batch, in] input is NHWC [batch, 1, 1, in].
inline Conv2DGeometry FullyConnectedGeometry(int batch, int in_features,
                                             int out_features) {
  Conv2DGeometry g;
  g.batch = batch;
  g.in_h = g.in_w = 1;
  g.in_c = in_features;
  g.filter_h = g.filter_w = 1;
  g.out_c = out_features;
  return g;
}

// Applies a fused activation to a float value.
inline float ApplyActivation(float v, Activation act) {
  switch (act) {
    case Activation::kNone:
      return v;
    case Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case Activation::kRelu6:
      return v < 0.0f ? 0.0f : (v > 6.0f ? 6.0f : v);
    case Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
  }
  return v;
}

}  // namespace lce

#endif  // LCE_KERNELS_CONV_PARAMS_H_
