#include "kernels/reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lce {

void RefConv2DFloat(const float* input, const float* weights,
                    const Conv2DGeometry& g, float pad_value,
                    const float* multiplier, const float* bias,
                    Activation act, float* output, int groups) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  const int in_c_pg = g.in_c / groups, out_c_pg = g.out_c / groups;
  std::int64_t o = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (int n = 0; n < g.out_c; ++n) {
          const int c0 = n / out_c_pg * in_c_pg;  // first channel of n's group
          double acc = 0.0;
          for (int ky = 0; ky < g.filter_h; ++ky) {
            const int iy = oy * g.stride_h - pad_h + ky;
            for (int kx = 0; kx < g.filter_w; ++kx) {
              const int ix = ox * g.stride_w - pad_w + kx;
              for (int c = 0; c < in_c_pg; ++c) {
                const float w =
                    weights[((static_cast<std::int64_t>(n) * g.filter_h + ky) *
                                 g.filter_w +
                             kx) *
                                in_c_pg +
                            c];
                float v;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
                  v = pad_value;
                } else {
                  v = input[((static_cast<std::int64_t>(b) * g.in_h + iy) *
                                 g.in_w +
                             ix) *
                                g.in_c +
                            c0 + c];
                }
                acc += static_cast<double>(v) * w;
              }
            }
          }
          float y = static_cast<float>(acc);
          if (multiplier != nullptr) y *= multiplier[n];
          if (bias != nullptr) y += bias[n];
          output[o++] = ApplyActivation(y, act);
        }
      }
    }
  }
}

void RefDepthwiseConv2DFloat(const float* input, const float* weights,
                             const Conv2DGeometry& g, const float* bias,
                             Activation act, float* output, float pad_value) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::int64_t o = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (int c = 0; c < g.in_c; ++c) {
          double acc = 0.0;
          for (int ky = 0; ky < g.filter_h; ++ky) {
            const int iy = oy * g.stride_h - pad_h + ky;
            for (int kx = 0; kx < g.filter_w; ++kx) {
              const int ix = ox * g.stride_w - pad_w + kx;
              const float v =
                  iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w
                      ? pad_value
                      : input[((static_cast<std::int64_t>(b) * g.in_h + iy) *
                                   g.in_w +
                               ix) *
                                  g.in_c +
                              c];
              acc += static_cast<double>(v) *
                     weights[(static_cast<std::int64_t>(ky) * g.filter_w + kx) *
                                 g.in_c +
                             c];
            }
          }
          float y = static_cast<float>(acc);
          if (bias != nullptr) y += bias[c];
          output[o++] = ApplyActivation(y, act);
        }
      }
    }
  }
}

void RefConv2DInt8(const std::int8_t* input, const std::int8_t* weights,
                   const Conv2DGeometry& g, const QuantParams& input_quant,
                   const float* weight_scales, const QuantParams& output_quant,
                   const std::int32_t* bias, Activation act,
                   std::int8_t* output) {
  const auto quantize_clamp = [&](double real) {
    return static_cast<std::int32_t>(std::clamp(
        std::round(real / output_quant.scale) + output_quant.zero_point,
        -128.0, 127.0));
  };
  std::int32_t lo = -128, hi = 127;
  if (act == Activation::kRelu || act == Activation::kRelu6) {
    lo = quantize_clamp(0.0);
  }
  if (act == Activation::kRelu6) hi = quantize_clamp(6.0);

  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::int64_t o = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (int n = 0; n < g.out_c; ++n) {
          std::int32_t acc = bias != nullptr ? bias[n] : 0;
          for (int ky = 0; ky < g.filter_h; ++ky) {
            const int iy = oy * g.stride_h - pad_h + ky;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int kx = 0; kx < g.filter_w; ++kx) {
              const int ix = ox * g.stride_w - pad_w + kx;
              if (ix < 0 || ix >= g.in_w) continue;
              const std::int8_t* x =
                  input + ((static_cast<std::int64_t>(b) * g.in_h + iy) *
                               g.in_w +
                           ix) *
                              g.in_c;
              const std::int8_t* w =
                  weights + ((static_cast<std::int64_t>(n) * g.filter_h + ky) *
                                 g.filter_w +
                             kx) *
                                g.in_c;
              for (int c = 0; c < g.in_c; ++c) {
                acc += (x[c] - input_quant.zero_point) * w[c];
              }
            }
          }
          std::int32_t multiplier = 0;
          int shift = 0;
          QuantizeMultiplier(static_cast<double>(input_quant.scale) *
                                 weight_scales[n] / output_quant.scale,
                             &multiplier, &shift);
          // In int64: a saturated product plus z_out must not wrap.
          const std::int64_t q =
              static_cast<std::int64_t>(
                  MultiplyByQuantizedMultiplier(acc, multiplier, shift)) +
              output_quant.zero_point;
          output[o++] = static_cast<std::int8_t>(
              std::clamp<std::int64_t>(q, lo, hi));
        }
      }
    }
  }
}

void RefMaxPool2DFloat(const float* input, const Pool2DGeometry& g,
                       float* output) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  std::int64_t o = 0;
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        for (int c = 0; c < g.channels; ++c) {
          float m = -std::numeric_limits<float>::infinity();
          for (int ky = 0; ky < g.filter_h; ++ky) {
            const int iy = oy * g.stride_h - pad_h + ky;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int kx = 0; kx < g.filter_w; ++kx) {
              const int ix = ox * g.stride_w - pad_w + kx;
              if (ix < 0 || ix >= g.in_w) continue;
              const float v =
                  input[((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w +
                         ix) *
                            g.channels +
                        c];
              if (v > m) m = v;
            }
          }
          output[o++] = m;
        }
      }
    }
  }
}

}  // namespace lce
