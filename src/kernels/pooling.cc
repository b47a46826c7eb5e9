#include "kernels/pooling.h"

#include <limits>

#include "core/macros.h"

namespace lce {
void MaxPool2DFloat(const Tensor& input, const Pool2DGeometry& g,
                    Tensor& output) {
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  const float* in = input.data<float>();
  float* out = output.data<float>();
  const std::int64_t out_stride = output.row_stride();
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float* o =
            out + ((static_cast<std::int64_t>(b) * out_h + oy) * out_w + ox) *
                      out_stride;
        for (int c = 0; c < g.channels; ++c) {
          o[c] = -std::numeric_limits<float>::infinity();
        }
        for (int ky = 0; ky < g.filter_h; ++ky) {
          const int iy = oy * g.stride_h - pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int kx = 0; kx < g.filter_w; ++kx) {
            const int ix = ox * g.stride_w - pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const float* src =
                in + ((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w +
                      ix) *
                         g.channels;
            // An unconditional select (not a conditional store) so the
            // loop vectorizes; it keeps o[c] for NaN and equal inputs,
            // exactly like the reference.
            for (int c = 0; c < g.channels; ++c) {
              o[c] = src[c] > o[c] ? src[c] : o[c];
            }
          }
        }
      }
    }
  }
}

void AvgPool2DFloat(const Tensor& input, const Pool2DGeometry& g,
                    Tensor& output) {
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  const float* in = input.data<float>();
  float* out = output.data<float>();
  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float* o =
            out + ((static_cast<std::int64_t>(b) * out_h + oy) * out_w + ox) *
                      g.channels;
        for (int c = 0; c < g.channels; ++c) o[c] = 0.0f;
        int count = 0;
        for (int ky = 0; ky < g.filter_h; ++ky) {
          const int iy = oy * g.stride_h - pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int kx = 0; kx < g.filter_w; ++kx) {
            const int ix = ox * g.stride_w - pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const float* src =
                in + ((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w +
                      ix) *
                         g.channels;
            for (int c = 0; c < g.channels; ++c) o[c] += src[c];
            ++count;
          }
        }
        if (count > 0) {
          const float inv = 1.0f / static_cast<float>(count);
          for (int c = 0; c < g.channels; ++c) o[c] *= inv;
        }
      }
    }
  }
}

void GlobalAvgPoolFloat(const Tensor& input, Tensor& output) {
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  LCE_CHECK_EQ(input.shape().rank(), 4);
  const int batch = static_cast<int>(input.shape().dim(0));
  const int h = static_cast<int>(input.shape().dim(1));
  const int w = static_cast<int>(input.shape().dim(2));
  const int c = static_cast<int>(input.shape().dim(3));
  const float* in = input.data<float>();
  float* out = output.data<float>();
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int b = 0; b < batch; ++b) {
    float* o = out + static_cast<std::int64_t>(b) * c;
    for (int i = 0; i < c; ++i) o[i] = 0.0f;
    const float* src = in + static_cast<std::int64_t>(b) * h * w * c;
    for (int p = 0; p < h * w; ++p) {
      for (int i = 0; i < c; ++i) o[i] += src[static_cast<std::int64_t>(p) * c + i];
    }
    for (int i = 0; i < c; ++i) o[i] *= inv;
  }
}

}  // namespace lce
