#include "kernels/depthwise_conv.h"

#include "core/macros.h"

namespace lce {

DepthwiseConv2DFloat::DepthwiseConv2DFloat(const float* weights,
                                           DepthwiseConv2DAttrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK_EQ(g.in_c, g.out_c);
  LCE_CHECK(g.padding != Padding::kSameOne);
  weights_ = std::make_shared<std::vector<float>>(
      weights,
      weights + static_cast<std::size_t>(g.filter_h) * g.filter_w * g.in_c);
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.in_c);
  }
}

DepthwiseConv2DFloat::DepthwiseConv2DFloat(const DepthwiseConv2DFloat& base,
                                           DepthwiseConv2DAttrs attrs)
    : attrs_(std::move(attrs)), weights_(base.weights_) {
  // Run walks the spatial extent from attrs_ directly.
  CheckSiblingGeometry(attrs_.geo, base.attrs_.geo);
}

void DepthwiseConv2DFloat::Run(const Tensor& input, Tensor& output) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  const int out_h = g.out_h(), out_w = g.out_w();
  const int pad_h = g.pad_h_begin(), pad_w = g.pad_w_begin();
  const float* in = input.data<float>();
  float* out = output.data<float>();
  const float* bias = attrs_.bias.empty() ? nullptr : attrs_.bias.data();

  for (int b = 0; b < g.batch; ++b) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        float* o =
            out + ((static_cast<std::int64_t>(b) * out_h + oy) * out_w + ox) *
                      g.in_c;
        for (int c = 0; c < g.in_c; ++c) o[c] = 0.0f;
        for (int ky = 0; ky < g.filter_h; ++ky) {
          const int iy = oy * g.stride_h - pad_h + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int kx = 0; kx < g.filter_w; ++kx) {
            const int ix = ox * g.stride_w - pad_w + kx;
            if (ix < 0 || ix >= g.in_w) continue;
            const float* src =
                in + ((static_cast<std::int64_t>(b) * g.in_h + iy) * g.in_w +
                      ix) *
                         g.in_c;
            const float* w =
                weights_->data() +
                (static_cast<std::int64_t>(ky) * g.filter_w + kx) * g.in_c;
            for (int c = 0; c < g.in_c; ++c) o[c] += src[c] * w[c];
          }
        }
        for (int c = 0; c < g.in_c; ++c) {
          float v = o[c];
          if (bias != nullptr) v += bias[c];
          o[c] = ApplyActivation(v, attrs_.activation);
        }
      }
    }
  }
}

std::vector<float> MakeBlurKernel3x3(int channels) {
  static constexpr float kBinomial[9] = {1, 2, 1, 2, 4, 2, 1, 2, 1};
  std::vector<float> w(static_cast<std::size_t>(9) * channels);
  for (int p = 0; p < 9; ++p) {
    for (int c = 0; c < channels; ++c) {
      w[static_cast<std::size_t>(p) * channels + c] = kBinomial[p] / 16.0f;
    }
  }
  return w;
}

}  // namespace lce
