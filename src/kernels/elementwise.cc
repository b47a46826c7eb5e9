#include "kernels/elementwise.h"

#include <cmath>

#include "core/macros.h"

namespace lce {

void AddFloat(const Tensor& a, const Tensor& b, Activation act, Tensor& out) {
  LCE_CHECK(a.shape() == b.shape());
  LCE_CHECK(a.shape() == out.shape());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  float* po = out.data<float>();
  const std::int64_t n = a.num_elements();
  if (act == Activation::kNone) {
    for (std::int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  } else if (act == Activation::kRelu) {
    // ReluFloat's branch-free form: ApplyActivation(kRelu), vectorized.
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = pa[i] + pb[i];
      po[i] = v > 0.0f ? v : 0.0f;
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      po[i] = ApplyActivation(pa[i] + pb[i], act);
    }
  }
}

void ReluFloat(const Tensor& x, Tensor& out) {
  LCE_CHECK(x.shape() == out.shape());
  const float* px = x.data<float>();
  float* po = out.data<float>();
  const std::int64_t n = x.num_elements();
  for (std::int64_t i = 0; i < n; ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void BatchNormFloat(const Tensor& x, const std::vector<float>& scale,
                    const std::vector<float>& offset, Tensor& out) {
  LCE_CHECK(x.shape() == out.shape());
  const int c = static_cast<int>(x.shape().dim(x.shape().rank() - 1));
  LCE_CHECK_EQ(static_cast<int>(scale.size()), c);
  LCE_CHECK_EQ(static_cast<int>(offset.size()), c);
  const float* px = x.data<float>();
  float* po = out.data<float>();
  const std::int64_t outer = x.num_elements() / c;
  for (std::int64_t i = 0; i < outer; ++i) {
    for (int j = 0; j < c; ++j) {
      po[i * c + j] = px[i * c + j] * scale[j] + offset[j];
    }
  }
}

void FoldBatchNorm(const std::vector<float>& gamma,
                   const std::vector<float>& beta,
                   const std::vector<float>& mean,
                   const std::vector<float>& variance, float epsilon,
                   std::vector<float>* scale, std::vector<float>* offset) {
  const std::size_t c = gamma.size();
  LCE_CHECK_EQ(beta.size(), c);
  LCE_CHECK_EQ(mean.size(), c);
  LCE_CHECK_EQ(variance.size(), c);
  scale->resize(c);
  offset->resize(c);
  for (std::size_t i = 0; i < c; ++i) {
    const float s = gamma[i] / std::sqrt(variance[i] + epsilon);
    (*scale)[i] = s;
    (*offset)[i] = beta[i] - mean[i] * s;
  }
}

void SoftmaxFloat(const Tensor& x, Tensor& out) {
  LCE_CHECK(x.shape() == out.shape());
  const int c = static_cast<int>(x.shape().dim(x.shape().rank() - 1));
  const float* px = x.data<float>();
  float* po = out.data<float>();
  const std::int64_t outer = x.num_elements() / c;
  for (std::int64_t i = 0; i < outer; ++i) {
    const float* row = px + i * c;
    float* orow = po + i * c;
    float mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (int j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const float inv = 1.0f / sum;
    for (int j = 0; j < c; ++j) orow[j] *= inv;
  }
}

}  // namespace lce
