#include "kernels/pipeline/output_transform.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/bitpack.h"
#include "core/macros.h"

namespace lce::pipeline {
namespace {

// The channel-wise transform applied to the accumulator for channel n:
//   f(d) = mult[n] * pre_act(d) + bias[n]
// f is monotone (non-decreasing for mult >= 0, non-increasing otherwise)
// because pre_act is non-decreasing, which is what makes threshold-based
// bitpacked output possible.
float TransformValue(std::int32_t d, float mult, float bias, Activation pre) {
  float v = static_cast<float>(d);
  v = ApplyActivation(v, pre);
  return v * mult + bias;
}

}  // namespace

FloatOutputTransform::FloatOutputTransform(int out_c, Activation pre_activation,
                                           std::vector<float> multiplier,
                                           std::vector<float> bias)
    : out_c_(out_c),
      pre_(pre_activation),
      mult_(std::move(multiplier)),
      bias_(std::move(bias)) {
  if (!mult_.empty()) LCE_CHECK_EQ(static_cast<int>(mult_.size()), out_c);
  if (!bias_.empty()) LCE_CHECK_EQ(static_cast<int>(bias_.size()), out_c);
}

void FloatOutputTransform::Apply(const std::int32_t* acc, std::int64_t row0,
                                 std::int64_t nrows, void* out_void,
                                 std::int64_t out_stride) const {
  const int out_c = out_c_;
  float* out = static_cast<float*>(out_void) + row0 * out_stride;
  const bool has_mult = !mult_.empty();
  const bool has_bias = !bias_.empty();
  const float* mult = has_mult ? mult_.data() : nullptr;
  const float* bias = has_bias ? bias_.data() : nullptr;

  // Specialized branch-free inner loops so the compiler vectorizes the
  // int->float conversion and the fused affine (this transform runs on
  // every output element; see Table 4).
  const bool relu = pre_ == Activation::kRelu;
  if (!has_mult && !has_bias) {
    // Dense rows are one run of nrows * out_c values.
    const bool dense = out_stride == out_c;
    const std::int64_t runs = dense ? 1 : nrows;
    const std::int64_t width = dense ? nrows * out_c : out_c;
    for (std::int64_t r = 0; r < runs; ++r) {
      const std::int32_t* a = acc + r * out_c;
      float* o = out + r * out_stride;
      if (relu) {
        for (std::int64_t i = 0; i < width; ++i) {
          o[i] = static_cast<float>(a[i] > 0 ? a[i] : 0);
        }
      } else {
        for (std::int64_t i = 0; i < width; ++i) {
          o[i] = static_cast<float>(a[i]);
        }
      }
    }
    return;
  }
  if (pre_ == Activation::kNone || relu) {
    for (std::int64_t r = 0; r < nrows; ++r) {
      const std::int32_t* a = acc + r * out_c;
      float* o = out + r * out_stride;
      if (relu) {
        for (int n = 0; n < out_c; ++n) {
          const float v = static_cast<float>(a[n] > 0 ? a[n] : 0);
          o[n] = v * (mult != nullptr ? mult[n] : 1.0f) +
                 (bias != nullptr ? bias[n] : 0.0f);
        }
      } else {
        for (int n = 0; n < out_c; ++n) {
          o[n] = static_cast<float>(a[n]) * (mult != nullptr ? mult[n] : 1.0f) +
                 (bias != nullptr ? bias[n] : 0.0f);
        }
      }
    }
    return;
  }
  // General (rare) activations: the straightforward loop.
  for (std::int64_t r = 0; r < nrows; ++r) {
    const std::int32_t* a = acc + r * out_c;
    float* o = out + r * out_stride;
    for (int n = 0; n < out_c; ++n) {
      float v = ApplyActivation(static_cast<float>(a[n]), pre_);
      if (has_mult) v *= mult[n];
      if (has_bias) v += bias[n];
      o[n] = v;
    }
  }
}

BitpackedOutputTransform::BitpackedOutputTransform(
    int out_c, int k_bits, Activation pre_activation,
    const std::vector<float>& multiplier, const std::vector<float>& bias)
    : out_c_(out_c) {
  if (!multiplier.empty()) {
    LCE_CHECK_EQ(static_cast<int>(multiplier.size()), out_c);
  }
  if (!bias.empty()) LCE_CHECK_EQ(static_cast<int>(bias.size()), out_c);
  cmp_.resize(out_c);
  flip_.resize(out_c);
  for (int n = 0; n < out_c; ++n) {
    const float mult = multiplier.empty() ? 1.0f : multiplier[n];
    const float b = bias.empty() ? 0.0f : bias[n];
    if (mult == 0.0f) {
      // Constant bit: cmp never fires; flip carries the constant.
      cmp_[n] = std::numeric_limits<std::int32_t>::min();
      flip_[n] = b < 0.0f ? 1u : 0u;
      continue;
    }
    const bool increasing = mult > 0.0f;
    // Search d in [-k_bits, k_bits] for the transition point of
    // sign(f(d)). For increasing f: threshold = min{d : f(d) >= 0}; the
    // output bit is set (value -1.0) iff d < threshold. For decreasing f:
    // threshold = max{d : f(d) >= 0}; bit set iff d > threshold.
    std::int32_t lo = -k_bits - 1, hi = k_bits + 1;
    if (increasing) {
      // Find the smallest d with f(d) >= 0 (may be hi if none); the
      // output bit (-1.0) is set iff acc < that threshold.
      while (lo < hi) {
        const std::int32_t mid = lo + (hi - lo) / 2;
        if (TransformValue(mid, mult, b, pre_activation) >= 0.0f) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      cmp_[n] = lo;
      flip_[n] = 0u;
    } else {
      // Find the largest d with f(d) >= 0 (may be lo if none); bit set
      // iff acc > t, i.e. !(acc < t + 1).
      while (lo < hi) {
        const std::int32_t mid = lo + (hi - lo + 1) / 2;
        if (TransformValue(mid, mult, b, pre_activation) >= 0.0f) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      cmp_[n] = lo + 1;
      flip_[n] = 1u;
    }
  }
}

void BitpackedOutputTransform::Apply(const std::int32_t* acc, std::int64_t row0,
                                     std::int64_t nrows, void* out_void,
                                     std::int64_t out_stride) const {
  const int out_c = out_c_;
  const int words = BitpackedWords(out_c);
  TBitpacked* out = static_cast<TBitpacked*>(out_void) + row0 * out_stride;
  const std::int32_t* cmp = cmp_.data();
  const std::uint32_t* flip = flip_.data();
  for (std::int64_t r = 0; r < nrows; ++r) {
    const std::int32_t* a = acc + r * out_c;
    TBitpacked* o = out + r * out_stride;
    for (int w = 0; w < words; ++w) {
      const int base = w * kBitpackWordSize;
      const int valid = std::min(kBitpackWordSize, out_c - base);
      TBitpacked bits = 0;
      // Branch-free: bit = (acc < cmp) XOR flip; auto-vectorizable.
      for (int b = 0; b < valid; ++b) {
        const std::uint32_t bit =
            static_cast<std::uint32_t>(a[base + b] < cmp[base + b]) ^
            flip[base + b];
        bits |= static_cast<TBitpacked>(bit) << b;
      }
      o[w] = bits;
    }
  }
}

void Int32OutputTransform::Apply(const std::int32_t* acc, std::int64_t row0,
                                 std::int64_t nrows, void* out_void,
                                 std::int64_t out_stride) const {
  std::int32_t* out = static_cast<std::int32_t*>(out_void) + row0 * out_stride;
  for (std::int64_t r = 0; r < nrows; ++r) {
    std::memcpy(out + r * out_stride, acc + r * out_c_,
                static_cast<std::size_t>(out_c_) * sizeof(std::int32_t));
  }
}

Int8RequantTransform::Int8RequantTransform(
    int out_c, std::int32_t z_in, std::int32_t z_out,
    const std::int32_t* row_sums, const std::vector<std::int32_t>& bias,
    const std::vector<std::int32_t>& multiplier, const std::vector<int>& shift,
    std::int32_t act_min, std::int32_t act_max)
    : out_c_(out_c),
      z_out_(z_out),
      act_min_(act_min),
      act_max_(act_max),
      offset_(out_c),
      mult_(out_c),
      left_(out_c),
      right_(out_c),
      round_(out_c) {
  LCE_CHECK_EQ(multiplier.size(), shift.size());
  const bool per_channel = multiplier.size() > 1;
  if (per_channel) LCE_CHECK_EQ(static_cast<int>(multiplier.size()), out_c);
  if (!bias.empty()) LCE_CHECK_EQ(static_cast<int>(bias.size()), out_c);
  for (int n = 0; n < out_c; ++n) {
    const std::int64_t b = bias.empty() ? 0 : bias[n];
    offset_[n] = static_cast<std::int32_t>(
        b - static_cast<std::int64_t>(z_in) * row_sums[n]);
    const int q = per_channel ? n : 0;
    mult_[n] = multiplier[q];
    left_[n] = std::clamp(shift[q], 0, 32);
    right_[n] = std::clamp(-shift[q], 0, 32);
    round_[n] = (std::int64_t{1} << right_[n]) >> 1;
  }
}

void Int8RequantTransform::Apply(const std::int32_t* acc, std::int64_t row0,
                                 std::int64_t nrows, void* out_void,
                                 std::int64_t out_stride) const {
  const int out_c = out_c_;
  std::int8_t* out = static_cast<std::int8_t*>(out_void) + row0 * out_stride;
  const std::int32_t* offset = offset_.data();
  const std::int32_t* mult = mult_.data();
  const std::int32_t* left = left_.data();
  const std::int32_t* right = right_.data();
  const std::int64_t* round = round_.data();
  const std::int64_t z_out = z_out_, lo = act_min_, hi = act_max_;
  constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  for (std::int64_t r = 0; r < nrows; ++r) {
    const std::int32_t* a = acc + r * out_c;
    std::int8_t* o = out + r * out_stride;
    for (int n = 0; n < out_c; ++n) {
      // MultiplyByQuantizedMultiplier without its branches: a left shift
      // of 32 saturates every nonzero high half past the int32 clamp, and
      // a rounding right shift of 32 sends every high half to 0.
      const auto v = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a[n]) +
          static_cast<std::uint32_t>(offset[n]));
      const std::int64_t prod = 2 * static_cast<std::int64_t>(v) * mult[n];
      const std::int64_t high = (prod + (std::int64_t{1} << 31)) >> 32;
      const std::int64_t s = ((high << left[n]) + round[n]) >> right[n];
      const std::int64_t q = std::clamp(s, kInt32Min, kInt32Max) + z_out;
      o[n] = static_cast<std::int8_t>(std::clamp(q, lo, hi));
    }
  }
}

}  // namespace lce::pipeline
