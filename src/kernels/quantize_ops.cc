#include "kernels/quantize_ops.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "core/bitpack.h"
#include "core/macros.h"

namespace lce {
namespace {

#if defined(__AVX2__)
// QuantizeValue over 8 lanes, the kernel of every AVX2 host (AVX-512 ones
// included): the same IEEE division x = v / scale; std::round as
// t = trunc(x) stepped one away from zero where |x - t| >= 0.5 (x - t is
// exact, so this rounds half away from zero like std::round, and leaves NaN
// and infinities as they are); the same float add of the zero point; and
// ordered compares for the rails, so NaN lands on -128.
constexpr int kQuantizeLanes = 8;

void QuantizeLanes(const float* src, float scale, float zero_point,
                   std::int8_t* dst) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 x = _mm256_div_ps(_mm256_loadu_ps(src), _mm256_set1_ps(scale));
  const __m256 t = _mm256_round_ps(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256 frac = _mm256_andnot_ps(sign_mask, _mm256_sub_ps(x, t));
  const __m256 step = _mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ);
  const __m256 one =
      _mm256_or_ps(_mm256_set1_ps(1.0f), _mm256_and_ps(x, sign_mask));
  const __m256 scaled =
      _mm256_add_ps(_mm256_add_ps(t, _mm256_and_ps(step, one)),
                    _mm256_set1_ps(zero_point));
  __m256 c = _mm256_blendv_ps(
      _mm256_set1_ps(-128.0f), scaled,
      _mm256_cmp_ps(scaled, _mm256_set1_ps(-128.0f), _CMP_GT_OQ));
  c = _mm256_blendv_ps(
      c, _mm256_set1_ps(127.0f),
      _mm256_cmp_ps(scaled, _mm256_set1_ps(127.0f), _CMP_GE_OQ));
  const __m256i i32 = _mm256_cvttps_epi32(c);
  const __m128i i16 = _mm_packs_epi32(_mm256_castsi256_si128(i32),
                                      _mm256_extracti128_si256(i32, 1));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst), _mm_packs_epi16(i16, i16));
}
#endif

}  // namespace

void LceQuantize(const Tensor& input, Tensor& output) {
  BitpackTensor(input, output);
}

void LceDequantize(const Tensor& input, Tensor& output) {
  UnpackTensor(input, output);
}

void QuantizeInt8(const Tensor& input, const QuantParams& q,
                  gemm::KernelProfile profile, Tensor& output) {
  LCE_CHECK(input.num_elements() == output.num_elements());
  const float* src = input.data<float>();
  std::int8_t* dst = output.data<std::int8_t>();
  const std::int64_t count = input.num_elements();
  std::int64_t i = 0;
#if defined(__AVX2__)
  if (profile == gemm::KernelProfile::kSimd) {
    const auto zero_point = static_cast<float>(q.zero_point);
    for (; i + kQuantizeLanes <= count; i += kQuantizeLanes) {
      QuantizeLanes(src + i, q.scale, zero_point, dst + i);
    }
  }
#else
  (void)profile;
#endif
  for (; i < count; ++i) dst[i] = QuantizeValue(src[i], q);
}

void DequantizeInt8(const Tensor& input, const QuantParams& q,
                    Tensor& output) {
  LCE_CHECK(input.num_elements() == output.num_elements());
  const std::int8_t* src = input.data<std::int8_t>();
  float* dst = output.data<float>();
  const std::int64_t count = input.num_elements();
  for (std::int64_t i = 0; i < count; ++i) dst[i] = DequantizeValue(src[i], q);
}

}  // namespace lce
