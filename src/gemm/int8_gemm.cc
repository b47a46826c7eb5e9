#include "gemm/int8_gemm.h"

#include <algorithm>
#include <cstring>

#if defined(__AVX2__) || defined(__AVX512VNNI__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) && defined(__ARM_FEATURE_DOTPROD)
#include <arm_neon.h>
#endif

#include "core/macros.h"

namespace lce::gemm {

// ---------------------------------------------------------------------------
// Dot-product tier kernels. All are panel-outer / row-inner: one weight
// panel stays register/L1-resident across every staged row of the block
// before the next panel streams in (weight-stationary).
// ---------------------------------------------------------------------------

namespace {

// The scalar tier: raw signed dot, exact, and the fallback when the
// requested SIMD kernel is not compiled in. Written in the lane form the
// SIMD kernels use so the compiler can vectorize it: one int32 lane per
// byte of the 64-byte panel line, acc[4j+c] += a[c] * b[4j+c], with the
// line widened once per K-group and shared by 8 rows; output j is the sum
// of lane quad j.
void DotPanelPortable(const std::int8_t* arows, int lda,
                      const std::int8_t* panel, int k_groups, int col0,
                      int cols, int block_rows, std::int32_t* out, int ldc) {
  constexpr int kRows = 8;
  constexpr int kLine = kInt8DotNr * kInt8DotKg;
  for (int r0 = 0; r0 < block_rows; r0 += kRows) {
    const int rows = std::min(kRows, block_rows - r0);
    std::int32_t acc[kRows][kLine] = {};
    for (int g = 0; g < k_groups; ++g) {
      const std::int8_t* line = panel + static_cast<std::int64_t>(g) * kLine;
      std::int32_t b[kLine];
      for (int i = 0; i < kLine; ++i) b[i] = line[i];
      for (int r = 0; r < rows; ++r) {
        const std::int8_t* a = arows +
                               static_cast<std::int64_t>(r0 + r) * lda +
                               static_cast<std::int64_t>(g) * kInt8DotKg;
        const std::int32_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
        for (int i = 0; i < kLine; i += kInt8DotKg) {
          acc[r][i] += a0 * b[i];
          acc[r][i + 1] += a1 * b[i + 1];
          acc[r][i + 2] += a2 * b[i + 2];
          acc[r][i + 3] += a3 * b[i + 3];
        }
      }
    }
    for (int r = 0; r < rows; ++r) {
      std::int32_t* o = out + static_cast<std::int64_t>(r0 + r) * ldc + col0;
      for (int j = 0; j < cols; ++j) {
        const std::int32_t* q = acc[r] + j * kInt8DotKg;
        o[j] = q[0] + q[1] + q[2] + q[3];
      }
    }
  }
}

#if defined(__AVX512VNNI__)
// vpdpbusd is u8 x s8: each staged 4-byte activation group gets the +128
// bias (XOR 0x80808080) before broadcasting, and the epilogue subtracts
// 128 * rowsum(w). The instruction's internal 4-product sum is at most
// 255*128*4 < 2^17, so the i32 lane accumulation is exact by construction.
// Four independent accumulator rows hide the dpbusd latency; the 64-byte B
// line is loaded once per K-group and shared across the quartet.
void DotPanelVnni(const std::int8_t* arows, int lda, const std::int8_t* panel,
                  int k_groups, const std::int32_t* row_sums, int col0,
                  int cols, int block_rows, std::int32_t* out, int ldc) {
  const __mmask16 mask = cols == kInt8DotNr
                             ? static_cast<__mmask16>(0xffff)
                             : static_cast<__mmask16>((1u << cols) - 1);
  // row_sums is padded to a panel multiple, so the full-width load is safe
  // even on the last partial panel (the store below stays masked). mullo
  // rather than slli: GCC 12's slli expands through _mm512_undefined_epi32
  // and trips -Wmaybe-uninitialized (PR105593); this is loop-invariant
  // anyway.
  const __m512i corr = _mm512_mullo_epi32(
      _mm512_loadu_si512(reinterpret_cast<const void*>(row_sums + col0)),
      _mm512_set1_epi32(128));
  const auto bias_bcast = [](const std::int8_t* a, int g) {
    std::uint32_t w;
    std::memcpy(&w, a + static_cast<std::int64_t>(g) * kInt8DotKg, 4);
    return _mm512_set1_epi32(static_cast<int>(w ^ 0x80808080u));
  };
  int r = 0;
  for (; r + 4 <= block_rows; r += 4) {
    const std::int8_t* a0 = arows + static_cast<std::int64_t>(r) * lda;
    const std::int8_t* a1 = a0 + lda;
    const std::int8_t* a2 = a1 + lda;
    const std::int8_t* a3 = a2 + lda;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    for (int g = 0; g < k_groups; ++g) {
      const __m512i b = _mm512_load_si512(panel + static_cast<std::int64_t>(g) *
                                                      kInt8DotNr * kInt8DotKg);
      acc0 = _mm512_dpbusd_epi32(acc0, bias_bcast(a0, g), b);
      acc1 = _mm512_dpbusd_epi32(acc1, bias_bcast(a1, g), b);
      acc2 = _mm512_dpbusd_epi32(acc2, bias_bcast(a2, g), b);
      acc3 = _mm512_dpbusd_epi32(acc3, bias_bcast(a3, g), b);
    }
    std::int32_t* o = out + static_cast<std::int64_t>(r) * ldc + col0;
    _mm512_mask_storeu_epi32(o, mask, _mm512_sub_epi32(acc0, corr));
    _mm512_mask_storeu_epi32(o + ldc, mask, _mm512_sub_epi32(acc1, corr));
    _mm512_mask_storeu_epi32(o + 2 * ldc, mask, _mm512_sub_epi32(acc2, corr));
    _mm512_mask_storeu_epi32(o + 3 * ldc, mask, _mm512_sub_epi32(acc3, corr));
  }
  for (; r < block_rows; ++r) {
    const std::int8_t* a = arows + static_cast<std::int64_t>(r) * lda;
    __m512i acc = _mm512_setzero_si512();
    for (int g = 0; g < k_groups; ++g) {
      const __m512i b = _mm512_load_si512(panel + static_cast<std::int64_t>(g) *
                                                      kInt8DotNr * kInt8DotKg);
      acc = _mm512_dpbusd_epi32(acc, bias_bcast(a, g), b);
    }
    _mm512_mask_storeu_epi32(out + static_cast<std::int64_t>(r) * ldc + col0,
                             mask, _mm512_sub_epi32(acc, corr));
  }
}
#endif  // __AVX512VNNI__

#if defined(__AVX2__)
// vpmaddubsw saturates its pairwise i16 sum (biased 255 * 127 + 255 * 127
// overflows i16), so each 4-byte group is split into even and odd bytes
// first (AND with the 0x00FF / 0xFF00 i16 masks): every i16 lane then
// holds a single u8 x s8 product, |p| <= 255 * 128 = 32640 < 2^15, and no
// saturation can occur. vpmaddwd against ones widens the two
// single-product lanes into the per-channel i32 partial dot. See
// docs/KERNELS.md ("saturation semantics").
void DotPanelAvx2(const std::int8_t* arows, int lda, const std::int8_t* panel,
                  int k_groups, const std::int32_t* row_sums, int col0,
                  int cols, int block_rows, std::int32_t* out, int ldc) {
  const __m256i even_mask = _mm256_set1_epi16(0x00FF);
  const __m256i ones16 = _mm256_set1_epi16(1);
  for (int r = 0; r < block_rows; ++r) {
    const std::int8_t* a = arows + static_cast<std::int64_t>(r) * lda;
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    for (int g = 0; g < k_groups; ++g) {
      const std::int8_t* b = panel + static_cast<std::int64_t>(g) *
                                         kInt8DotNr * kInt8DotKg;
      const __m256i b_lo =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(b));
      const __m256i b_hi =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(b + 32));
      std::uint32_t w;
      std::memcpy(&w, a + static_cast<std::int64_t>(g) * kInt8DotKg, 4);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(w ^ 0x80808080u));
      acc_lo = _mm256_add_epi32(
          acc_lo, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          av, _mm256_and_si256(b_lo, even_mask)),
                      ones16));
      acc_lo = _mm256_add_epi32(
          acc_lo, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          av, _mm256_andnot_si256(even_mask, b_lo)),
                      ones16));
      acc_hi = _mm256_add_epi32(
          acc_hi, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          av, _mm256_and_si256(b_hi, even_mask)),
                      ones16));
      acc_hi = _mm256_add_epi32(
          acc_hi, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          av, _mm256_andnot_si256(even_mask, b_hi)),
                      ones16));
    }
    alignas(32) std::int32_t lanes[kInt8DotNr];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc_lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 8), acc_hi);
    std::int32_t* o = out + static_cast<std::int64_t>(r) * ldc + col0;
    for (int j = 0; j < cols; ++j) {
      o[j] = lanes[j] - 128 * row_sums[col0 + j];
    }
  }
}
#endif  // __AVX2__

#if defined(__ARM_NEON) && defined(__ARM_FEATURE_DOTPROD)
// sdot is s8 x s8 and exact as-is: no activation bias, no rowsum
// correction. Four q-register accumulators cover the 16 panel channels.
void DotPanelNeon(const std::int8_t* arows, int lda, const std::int8_t* panel,
                  int k_groups, int col0, int cols, int block_rows,
                  std::int32_t* out, int ldc) {
  for (int r = 0; r < block_rows; ++r) {
    const std::int8_t* a = arows + static_cast<std::int64_t>(r) * lda;
    int32x4_t acc0 = vdupq_n_s32(0);
    int32x4_t acc1 = vdupq_n_s32(0);
    int32x4_t acc2 = vdupq_n_s32(0);
    int32x4_t acc3 = vdupq_n_s32(0);
    for (int g = 0; g < k_groups; ++g) {
      const std::int8_t* b =
          panel + static_cast<std::int64_t>(g) * kInt8DotNr * kInt8DotKg;
      std::uint32_t w;
      std::memcpy(&w, a + static_cast<std::int64_t>(g) * kInt8DotKg, 4);
      const int8x16_t av = vreinterpretq_s8_u32(vdupq_n_u32(w));
      acc0 = vdotq_s32(acc0, av, vld1q_s8(b));
      acc1 = vdotq_s32(acc1, av, vld1q_s8(b + 16));
      acc2 = vdotq_s32(acc2, av, vld1q_s8(b + 32));
      acc3 = vdotq_s32(acc3, av, vld1q_s8(b + 48));
    }
    alignas(16) std::int32_t lanes[kInt8DotNr];
    vst1q_s32(lanes, acc0);
    vst1q_s32(lanes + 4, acc1);
    vst1q_s32(lanes + 8, acc2);
    vst1q_s32(lanes + 12, acc3);
    std::int32_t* o = out + static_cast<std::int64_t>(r) * ldc + col0;
    for (int j = 0; j < cols; ++j) o[j] = lanes[j];
  }
}
#endif  // __ARM_NEON && __ARM_FEATURE_DOTPROD

}  // namespace

PackedInt8DotPanels::PackedInt8DotPanels(const std::int8_t* rows, int n, int k)
    : n_(n), k_(k), k_groups_((k + kInt8DotKg - 1) / kInt8DotKg) {
  num_panels_ = (n + kInt8DotNr - 1) / kInt8DotNr;
  buf_ = AlignedBuffer(static_cast<std::size_t>(num_panels_) * panel_bytes());
  // Zero first: K-padding bytes and the unused channel slots of the last
  // panel must contribute nothing. The biased u8 x s8 kernels multiply
  // padding weights by a nonzero (biased-zero = 128) activation, so a
  // garbage padding byte would corrupt real outputs.
  buf_.Zero();
  auto* d = reinterpret_cast<std::int8_t*>(buf_.data());
  for (int p = 0; p < num_panels_; ++p) {
    std::int8_t* dp = d + static_cast<std::int64_t>(p) * panel_bytes();
    const int col0 = p * kInt8DotNr;
    const int cols = std::min(kInt8DotNr, n - col0);
    for (int j = 0; j < cols; ++j) {
      const std::int8_t* s = rows + static_cast<std::int64_t>(col0 + j) * k;
      for (int kk = 0; kk < k; ++kk) {
        dp[(static_cast<std::int64_t>(kk / kInt8DotKg) * kInt8DotNr + j) *
               kInt8DotKg +
           kk % kInt8DotKg] = s[kk];
      }
    }
  }
  // Padded to a full panel multiple (extra entries zero) so the VNNI
  // correction load can read a whole 16-lane vector per panel unmasked.
  row_sums_.assign(static_cast<std::size_t>(num_panels_) * kInt8DotNr, 0);
  for (int r = 0; r < n; ++r) {
    std::int32_t s = 0;
    for (int kk = 0; kk < k; ++kk) {
      s += rows[static_cast<std::int64_t>(r) * k + kk];
    }
    row_sums_[r] = s;
  }
}

void Int8DotComputeBlock(const std::int8_t* arows, int lda,
                         const PackedInt8DotPanels& rhs, Int8Tier tier,
                         int block_rows, std::int32_t* out, int ldc) {
  const int k_groups = rhs.k_groups();
  const int n = rhs.n();
  (void)tier;  // unread on builds with no SIMD dot kernel compiled in
  for (int p = 0; p < rhs.num_panels(); ++p) {
    const int col0 = p * kInt8DotNr;
    const int cols = std::min(kInt8DotNr, n - col0);
    const std::int8_t* panel = rhs.panel(p);
#if defined(__AVX512VNNI__)
    if (tier == Int8Tier::kVnni) {
      DotPanelVnni(arows, lda, panel, k_groups, rhs.row_sums().data(), col0,
                   cols, block_rows, out, ldc);
      continue;
    }
#endif
#if defined(__AVX2__)
    if (tier == Int8Tier::kAvx2Dot) {
      DotPanelAvx2(arows, lda, panel, k_groups, rhs.row_sums().data(), col0,
                   cols, block_rows, out, ldc);
      continue;
    }
#endif
#if defined(__ARM_NEON) && defined(__ARM_FEATURE_DOTPROD)
    if (tier == Int8Tier::kNeonDot) {
      DotPanelNeon(arows, lda, panel, k_groups, col0, cols, block_rows, out,
                   ldc);
      continue;
    }
#endif
    // kScalar, or a tier whose kernel is not compiled into this binary.
    DotPanelPortable(arows, lda, panel, k_groups, col0, cols, block_rows, out,
                     ldc);
  }
}

}  // namespace lce::gemm
