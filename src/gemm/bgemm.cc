#include "gemm/bgemm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#if defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

#include "core/macros.h"
#include "telemetry/tracer.h"

namespace lce::gemm {
namespace {

// One micro-kernel call: kRows (1..kBgemmMr) LHS rows against one channel
// tile `b` ([kw][kBgemmNr]), storing k_bits - 2 * popcount for the first
// `cols` channels of row r to out + r * ldc. Row r's words are read through
// rows[r * taps + t] + word_begin, as in BGemmComputeBlock. Each tier is a
// struct whose Run<kRows> has this signature.
using TileFn = void (*)(const TBitpacked* const* rows, int taps,
                        int word_begin, int words, const TBitpacked* b,
                        int k_bits, int cols, std::int32_t* out, int ldc);

// Portable kernel: the SIMD tiers' loop order, one std::popcount per
// (row, channel, word).
struct ScalarKernel {
  template <int kRows>
  static void Run(const TBitpacked* const* rows, int taps, int word_begin,
                  int words, const TBitpacked* b, int k_bits, int cols,
                  std::int32_t* out, int ldc) {
    std::int32_t acc[kRows][kBgemmNr] = {};
    for (int t = 0; t < taps; ++t) {
      const TBitpacked* a[kRows];
      for (int r = 0; r < kRows; ++r) a[r] = rows[r * taps + t] + word_begin;
      for (int w = 0; w < words; ++w, b += kBgemmNr) {
        for (int r = 0; r < kRows; ++r) {
          const TBitpacked x = a[r][w];
          for (int j = 0; j < kBgemmNr; ++j) {
            acc[r][j] += std::popcount(x ^ b[j]);
          }
        }
      }
    }
    for (int r = 0; r < kRows; ++r) {
      std::int32_t* o = out + static_cast<std::int64_t>(r) * ldc;
      for (int j = 0; j < cols; ++j) o[j] = k_bits - 2 * acc[r][j];
    }
  }
};

// Splits a kRows x kBgemmNr tile into sub-tiles of at most 4 rows x 16
// channels, the register budget of the 16-register AVX2 and the NEON
// kernels (Sub::Run<rows> computes one such sub-tile).
template <class Sub>
struct SubTiledKernel {
  template <int kRows>
  static void Run(const TBitpacked* const* rows, int taps, int word_begin,
                  int words, const TBitpacked* b, int k_bits, int cols,
                  std::int32_t* out, int ldc) {
    constexpr int kTop = kRows < 4 ? kRows : 4;
    for (int h = 0; h < kBgemmNr / 16 && 16 * h < cols; ++h) {
      const int sub_cols = std::min(16, cols - 16 * h);
      Sub::template Run<kTop>(rows, taps, word_begin, words, b + 16 * h,
                              k_bits, sub_cols, out + 16 * h, ldc);
      if constexpr (kRows > 4) {
        Sub::template Run<kRows - 4>(rows + 4 * taps, taps, word_begin, words,
                                     b + 16 * h, k_bits, sub_cols,
                                     out + 4 * static_cast<std::int64_t>(ldc) +
                                         16 * h,
                                     ldc);
      }
    }
  }
};

#if defined(__AVX512VPOPCNTDQ__) && defined(__AVX512F__)
#define LCE_BGEMM_AVX512 1
// AVX-512 kernel: per K word, two aligned zmm loads of the 32 channels,
// then per row one broadcast and vpxord + vpopcntd + vpaddd into each of
// its two accumulators (2 * kRows + 3 of the 32 zmm registers). Every lane
// holds one output, so the epilogue is a doubling, a subtract and a store
// (masked for a partial channel tile).
struct Avx512Kernel {
  template <int kRows>
  static void Run(const TBitpacked* const* rows, int taps, int word_begin,
                  int words, const TBitpacked* b, int k_bits, int cols,
                  std::int32_t* out, int ldc) {
    __m512i acc[kRows][2];
    for (int r = 0; r < kRows; ++r) {
      acc[r][0] = _mm512_setzero_si512();
      acc[r][1] = _mm512_setzero_si512();
    }
    for (int t = 0; t < taps; ++t) {
      const TBitpacked* a[kRows];
      for (int r = 0; r < kRows; ++r) a[r] = rows[r * taps + t] + word_begin;
      for (int w = 0; w < words; ++w, b += kBgemmNr) {
        const __m512i b0 = _mm512_load_si512(b);
        const __m512i b1 = _mm512_load_si512(b + 16);
        for (int r = 0; r < kRows; ++r) {
          const __m512i x = _mm512_set1_epi32(static_cast<int>(a[r][w]));
          acc[r][0] = _mm512_add_epi32(
              acc[r][0], _mm512_popcnt_epi32(_mm512_xor_si512(x, b0)));
          acc[r][1] = _mm512_add_epi32(
              acc[r][1], _mm512_popcnt_epi32(_mm512_xor_si512(x, b1)));
        }
      }
    }
    const __m512i kb = _mm512_set1_epi32(k_bits);
    const auto dot = [&](__m512i pop) {  // k_bits - 2 * popcount
      return _mm512_sub_epi32(kb, _mm512_add_epi32(pop, pop));
    };
    const auto mask = [](int n) {
      return static_cast<__mmask16>(n >= 16 ? 0xffffu
                                    : n <= 0 ? 0u
                                             : (1u << n) - 1u);
    };
    const __mmask16 m0 = mask(cols);
    const __mmask16 m1 = mask(cols - 16);
    for (int r = 0; r < kRows; ++r) {
      std::int32_t* o = out + static_cast<std::int64_t>(r) * ldc;
      _mm512_mask_storeu_epi32(o, m0, dot(acc[r][0]));
      if (cols > 16) _mm512_mask_storeu_epi32(o + 16, m1, dot(acc[r][1]));
    }
  }
};
#endif  // __AVX512VPOPCNTDQ__ && __AVX512F__

#if defined(__AVX2__) && !defined(LCE_BGEMM_AVX512)
#define LCE_BGEMM_AVX2 1
// AVX2 sub-kernel, kRows (<= 4) rows x 16 channels in two ymm of 8 lanes.
// Popcounts come from the nibble-LUT pshufb sequence as per-byte counts
// (<= 8 per K word), which accumulate in bytes for up to 31 words
// (31 * 8 = 248 fits) before widening into the int32 lanes: vpmaddubsw
// against ones sums byte pairs, vpmaddwd sums the word pairs.
struct Avx2SubTile {
  static constexpr int kFlushWords = 31;

  template <int kRows>
  static void Run(const TBitpacked* const* rows, int taps, int word_begin,
                  int words, const TBitpacked* b, int k_bits, int cols,
                  std::int32_t* out, int ldc) {
    const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                         3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                         2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i ones8 = _mm256_set1_epi8(1);
    const __m256i ones16 = _mm256_set1_epi16(1);
    const auto popcount_bytes = [&](__m256i x) {
      const __m256i lo = _mm256_and_si256(x, low_mask);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(x, 4), low_mask);
      return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                             _mm256_shuffle_epi8(lut, hi));
    };
    __m256i cnt[kRows][2], acc[kRows][2];
    for (int r = 0; r < kRows; ++r) {
      for (int h = 0; h < 2; ++h) {
        cnt[r][h] = _mm256_setzero_si256();
        acc[r][h] = _mm256_setzero_si256();
      }
    }
    const auto flush = [&] {
      for (int r = 0; r < kRows; ++r) {
        for (int h = 0; h < 2; ++h) {
          acc[r][h] = _mm256_add_epi32(
              acc[r][h], _mm256_madd_epi16(
                             _mm256_maddubs_epi16(cnt[r][h], ones8), ones16));
          cnt[r][h] = _mm256_setzero_si256();
        }
      }
    };
    int pending = 0;
    for (int t = 0; t < taps; ++t) {
      const TBitpacked* a[kRows];
      for (int r = 0; r < kRows; ++r) a[r] = rows[r * taps + t] + word_begin;
      for (int w = 0; w < words; ++w, b += kBgemmNr) {
        const __m256i b0 =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(b));
        const __m256i b1 =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(b + 8));
        for (int r = 0; r < kRows; ++r) {
          const __m256i x = _mm256_set1_epi32(static_cast<int>(a[r][w]));
          cnt[r][0] = _mm256_add_epi8(cnt[r][0],
                                      popcount_bytes(_mm256_xor_si256(x, b0)));
          cnt[r][1] = _mm256_add_epi8(cnt[r][1],
                                      popcount_bytes(_mm256_xor_si256(x, b1)));
        }
        if (++pending == kFlushWords) {
          flush();
          pending = 0;
        }
      }
    }
    flush();
    const __m256i kb = _mm256_set1_epi32(k_bits);
    for (int r = 0; r < kRows; ++r) {
      alignas(32) std::int32_t v[16];
      for (int h = 0; h < 2; ++h) {  // k_bits - 2 * popcount
        _mm256_store_si256(
            reinterpret_cast<__m256i*>(v + 8 * h),
            _mm256_sub_epi32(kb, _mm256_add_epi32(acc[r][h], acc[r][h])));
      }
      std::copy_n(v, cols, out + static_cast<std::int64_t>(r) * ldc);
    }
  }
};
using Avx2Kernel = SubTiledKernel<Avx2SubTile>;
#endif  // __AVX2__ && !LCE_BGEMM_AVX512

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define LCE_BGEMM_NEON 1
// NEON sub-kernel, kRows (<= 4) rows x 16 channels in four q-registers of
// 4 lanes: per K word the paper's Table 1 sequence -- eor, cnt (byte
// popcounts), then pairwise widening (vpaddl u8->u16, vpadal u16->u32)
// into one uint32 lane per output channel. 16 accumulators + 4 weight
// registers + 1 broadcast fit the 32 q-registers.
struct NeonSubTile {
  template <int kRows>
  static void Run(const TBitpacked* const* rows, int taps, int word_begin,
                  int words, const TBitpacked* b, int k_bits, int cols,
                  std::int32_t* out, int ldc) {
    uint32x4_t acc[kRows][4];
    for (int r = 0; r < kRows; ++r) {
      for (int j = 0; j < 4; ++j) acc[r][j] = vdupq_n_u32(0);
    }
    for (int t = 0; t < taps; ++t) {
      const TBitpacked* a[kRows];
      for (int r = 0; r < kRows; ++r) a[r] = rows[r * taps + t] + word_begin;
      for (int w = 0; w < words; ++w, b += kBgemmNr) {
        uint32x4_t bv[4];
        for (int j = 0; j < 4; ++j) bv[j] = vld1q_u32(b + 4 * j);
        for (int r = 0; r < kRows; ++r) {
          const uint32x4_t x = vdupq_n_u32(a[r][w]);
          for (int j = 0; j < 4; ++j) {
            acc[r][j] = vpadalq_u16(
                acc[r][j], vpaddlq_u8(vcntq_u8(
                               vreinterpretq_u8_u32(veorq_u32(x, bv[j])))));
          }
        }
      }
    }
    const int32x4_t kb = vdupq_n_s32(k_bits);
    for (int r = 0; r < kRows; ++r) {
      std::int32_t v[16];
      for (int j = 0; j < 4; ++j) {  // k_bits - 2 * popcount
        const int32x4_t pop = vreinterpretq_s32_u32(acc[r][j]);
        vst1q_s32(v + 4 * j, vsubq_s32(kb, vaddq_s32(pop, pop)));
      }
      std::copy_n(v, cols, out + static_cast<std::int64_t>(r) * ldc);
    }
  }
};
using NeonKernel = SubTiledKernel<NeonSubTile>;
#endif  // __ARM_NEON

template <class Kernel, std::size_t... kRows>
constexpr std::array<TileFn, kBgemmMr> MakeTiles(
    std::index_sequence<kRows...>) {
  return {&Kernel::template Run<static_cast<int>(kRows) + 1>...};
}

template <class Kernel>
constexpr std::array<TileFn, kBgemmMr> kTiles =
    MakeTiles<Kernel>(std::make_index_sequence<kBgemmMr>());

// The tier a profile runs, as one kernel per tile row count 1..kBgemmMr.
const std::array<TileFn, kBgemmMr>& TilesFor(KernelProfile profile) {
#if defined(LCE_BGEMM_AVX512)
  if (profile == KernelProfile::kSimd) return kTiles<Avx512Kernel>;
#elif defined(LCE_BGEMM_NEON)
  if (profile == KernelProfile::kSimd) return kTiles<NeonKernel>;
#elif defined(LCE_BGEMM_AVX2)
  if (profile == KernelProfile::kSimd) return kTiles<Avx2Kernel>;
#else
  (void)profile;
#endif
  return kTiles<ScalarKernel>;
}

}  // namespace

PackedBinaryMatrix::PackedBinaryMatrix(const TBitpacked* rows, int n, int kw)
    : n_(n), kw_(kw), num_tiles_((n + kBgemmNr - 1) / kBgemmNr) {
  LCE_TRACE_SCOPE_CAT("bgemm/pack_weights", "gemm");
  buf_ = AlignedBuffer(static_cast<std::size_t>(num_tiles_) * kw * kBgemmNr *
                       sizeof(TBitpacked));
  auto* d = reinterpret_cast<TBitpacked*>(buf_.data());
  for (int t = 0; t < num_tiles_; ++t) {
    for (int w = 0; w < kw; ++w) {
      for (int j = 0; j < kBgemmNr; ++j, ++d) {
        const int ch = t * kBgemmNr + j;
        *d = ch < n ? rows[static_cast<std::int64_t>(ch) * kw + w] : 0;
      }
    }
  }
}

void BGemmComputeBlock(const TBitpacked* const* rows, int taps, int word_begin,
                       int words, const PackedBinaryMatrix& rhs, int k_bits,
                       KernelProfile profile, int block_rows, std::int32_t* out,
                       int ldc) {
  LCE_DCHECK(taps * words == rhs.kw());
  const auto& tiles = TilesFor(profile);
  const int full_rows = block_rows - block_rows % kBgemmMr;
  const int tail = block_rows - full_rows;
  for (int nt = 0; nt < rhs.num_tiles(); ++nt) {
    const int col0 = nt * kBgemmNr;
    const int cols = std::min(kBgemmNr, rhs.n() - col0);
    const TBitpacked* b = rhs.tile(nt);
    for (int r0 = 0; r0 < full_rows; r0 += kBgemmMr) {
      tiles[kBgemmMr - 1](rows + static_cast<std::int64_t>(r0) * taps, taps,
                          word_begin, words, b, k_bits, cols,
                          out + static_cast<std::int64_t>(r0) * ldc + col0,
                          ldc);
    }
    if (tail > 0) {
      tiles[tail - 1](rows + static_cast<std::int64_t>(full_rows) * taps, taps,
                      word_begin, words, b, k_bits, cols,
                      out + static_cast<std::int64_t>(full_rows) * ldc + col0,
                      ldc);
    }
  }
}

}  // namespace lce::gemm
