#include "bgemm_baselines.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace lce::bench {
namespace {

// Unaligned-safe 64-bit load of two consecutive 32-bit words (the trailing
// odd word is handled by the callers).
inline std::uint64_t Load64(const TBitpacked* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

void DaBnnStyleBGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs,
                     int n, int kw, int k_bits, std::int32_t* out, int ldc) {
  // 2x2 register blocking over unpacked row-major operands.
  const int kw64 = kw / 2;
  const bool tail = (kw % 2) != 0;
  for (int i0 = 0; i0 < m; i0 += 2) {
    const int ilim = std::min(2, m - i0);
    for (int j0 = 0; j0 < n; j0 += 2) {
      const int jlim = std::min(2, n - j0);
      std::int32_t acc[2][2] = {};
      for (int i = 0; i < ilim; ++i) {
        const TBitpacked* a = lhs + static_cast<std::int64_t>(i0 + i) * kw;
        for (int j = 0; j < jlim; ++j) {
          const TBitpacked* b = rhs + static_cast<std::int64_t>(j0 + j) * kw;
          std::int32_t s = 0;
          for (int w = 0; w < kw64; ++w) {
            s += std::popcount(Load64(a + 2 * w) ^ Load64(b + 2 * w));
          }
          if (tail) s += std::popcount(a[kw - 1] ^ b[kw - 1]);
          acc[i][j] = s;
        }
      }
      for (int i = 0; i < ilim; ++i) {
        for (int j = 0; j < jlim; ++j) {
          out[static_cast<std::int64_t>(i0 + i) * ldc + j0 + j] =
              k_bits - 2 * acc[i][j];
        }
      }
    }
  }
}

void TvmStyleBGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs, int n,
                   int kw, int k_bits, std::int32_t* out, int ldc) {
  // Plain loop nest over 32-bit words; no blocking, no packing. The popcount
  // runs on 32-bit words as generic codegen would emit for packed uint32.
  for (int i = 0; i < m; ++i) {
    const TBitpacked* a = lhs + static_cast<std::int64_t>(i) * kw;
    for (int j = 0; j < n; ++j) {
      const TBitpacked* b = rhs + static_cast<std::int64_t>(j) * kw;
      std::int32_t s = 0;
      for (int w = 0; w < kw; ++w) s += std::popcount(a[w] ^ b[w]);
      out[static_cast<std::int64_t>(i) * ldc + j] = k_bits - 2 * s;
    }
  }
}

void BmxnetStyleBGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs,
                      int n, int kw, int k_bits, std::int32_t* out, int ldc) {
  // BMXNet iterates k in the outer loop over an output accumulator matrix,
  // i.e. a rank-1-update formulation with no register accumulation -- each
  // partial sum round-trips through memory.
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out[static_cast<std::int64_t>(i) * ldc + j] = 0;
    }
  }
  for (int w = 0; w < kw; ++w) {
    for (int i = 0; i < m; ++i) {
      const TBitpacked a = lhs[static_cast<std::int64_t>(i) * kw + w];
      std::int32_t* o = out + static_cast<std::int64_t>(i) * ldc;
      for (int j = 0; j < n; ++j) {
        o[j] += std::popcount(a ^ rhs[static_cast<std::int64_t>(j) * kw + w]);
      }
    }
  }
  for (int i = 0; i < m; ++i) {
    std::int32_t* o = out + static_cast<std::int64_t>(i) * ldc;
    for (int j = 0; j < n; ++j) o[j] = k_bits - 2 * o[j];
  }
}

}  // namespace lce::bench
