#include "gemm/float_gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define LCE_FLOAT_GEMM_AVX2 1
#endif

#include "core/macros.h"

namespace lce::gemm {
namespace {

// Packs rows [row0, row0+rows) of an [n][k] row-major matrix into
// [k][rows]-interleaved layout, zero-padding missing rows.
void PackPanel(const float* src, int n, int k, int row0, int rows,
               float* dst) {
  for (int kk = 0; kk < k; ++kk) {
    for (int r = 0; r < rows; ++r) {
      const int row = row0 + r;
      dst[static_cast<std::int64_t>(kk) * rows + r] =
          row < n ? src[static_cast<std::int64_t>(row) * k + kk] : 0.0f;
    }
  }
}

// Gathers A panel `t` from the NHWC input: its rows are output positions
// [t * kFloatMr, +kFloatMr) of m = batch * out_h * out_w, and element
// [kk][r] is element kk of row r's [filter_h][filter_w][in_c] patch. Rows
// past the last output position read the padding value; their results are
// never stored.
void GatherPanel(const float* input, const Conv2DGeometry& g, std::int64_t m,
                 std::int64_t t, float* dst) {
  const int out_h = g.out_h(), out_w = g.out_w();
  const float pad = g.padding == Padding::kSameOne ? 1.0f : 0.0f;
  // Per row: batch index (-1 past the end) and the input position of the
  // top-left tap.
  int batch[kFloatMr], iy0[kFloatMr], ix0[kFloatMr];
  for (int r = 0; r < kFloatMr; ++r) {
    const std::int64_t row = t * kFloatMr + r;
    const std::int64_t q = row / out_w;
    batch[r] = row < m ? static_cast<int>(q / out_h) : -1;
    iy0[r] = static_cast<int>(q % out_h) * g.stride_h - g.pad_h_begin();
    ix0[r] = static_cast<int>(row % out_w) * g.stride_w - g.pad_w_begin();
  }
  const int c = g.in_c;
  for (int ky = 0; ky < g.filter_h; ++ky) {
    for (int kx = 0; kx < g.filter_w; ++kx) {
      for (int r = 0; r < kFloatMr; ++r) {
        const int iy = iy0[r] + ky, ix = ix0[r] + kx;
        float* d = dst + r;
        if (batch[r] >= 0 && iy >= 0 && iy < g.in_h && ix >= 0 &&
            ix < g.in_w) {
          const float* s =
              input +
              ((static_cast<std::int64_t>(batch[r]) * g.in_h + iy) * g.in_w +
               ix) * c;
          for (int i = 0; i < c; ++i) d[i * kFloatMr] = s[i];
        } else {
          for (int i = 0; i < c; ++i) d[i * kFloatMr] = pad;
        }
      }
      dst += static_cast<std::int64_t>(c) * kFloatMr;
    }
  }
}

#ifdef LCE_FLOAT_GEMM_AVX2
// 4x16 micro-kernel with FMA: 8 accumulator registers, A broadcast, B loaded
// as two 8-float vectors per k step.
void KernelAvx(const float* apanel, const float* bpanel, int k,
               float acc_out[kFloatMr][kFloatNr]) {
  __m256 acc[kFloatMr][2];
  for (int i = 0; i < kFloatMr; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (int kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_load_ps(bpanel + kk * kFloatNr);
    const __m256 b1 = _mm256_load_ps(bpanel + kk * kFloatNr + 8);
    const float* a = apanel + kk * kFloatMr;
    for (int i = 0; i < kFloatMr; ++i) {
      const __m256 ai = _mm256_set1_ps(a[i]);
      acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
    }
  }
  for (int i = 0; i < kFloatMr; ++i) {
    _mm256_storeu_ps(&acc_out[i][0], acc[i][0]);
    _mm256_storeu_ps(&acc_out[i][8], acc[i][1]);
  }
}
#endif

// Portable kernel; written so the compiler can vectorize the inner j loop.
// Where KernelAvx is compiled it rounds the way KernelAvx does (one fused
// multiply-add per MAC, same k order), so the two profiles agree bitwise
// whatever the compiler's contraction setting. Without hardware FMA,
// std::fma would be a libm call per MAC, so those builds multiply and add.
void KernelScalar(const float* apanel, const float* bpanel, int k,
                  float acc_out[kFloatMr][kFloatNr]) {
  float acc[kFloatMr][kFloatNr] = {};
  for (int kk = 0; kk < k; ++kk) {
    const float* a = apanel + kk * kFloatMr;
    const float* b = bpanel + kk * kFloatNr;
    for (int i = 0; i < kFloatMr; ++i) {
#ifdef LCE_FLOAT_GEMM_AVX2
      for (int j = 0; j < kFloatNr; ++j) {
        acc[i][j] = std::fma(a[i], b[j], acc[i][j]);
      }
#else
      for (int j = 0; j < kFloatNr; ++j) acc[i][j] += a[i] * b[j];
#endif
    }
  }
  std::memcpy(acc_out, acc, sizeof(acc));
}

}  // namespace

PackedFloatMatrix::PackedFloatMatrix(const float* rows, int n, int k)
    : n_(n), k_(k) {
  num_tiles_ = (n + kFloatNr - 1) / kFloatNr;
  buf_ = AlignedBuffer(static_cast<std::size_t>(num_tiles_) * tile_elems() *
                       sizeof(float));
  auto* d = reinterpret_cast<float*>(buf_.data());
  for (int t = 0; t < num_tiles_; ++t) {
    PackPanel(rows, n, k, t * kFloatNr, kFloatNr,
              d + static_cast<std::int64_t>(t) * tile_elems());
  }
}

void FloatGemm(const float* input, const Conv2DGeometry& g,
               const PackedFloatMatrix& rhs, const float* bias,
               Activation activation, float* out, Context& ctx) {
  const int k = rhs.k();
  const int n = rhs.n();
  LCE_CHECK(n == g.out_c && k == Im2ColDepthFloat(g));
  const std::int64_t m = Im2ColRows(g);
  const std::int64_t m_tiles = (m + kFloatMr - 1) / kFloatMr;
  const std::int64_t a_tile_elems = static_cast<std::int64_t>(k) * kFloatMr;

  auto* apanels = reinterpret_cast<float*>(ctx.Scratch(
      0, static_cast<std::size_t>(m_tiles * a_tile_elems) * sizeof(float)));
#ifdef LCE_FLOAT_GEMM_AVX2
  const auto kernel =
      ctx.profile() == KernelProfile::kSimd ? KernelAvx : KernelScalar;
#else
  const auto kernel = KernelScalar;
#endif
  // Each shard gathers its own A panels, then computes them. Loop order: B
  // tiles outermost within each shard so a packed B panel (kFloatNr x K,
  // L2-resident) is reused across every LHS tile of the shard instead of
  // being re-streamed per row tile -- for a 3136x64x576 GEMM this cuts B
  // traffic by the number of m-tiles.
  ctx.pool().ParallelFor(m_tiles, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t mt = begin; mt < end; ++mt) {
      GatherPanel(input, g, m, mt, apanels + mt * a_tile_elems);
    }
    float acc[kFloatMr][kFloatNr];
    for (int nt = 0; nt < rhs.num_tiles(); ++nt) {
      const int col0 = nt * kFloatNr;
      const int cols = std::min(kFloatNr, n - col0);
      for (std::int64_t mt = begin; mt < end; ++mt) {
        const std::int64_t row0 = mt * kFloatMr;
        const int rows =
            static_cast<int>(std::min<std::int64_t>(kFloatMr, m - row0));
        kernel(apanels + mt * a_tile_elems, rhs.tile(nt), k, acc);
        for (int i = 0; i < rows; ++i) {
          float* o = out + (row0 + i) * n + col0;
          for (int j = 0; j < cols; ++j) {
            const float v =
                bias != nullptr ? acc[i][j] + bias[col0 + j] : acc[i][j];
            o[j] = ApplyActivation(v, activation);
          }
        }
      }
    }
  });
}

}  // namespace lce::gemm
