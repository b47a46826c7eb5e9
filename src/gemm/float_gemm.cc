#include "gemm/float_gemm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#if defined(__AVX512F__)
#include <immintrin.h>
#define LCE_FLOAT_GEMM_AVX512 1
#elif defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define LCE_FLOAT_GEMM_AVX2 1
#endif

#include "core/macros.h"
#include "kernels/pipeline/gather_pack.h"

namespace lce::gemm {
namespace {

// Rows of one micro-kernel tile: what the widest kernel compiled into this
// build keeps in registers, one zmm accumulator per row under AVX-512, two
// ymm per row under AVX2, and the portable kernel's four.
#if defined(LCE_FLOAT_GEMM_AVX512)
constexpr int kFloatMr = 12;
#elif defined(LCE_FLOAT_GEMM_AVX2)
constexpr int kFloatMr = 6;
#else
constexpr int kFloatMr = 4;
#endif

// Row tiles per block: a shard gathers kBlockRows patch rows, then runs
// every B tile over them while they are cache-resident.
constexpr int kBlockTiles = 8;
constexpr int kBlockRows = kBlockTiles * kFloatMr;

// acc[i][j] = sum over kk of a[i * k + kk] * b[kk * kFloatNr + j], for the
// first R rows of a row-major A block (row stride k) and one packed B tile.
using KernelFn = void (*)(const float* a, const float* b, int k,
                          float (*acc)[kFloatNr]);

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

#ifdef LCE_FLOAT_GEMM_AVX512
// R x 16 tile: one zmm accumulator per row, B loaded once per k step and
// each A element broadcast into its row's fused multiply-add. The k loop is
// a do-while (k >= 1 always): with a zero-trip path GCC 12 keeps the
// accumulators in a zeroed stack array and copies them out on every call.
struct KernelAvx512 {
  template <int R>
  static void Run(const float* a, const float* b, int k,
                  float (*acc_out)[kFloatNr]) {
    __m512 acc[R];
    for (int i = 0; i < R; ++i) acc[i] = _mm512_setzero_ps();
    int kk = 0;
    do {  // k >= 1
      const __m512 bv = _mm512_load_ps(b + kk * kFloatNr);
      for (int i = 0; i < R; ++i) {
        acc[i] = _mm512_fmadd_ps(
            _mm512_set1_ps(a[static_cast<std::int64_t>(i) * k + kk]), bv,
            acc[i]);
      }
    } while (++kk < k);
    for (int i = 0; i < R; ++i) _mm512_storeu_ps(acc_out[i], acc[i]);
  }
};
using KernelSimd = KernelAvx512;
#elif defined(LCE_FLOAT_GEMM_AVX2)
// R x 16 tile: two ymm accumulators per row.
struct KernelAvx2 {
  template <int R>
  static void Run(const float* a, const float* b, int k,
                  float (*acc_out)[kFloatNr]) {
    __m256 acc[R][2];
    for (int i = 0; i < R; ++i) {
      acc[i][0] = _mm256_setzero_ps();
      acc[i][1] = _mm256_setzero_ps();
    }
    int kk = 0;
    do {  // k >= 1
      const __m256 b0 = _mm256_load_ps(b + kk * kFloatNr);
      const __m256 b1 = _mm256_load_ps(b + kk * kFloatNr + 8);
      for (int i = 0; i < R; ++i) {
        const __m256 ai =
            _mm256_set1_ps(a[static_cast<std::int64_t>(i) * k + kk]);
        acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
        acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
      }
    } while (++kk < k);
    for (int i = 0; i < R; ++i) {
      _mm256_storeu_ps(&acc_out[i][0], acc[i][0]);
      _mm256_storeu_ps(&acc_out[i][8], acc[i][1]);
    }
  }
};
using KernelSimd = KernelAvx2;
#endif

// Portable kernel; written so the compiler can vectorize the inner j loop.
// Where a SIMD kernel is compiled it rounds the way that kernel does (one
// fused multiply-add per MAC, same k order), so the two profiles agree
// bitwise whatever the compiler's contraction setting. Without hardware
// FMA, std::fma would be a libm call per MAC, so those builds multiply and
// add.
struct KernelScalar {
  template <int R>
  static void Run(const float* a, const float* b, int k,
                  float (*acc_out)[kFloatNr]) {
    float acc[R][kFloatNr] = {};
    for (int kk = 0; kk < k; ++kk) {
      const float* bk = b + kk * kFloatNr;
      for (int i = 0; i < R; ++i) {
        const float ai = a[static_cast<std::int64_t>(i) * k + kk];
#if defined(LCE_FLOAT_GEMM_AVX512) || defined(LCE_FLOAT_GEMM_AVX2)
        for (int j = 0; j < kFloatNr; ++j) {
          acc[i][j] = std::fma(ai, bk[j], acc[i][j]);
        }
#else
        for (int j = 0; j < kFloatNr; ++j) acc[i][j] += ai * bk[j];
#endif
      }
    }
    std::memcpy(acc_out, acc, sizeof(acc));
  }
};

// kernels[R - 1] computes R rows, so an edge tile computes only its real
// rows.
template <class Kernel, std::size_t... R>
constexpr std::array<KernelFn, kFloatMr> KernelsByRows(
    std::index_sequence<R...>) {
  return {&Kernel::template Run<static_cast<int>(R) + 1>...};
}

// Stores rows x cols of a tile as act(acc + bias) (no add without a bias).
using StoreFn = void (*)(const float (*acc)[kFloatNr], int rows, int cols,
                         const float* bias, float* out, std::int64_t ldo);

template <bool kHasBias, Activation kAct>
void StoreTile(const float (*acc)[kFloatNr], int rows, int cols,
               const float* bias, float* out, std::int64_t ldo) {
  for (int i = 0; i < rows; ++i) {
    float* o = out + i * ldo;
    for (int j = 0; j < cols; ++j) {
      float v = acc[i][j];
      if constexpr (kHasBias) v += bias[j];
      o[j] = ApplyActivation(v, kAct);
    }
  }
}

template <bool kHasBias>
StoreFn PickStore(Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return StoreTile<kHasBias, Activation::kNone>;
    case Activation::kRelu:
      return StoreTile<kHasBias, Activation::kRelu>;
    case Activation::kRelu6:
      return StoreTile<kHasBias, Activation::kRelu6>;
    case Activation::kSigmoid:
      return StoreTile<kHasBias, Activation::kSigmoid>;
  }
  LCE_CHECK(false && "unknown activation");
  return nullptr;
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
               Activation activation, float* out, std::int64_t ldo,
               Context& ctx) {
  const int k = rhs.k();
  const int n = rhs.n();
  LCE_CHECK(n == g.out_c && k == Im2ColDepthFloat(g));
  LCE_CHECK_GE(ldo, n);
  const std::int64_t m = Im2ColRows(g);
  const std::int64_t m_tiles = (m + kFloatMr - 1) / kFloatMr;
  // A 1x1, stride-1 convolution has no padding, and its patch row r is
  // input pixel r: the rows are read in place, with the same row stride k.
  const bool in_place = g.filter_h == 1 && g.filter_w == 1 &&
                        g.stride_h == 1 && g.stride_w == 1;
  const float pad = g.padding == Padding::kSameOne ? 1.0f : 0.0f;
  const int shards = ctx.pool().PlannedShards(m_tiles);
  const std::int64_t block_elems = static_cast<std::int64_t>(kBlockRows) * k;
  float* blocks =
      in_place ? nullptr
               : reinterpret_cast<float*>(ctx.Scratch(
                     0, static_cast<std::size_t>(shards * block_elems) *
                            sizeof(float)));

  static constexpr auto kScalarKernels =
      KernelsByRows<KernelScalar>(std::make_index_sequence<kFloatMr>());
#if defined(LCE_FLOAT_GEMM_AVX512) || defined(LCE_FLOAT_GEMM_AVX2)
  static constexpr auto kSimdKernels =
      KernelsByRows<KernelSimd>(std::make_index_sequence<kFloatMr>());
  const auto& kernels =
      ctx.profile() == KernelProfile::kSimd ? kSimdKernels : kScalarKernels;
#else
  const auto& kernels = kScalarKernels;
#endif
  const StoreFn store = bias != nullptr ? PickStore<true>(activation)
                                        : PickStore<false>(activation);

  ctx.pool().ParallelForShard(m_tiles, [&](int shard, std::int64_t begin,
                                           std::int64_t end) {
    float acc[kFloatMr][kFloatNr] = {};
    float* block = in_place ? nullptr : blocks + shard * block_elems;
    for (std::int64_t t = begin; t < end; t += kBlockTiles) {
      const std::int64_t row0 = t * kFloatMr;
      const int rows = static_cast<int>(
          std::min(std::min(end, t + kBlockTiles) * kFloatMr, m) - row0);
      if (!in_place) {
        pipeline::GatherPatchRows(input, g, pad, row0, rows, k, block);
      }
      const float* a = in_place ? input + row0 * k : block;
      for (int nt = 0; nt < rhs.num_tiles(); ++nt) {
        const int col0 = nt * kFloatNr;
        const int cols = std::min(kFloatNr, n - col0);
        const float* tile_bias = bias != nullptr ? bias + col0 : nullptr;
        for (int r = 0; r < rows; r += kFloatMr) {
          const int tile_rows = std::min(kFloatMr, rows - r);
          kernels[tile_rows - 1](a + static_cast<std::int64_t>(r) * k,
                                 rhs.tile(nt), k, acc);
          store(acc, tile_rows, cols, tile_bias,
                out + (row0 + r) * ldo + col0, ldo);
        }
      }
    }
  });
}

}  // namespace lce::gemm
