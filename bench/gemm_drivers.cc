#include "gemm_drivers.h"

#include <algorithm>
#include <cstring>

#include "gemm/int8_isa.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce::bench {

void BGemm(const TBitpacked* lhs, int m, const gemm::PackedBinaryMatrix& rhs,
           int k_bits, std::int32_t* out, int ldc, gemm::Context& ctx) {
  // One BGEMM computes m x n dot products of k_bits binary positions each.
  static telemetry::Metric* macs =
      telemetry::MetricsRegistry::Global().Counter("bgemm.binary_macs");
  macs->Add(static_cast<std::int64_t>(m) * rhs.n() * k_bits);

  LCE_TRACE_SCOPE_CAT("bgemm/compute", "gemm");
  const int kw = rhs.kw();
  const gemm::KernelProfile profile = ctx.profile();
  const int m_tiles = (m + gemm::kBgemmMr - 1) / gemm::kBgemmMr;
  ctx.pool().ParallelFor(m_tiles, [&](std::int64_t begin, std::int64_t end) {
    // Blocks of up to kBlockTiles row tiles share each weight tile while
    // it is cache-resident; every row is read in place (one tap per row).
    constexpr int kBlockTiles = 16;
    const TBitpacked* row_ptrs[kBlockTiles * gemm::kBgemmMr];
    for (std::int64_t t = begin; t < end; t += kBlockTiles) {
      const std::int64_t row0 = t * gemm::kBgemmMr;
      const int block_rows = static_cast<int>(std::min<std::int64_t>(
          std::min<std::int64_t>(end - t, kBlockTiles) * gemm::kBgemmMr,
          m - row0));
      for (int i = 0; i < block_rows; ++i) row_ptrs[i] = lhs + (row0 + i) * kw;
      gemm::BGemmComputeBlock(row_ptrs, /*taps=*/1, /*word_begin=*/0, kw, rhs,
                              k_bits, profile, block_rows, out + row0 * ldc,
                              ldc);
    }
  });
}

void BGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs, int n, int kw,
           int k_bits, std::int32_t* out, int ldc, gemm::Context& ctx) {
  const gemm::PackedBinaryMatrix packed(rhs, n, kw);
  BGemm(lhs, m, packed, k_bits, out, ldc, ctx);
}

void Int8Gemm(const std::int8_t* lhs, int m,
              const gemm::PackedInt8DotPanels& rhs, std::int32_t* out,
              int ldc, gemm::Context& ctx) {
  // 128 rows per block, as the fused int8 convolution computes them.
  constexpr int kBlockRows = 128;
  const int k = rhs.k();
  const int lda = rhs.k_groups() * gemm::kInt8DotKg;
  // Rows are read in place when k is already a whole number of K-groups.
  std::int8_t* staged =
      lda == k ? nullptr
               : reinterpret_cast<std::int8_t*>(ctx.Scratch(
                     0, static_cast<std::size_t>(m) * lda));
  const gemm::Int8Tier tier = ctx.profile() == gemm::KernelProfile::kScalar
                                  ? gemm::Int8Tier::kScalar
                                  : gemm::SelectInt8Tier();
  const std::int64_t blocks = (m + kBlockRows - 1) / kBlockRows;
  ctx.pool().ParallelFor(blocks, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t b = begin; b < end; ++b) {
      const std::int64_t row0 = b * kBlockRows;
      const int rows = static_cast<int>(
          std::min<std::int64_t>(kBlockRows, m - row0));
      const std::int8_t* arows = lhs + row0 * k;
      if (staged != nullptr) {
        std::int8_t* s = staged + row0 * lda;
        for (int r = 0; r < rows; ++r) {
          std::memcpy(s + static_cast<std::int64_t>(r) * lda,
                      arows + static_cast<std::int64_t>(r) * k,
                      static_cast<std::size_t>(k));
          std::memset(s + static_cast<std::int64_t>(r) * lda + k, 0,
                      static_cast<std::size_t>(lda - k));
        }
        arows = s;
      }
      gemm::Int8DotComputeBlock(arows, lda, rhs, tier, rows, out + row0 * ldc,
                                ldc);
    }
  });
}

void Int8Gemm(const std::int8_t* lhs, int m, const std::int8_t* rhs, int n,
              int k, std::int32_t* out, int ldc, gemm::Context& ctx) {
  const gemm::PackedInt8DotPanels packed(rhs, n, k);
  Int8Gemm(lhs, m, packed, out, ldc, ctx);
}

}  // namespace lce::bench
