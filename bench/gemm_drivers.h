// Full-matrix GEMM drivers: a whole row-major LHS against packed weights,
// sharded over the context's pool in row blocks. The engine runs no plain
// matrix product -- every binary and int8 layer, fully connected ones
// included, runs the ConvPipeline over the block kernels
// gemm::BGemmComputeBlock and gemm::Int8DotComputeBlock -- so these drivers
// are bench code: Figure 4's LCE column, the full-image im2col baseline
// (im2col_baseline.h) and bench_kernels_microbench run them, and test_bgemm
// and test_int8_gemm check the block kernels through them.
#ifndef LCE_BENCH_GEMM_DRIVERS_H_
#define LCE_BENCH_GEMM_DRIVERS_H_

#include <cstdint>

#include "core/types.h"
#include "gemm/bgemm.h"
#include "gemm/context.h"
#include "gemm/int8_gemm.h"

namespace lce::bench {

// out[i][j] = k_bits - 2*popcount(lhs_i ^ rhs_j); out is row-major MxN with
// leading dimension ldc. lhs is [m][rhs.kw()], read in place (one tap per
// row). Counts its MACs in `bgemm.binary_macs` and traces `bgemm/compute`.
void BGemm(const TBitpacked* lhs, int m, const gemm::PackedBinaryMatrix& rhs,
           int k_bits, std::int32_t* out, int ldc, gemm::Context& ctx);

// Convenience overload packing the RHS internally (tests, one-shot use).
void BGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs, int n, int kw,
           int k_bits, std::int32_t* out, int ldc, gemm::Context& ctx);

// Exact signed int8 dot products of `m` row-major lhs rows (leading
// dimension rhs.k()) against the packed panels, in 128-row
// Int8DotComputeBlock calls spread over the context's pool. Runs the scalar
// tier under a scalar-profile context and SelectInt8Tier() otherwise.
// Scratch: slot 0 holds the lhs rows zero-padded to the panels' K-groups,
// used only when rhs.k() % 4 != 0.
void Int8Gemm(const std::int8_t* lhs, int m,
              const gemm::PackedInt8DotPanels& rhs, std::int32_t* out,
              int ldc, gemm::Context& ctx);

void Int8Gemm(const std::int8_t* lhs, int m, const std::int8_t* rhs, int n,
              int k, std::int32_t* out, int ldc, gemm::Context& ctx);

}  // namespace lce::bench

#endif  // LCE_BENCH_GEMM_DRIVERS_H_
