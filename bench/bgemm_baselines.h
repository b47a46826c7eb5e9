// Baseline binary-GEMM strategies reimplementing the *kernel designs* of the
// frameworks the paper compares against in Figure 4. These are faithful to
// the strategies, not the binaries:
//
//  * DaBnnStyleBGemm -- a direct binary GEMM in the style of DaBNN: decent
//    register blocking and 64-bit hardware popcounts, but no Ruy-style panel
//    packing (the RHS is traversed in row-major order, so large tiles fall
//    out of cache), no SIMD popcount kernel and no multi-threading (the
//    paper notes DaBNN does not support multi-threaded inference).
//
//  * TvmStyleBGemm -- a generic compiler-generated kernel in the style of
//    TVM/Riptide codegen: a plain loop nest over 32-bit words with
//    __builtin_popcount, no hand blocking or packing; whatever speed it has
//    comes from compiler auto-vectorization.
//
//  * BmxnetStyleBGemm -- BMXNet's approach: im2col + a simple C++ loop using
//    builtin popcount on single words with no blocking at all ("compiles to
//    machine code significantly slower than optimised assembly kernels").
//
// All share the BGEMM contract: out[i][j] = k_bits - 2*popcount(l_i ^ r_j).
// They are bench code, not engine code: only bench_fig4_framework_comparison
// runs them (and test_bgemm checks them).
#ifndef LCE_BENCH_BGEMM_BASELINES_H_
#define LCE_BENCH_BGEMM_BASELINES_H_

#include <cstdint>

#include "core/types.h"

namespace lce::bench {

void DaBnnStyleBGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs,
                     int n, int kw, int k_bits, std::int32_t* out, int ldc);

void TvmStyleBGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs, int n,
                   int kw, int k_bits, std::int32_t* out, int ldc);

void BmxnetStyleBGemm(const TBitpacked* lhs, int m, const TBitpacked* rhs,
                      int n, int kw, int k_bits, std::int32_t* out, int ldc);

}  // namespace lce::bench

#endif  // LCE_BENCH_BGEMM_BASELINES_H_
