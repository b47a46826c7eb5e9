// BGEMM: binary matrix multiplication via XOR + POPCOUNT (paper section 3.2).
//
// Computes, for bitpacked LHS rows l_i and RHS rows r_j of `k_bits` logical
// +/-1 values each:
//
//   out[i][j] = dot(l_i, r_j) = k_bits - 2 * popcount(l_i XOR r_j)
//
// Channel-padding bits are 0 in both operands so they contribute nothing to
// the popcount, and using the logical k_bits cancels their +1 products
// exactly; no separate correction is needed.
//
// Layout is channel-in-lane: the weights are packed once into
// [ceil(n/32)][kw][32] words, so one K word of 32 output channels is one
// contiguous 128-byte row. The micro-kernel keeps an 8-row x 32-channel
// tile of int32 accumulators, one output per SIMD lane: per K word it
// broadcasts each row's activation word and XOR-popcounts it against the
// 32 channels. There is no horizontal reduction, K is never padded beyond
// the 32-bit words the tensors already use, and the activations are read
// in place through a table of row pointers -- no LHS panel is packed.
// The library's one driver is the ConvPipeline
// (kernels/pipeline/conv_pipeline.h): it shards row tiles across threads
// and runs BGemmComputeBlock per block for every binary convolution and
// binary fully connected layer. The full-matrix BGemm driver of the
// benches and the GEMM tests is bench/gemm_drivers.h.
//
// The `kSimd` profile runs the best kernel compiled in: AVX-512 VPOPCNTDQ,
// else NEON (vcnt + pairwise widening), else AVX2 (pshufb nibble-LUT byte
// counts widened with vpmaddubsw/vpmaddwd); `kScalar` runs the same loop
// order with std::popcount. Every tier is bit-identical.
#ifndef LCE_GEMM_BGEMM_H_
#define LCE_GEMM_BGEMM_H_

#include <cstdint>

#include "core/aligned_buffer.h"
#include "core/types.h"
#include "gemm/context.h"

namespace lce::gemm {

// Micro-tile: kBgemmMr LHS rows x kBgemmNr output channels (two zmm
// registers of 16 int32 lanes on AVX-512).
inline constexpr int kBgemmMr = 8;
inline constexpr int kBgemmNr = 32;

// A weights-side matrix packed once at op-preparation time (the paper's
// "weight packing to optimize memory access patterns").
class PackedBinaryMatrix {
 public:
  PackedBinaryMatrix() = default;

  // rows: [n][kw] bitpacked row-major, n rows of kw TBitpacked words.
  PackedBinaryMatrix(const TBitpacked* rows, int n, int kw);

  int n() const { return n_; }
  int kw() const { return kw_; }
  int num_tiles() const { return num_tiles_; }
  // Channel tile t: [kw][kBgemmNr] words, word w of channel t*kBgemmNr + j
  // at [w][j]; channels past n are zero. 64-byte aligned.
  const TBitpacked* tile(int t) const {
    return reinterpret_cast<const TBitpacked*>(buf_.data()) +
           static_cast<std::int64_t>(t) * kw_ * kBgemmNr;
  }

 private:
  int n_ = 0;
  int kw_ = 0;
  int num_tiles_ = 0;
  AlignedBuffer buf_;
};

// Computes `block_rows` x rhs.n() outputs, writing k_bits - 2 * popcount
// into `out` (row-major, leading dimension `ldc` >= rhs.n(); grouped
// convolutions write each group's columns into a wider accumulator).
//
// LHS row i is read in place: it is the concatenation, over taps
// t < `taps`, of the `words` words starting at rows[i * taps + t] +
// `word_begin`; taps * words must equal rhs.kw(). A convolution points
// each tap at a pixel's channel vector (or at a zero row for a padded
// tap), a grouped one selects its group's words with `word_begin`, and a
// pointwise one or a plain matrix uses taps = 1 with one pointer per row.
//
// Loop order is channel-tile-outer / row-tile-inner so each packed weight
// tile stays cache-resident across the whole block; the tail row tile runs
// a kernel specialized for its row count.
void BGemmComputeBlock(const TBitpacked* const* rows, int taps, int word_begin,
                       int words, const PackedBinaryMatrix& rhs, int k_bits,
                       KernelProfile profile, int block_rows, std::int32_t* out,
                       int ldc);

}  // namespace lce::gemm

#endif  // LCE_GEMM_BGEMM_H_
