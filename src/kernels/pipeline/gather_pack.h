// Gather strategies of the ConvPipeline (policy seam #1): read a patch row
// straight from the feature map through the prepare-time int32
// indirection cache (gemm/indirect_bgemm.h), without materializing im2col
// patches.
//
// Two families, one per consumer:
//   * GatherRowPointers  — the binary kernels read activations in place:
//     a table of per-tap row pointers into the feature map (or the zero
//     row for padded taps) that gemm::BGemmComputeBlock reads through
//     (BConv2D, plain and grouped).
//   * GatherStageInt8Dot — the int8 byte gather into the staged rows the
//     dot-product kernels read (Conv2DInt8); padded taps read the input
//     zero point, exactly like Im2ColInt8.
//
// All take an `interior` flag from the shared TilePlan: interior tiles have
// no padded taps, so the gather skips the kPaddedTap sentinel check
// entirely.
#ifndef LCE_KERNELS_PIPELINE_GATHER_PACK_H_
#define LCE_KERNELS_PIPELINE_GATHER_PACK_H_

#include <cstdint>

#include "core/types.h"
#include "gemm/indirect_bgemm.h"

namespace lce::pipeline {

// Fills dst[r * ind.taps() + t], for r < `nrows`, with the address of the
// channel vector that tap t of output position row0 + r reads: `input`
// plus the tap's offset, or `zero_row` for a padded tap (all-zero words =
// +1.0 one-padding). Row r's patch row (the bitpacked im2col row) is then
// the concatenation of its taps' vectors. With `interior` set the
// padded-tap sentinel check is skipped (caller guarantees no padded taps,
// see pipeline/tile_plan.h). Requires row0 + nrows <= ind.rows().
void GatherRowPointers(const TBitpacked* input,
                       const gemm::IndirectionOffsets& ind,
                       const TBitpacked* zero_row, std::int64_t row0,
                       int nrows, bool interior, const TBitpacked** dst);

// Int8 byte gather: `ind` must have been built with elems_per_pixel = in_c
// (byte offsets). Stages `tile_rows` raw patch rows of taps*in_c bytes
// straight into `dst`, row-major with leading dimension `lda` (>= taps*in_c;
// the tail is zeroed so K-padding contributes nothing), filling padded
// taps with `pad_value` (the clamped input zero point). The dot kernels
// (gemm::Int8DotComputeBlock) read these rows directly, with no panel
// interleave pass. Rows beyond ind.rows() are zeroed (they never reach the
// output).
void GatherStageInt8Dot(const std::int8_t* input,
                        const gemm::IndirectionOffsets& ind,
                        std::int8_t pad_value, std::int64_t row0,
                        int tile_rows, int lda, bool interior,
                        std::int8_t* dst);

// Software-prefetches the gather sources of rows [row0, row0+tile_rows):
// one prefetch per 64-byte line of each tap's channel vector. The int8
// TileCompute calls this one tile ahead of the gather, so the next tile's
// feature-map lines are already in flight while the current tile's dot
// products execute (the gather stage is the int8 path's main memory-
// latency exposure; see docs/PERFORMANCE.md).
void PrefetchInt8GatherSources(const std::int8_t* input,
                               const gemm::IndirectionOffsets& ind,
                               std::int64_t row0, int tile_rows);

}  // namespace lce::pipeline

#endif  // LCE_KERNELS_PIPELINE_GATHER_PACK_H_
