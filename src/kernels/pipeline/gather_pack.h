// Gather/pack strategies of the ConvPipeline (policy seam #1): pack a
// micro-kernel A-panel straight from the feature map through the
// prepare-time int32 indirection cache (gemm/indirect_bgemm.h), without
// materializing im2col patches.
//
// Three strategies, one per consumer family:
//   * GatherPackBitpacked       — word gather into BGEMM A-panels (BConv2D).
//   * GatherPackBitpackedGroup  — per-group sliced view of the same input:
//     gathers `word_count` words starting at word slice `word_begin` of each
//     pixel's channel vector (grouped BConv2D; group boundaries fall on
//     word boundaries by construction).
//   * GatherPackInt8            — byte gather into int8-GEMM A-panels with
//     the maddubs +128 bias applied during packing (Conv2DInt8); padded
//     taps read the input zero point, exactly like Im2ColInt8.
//
// All three take an `interior` flag from the shared TilePlan: interior
// tiles have no padded taps, so the gather skips the kPaddedTap sentinel
// check entirely.
#ifndef LCE_KERNELS_PIPELINE_GATHER_PACK_H_
#define LCE_KERNELS_PIPELINE_GATHER_PACK_H_

#include <cstdint>

#include "core/types.h"
#include "gemm/indirect_bgemm.h"

namespace lce::pipeline {

// Packs `tile_rows` patch rows starting at output position `row0` into the
// BGEMM A-panel layout ([k_blocks][tile_rows][8] uint64; gemm/bgemm.h).
// Equivalent to bitpacked im2col of those rows followed by BGemmPackLhsTile,
// without materializing the patches. Padded taps read from `zero_row`
// (words(in_c) zero words = +1.0 one-padding); rows beyond ind.rows() are
// left zero (never written back by the caller). With `interior` set the
// padded-tap sentinel check is skipped (caller guarantees no padded taps,
// see pipeline/tile_plan.h).
void GatherPackBitpacked(const TBitpacked* input,
                         const gemm::IndirectionOffsets& ind,
                         const TBitpacked* zero_row, std::int64_t row0,
                         int tile_rows, int k_blocks, bool interior,
                         std::uint64_t* dst);

// Grouped variant: gathers only `word_count` words starting at `word_begin`
// of each pixel's ind.words()-word channel vector. `zero_row` must hold at
// least `word_count` zero words. The logical patch row is
// taps * word_count words long (one group's K).
void GatherPackBitpackedGroup(const TBitpacked* input,
                              const gemm::IndirectionOffsets& ind,
                              const TBitpacked* zero_row, int word_begin,
                              int word_count, std::int64_t row0, int tile_rows,
                              int k_blocks, bool interior, std::uint64_t* dst);

// Int8 byte gather: `ind` must have been built with elems_per_pixel = in_c
// (byte offsets). Gathers `tile_rows` patch rows of taps*in_c bytes into
// `stage` (caller-provided, tile_rows * taps * in_c bytes), filling padded
// taps with `pad_value` (the clamped input zero point), then packs them into
// the [k_blocks][tile_rows][kInt8Kc] biased-uint8 panel layout of
// gemm/int8_gemm.h. Rows beyond ind.rows() pack as biased zero (they never
// reach the output).
void GatherPackInt8(const std::int8_t* input,
                    const gemm::IndirectionOffsets& ind, std::int8_t pad_value,
                    std::int64_t row0, int tile_rows, int k_blocks,
                    bool interior, std::int8_t* stage, std::int8_t* dst);

// Int8 gather for the dot-product tiers (gemm/int8_isa.h): stages
// `tile_rows` raw patch rows of taps*in_c bytes straight into `dst`,
// row-major with leading dimension `lda` (>= taps*in_c; the tail is
// zeroed so K-padding contributes nothing). The dot kernels
// (gemm::Int8DotComputeBlock) read these rows directly — no biased panel
// interleave pass, which is most of GatherPackInt8's non-memcpy work.
// Rows beyond ind.rows() are zeroed (they never reach the output).
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
