// Patch gathers (policy seam #1 of the ConvPipeline, and the A side of the
// float GEMM): how a convolution reads output position r's im2col row, its
// [filter_h][filter_w][in_c] input patch in OHWI weight order, straight
// from the NHWC feature map without building the patch matrix. One gather
// per operand type:
//   * GatherPatchRows<T> — float and int8: copies patch rows into a
//     row-major block, one run per filter row that lies inside the image,
//     with tap positions computed from the geometry. gemm::FloatGemm
//     gathers its A blocks with it, Conv2DInt8 the staged rows its dot
//     kernels read.
//   * GatherRowPointers — bitpacked: a table of per-tap pointers into the
//     feature map, read through the prepare-time IndirectionOffsets table.
//     BConv2D's BGEMM (plain and grouped) and BDepthwiseConv2D's
//     bit-sliced counters read their taps in place through it.
//
// The bitpacked kernels keep the table because a tap is only a few words
// there, so the per-tap address is the gather's whole cost: computing row
// pointers from the geometry measured several times slower than reading
// them from the table (docs/PERFORMANCE.md).
#ifndef LCE_KERNELS_PIPELINE_GATHER_PACK_H_
#define LCE_KERNELS_PIPELINE_GATHER_PACK_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "kernels/conv_params.h"

namespace lce::pipeline {

// Copies patch rows [row0, row0 + rows) of the NHWC `input` under `g` into
// dst, row r at dst + r * ld. A patch row is K = filter_h * filter_w * in_c
// elements; ld >= K, and each row's [K, ld) tail is zeroed. Taps outside
// the image read `pad`: 0.0 (or +1.0 under SAME_ONE) for float, the input
// zero point for int8. Requires row0 + rows <= Im2ColRows(g). Instantiated
// for float and std::int8_t.
template <typename T>
void GatherPatchRows(const T* input, const Conv2DGeometry& g, T pad,
                     std::int64_t row0, int rows, std::int64_t ld, T* dst);

// Geometry-only tap table of the bitpacked convolutions: for every (output
// position, filter tap), the word offset of the source pixel's channel
// vector in the bitpacked NHWC input, or kPaddedTap for taps that fall
// outside the image. A kernel builds it once at prepare time (the
// geometry, batch included, is fixed then), and every Run and shard reads
// it.
class IndirectionOffsets {
 public:
  // Sentinel for taps reading spatial padding.
  static constexpr std::int32_t kPaddedTap = -1;

  IndirectionOffsets() = default;
  explicit IndirectionOffsets(const Conv2DGeometry& geo);

  std::int64_t rows() const { return rows_; }  // batch * out_h * out_w
  int taps() const { return taps_; }           // filter_h * filter_w
  int words() const { return words_; }         // words(in_c) per pixel
  // Offsets for output position r: taps() entries.
  const std::int32_t* row(std::int64_t r) const {
    return offsets_.data() + r * taps_;
  }

 private:
  std::int64_t rows_ = 0;
  int taps_ = 0, words_ = 0;
  std::vector<std::int32_t> offsets_;  // [rows][taps]
};

// Fills dst[r * ind.taps() + t], for r < `nrows`, with the address of the
// channel vector that tap t of output position row0 + r reads: `input`
// plus the tap's offset, or `zero_row` for a padded tap (all-zero words =
// +1.0 one-padding). Row r's patch row (the bitpacked im2col row) is then
// the concatenation of its taps' vectors. With `interior` set the
// padded-tap sentinel check is skipped (caller guarantees no padded taps,
// see pipeline/tile_plan.h). Requires row0 + nrows <= ind.rows().
void GatherRowPointers(const TBitpacked* input, const IndirectionOffsets& ind,
                       const TBitpacked* zero_row, std::int64_t row0,
                       int nrows, bool interior, const TBitpacked** dst);

}  // namespace lce::pipeline

#endif  // LCE_KERNELS_PIPELINE_GATHER_PACK_H_
