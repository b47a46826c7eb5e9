// The paper's section 3.2 baseline for the convolution ablations: the
// full-image im2col -> GEMM -> output transform pipeline that the fused
// row-tile ConvPipeline (kernels/pipeline/conv_pipeline.h) replaced. It is
// assembled from the full-image gathers in im2col.h, the full-matrix GEMM
// drivers in gemm_drivers.h and public engine pieces -- the packed weight
// matrices and the shared output transforms -- so each production kernel
// keeps exactly one execution path while the benches that quantify the
// fusion still have the unfused pipeline to measure against.
//
// Scratch: context slot 1 holds the image's patch matrix, slot 2 the
// image's int32 accumulator, and the int8 driver's slot 0 its K-padded
// rows.
#ifndef LCE_BENCH_IM2COL_BASELINE_H_
#define LCE_BENCH_IM2COL_BASELINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"
#include "gemm/bgemm.h"
#include "gemm/context.h"
#include "gemm/int8_gemm.h"
#include "kernels/bconv2d.h"
#include "kernels/conv2d_int8.h"
#include "kernels/pipeline/output_transform.h"

namespace lce::bench {

// Binary: bitpacked im2col (one group at a time for grouped convolutions;
// a pointwise convolution's input is its patch matrix), a full-image BGEMM
// per group, then the output transform over the whole image. One-padding
// and VALID only: one-padding falls out of bitpacked im2col, while the
// zero-padding correction belongs to the production kernel.
class Im2ColBConv2D {
 public:
  // Same weights and attrs as the BConv2D float-weights constructor.
  Im2ColBConv2D(const float* weights_ohwi, const BConv2DAttrs& attrs);
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

 private:
  BConv2DAttrs attrs_;
  int k_bits_ = 0;  // fh * fw * in_c / groups
  std::vector<TBitpacked> rows_;  // [out_c][fh*fw*words(in_c/groups)]
  std::vector<gemm::PackedBinaryMatrix> groups_;
  std::unique_ptr<pipeline::OutputTransform> transform_;
};

// Int8: Im2ColInt8 padded with the input zero point, a full-image Int8Gemm,
// then the same requantization Conv2DInt8 applies.
class Im2ColConv2DInt8 {
 public:
  Im2ColConv2DInt8(const std::int8_t* weights_ohwi,
                   const Conv2DInt8Attrs& attrs);
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

 private:
  Conv2DInt8Attrs attrs_;
  gemm::PackedInt8DotPanels panels_;
  std::unique_ptr<pipeline::OutputTransform> transform_;
};

}  // namespace lce::bench

#endif  // LCE_BENCH_IM2COL_BASELINE_H_
