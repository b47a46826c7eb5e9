#include "im2col_baseline.h"

#include <algorithm>

#include "core/bitpack.h"
#include "core/macros.h"
#include "gemm_drivers.h"
#include "im2col.h"

namespace lce::bench {

Im2ColBConv2D::Im2ColBConv2D(const float* weights_ohwi,
                             const BConv2DAttrs& attrs)
    : attrs_(attrs) {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(g.padding != Padding::kSameZero);
  const int groups = std::max(1, attrs_.groups);
  const int in_c_pg = g.in_c / groups;
  const int out_c_pg = g.out_c / groups;
  const int patch_words = g.filter_h * g.filter_w * BitpackedWords(in_c_pg);
  k_bits_ = g.filter_h * g.filter_w * in_c_pg;
  rows_.resize(static_cast<std::size_t>(g.out_c) * patch_words);
  BitpackMatrix(weights_ohwi,
                static_cast<std::int64_t>(g.out_c) * g.filter_h * g.filter_w,
                in_c_pg, rows_.data());
  for (int grp = 0; grp < groups; ++grp) {
    groups_.emplace_back(
        rows_.data() + static_cast<std::int64_t>(grp) * out_c_pg * patch_words,
        out_c_pg, patch_words);
  }
  switch (attrs_.output_type) {
    case BConvOutputType::kFloat:
      transform_ = std::make_unique<pipeline::FloatOutputTransform>(
          g.out_c, attrs_.pre_activation, attrs_.multiplier, attrs_.bias);
      break;
    case BConvOutputType::kBitpacked:
      transform_ = std::make_unique<pipeline::BitpackedOutputTransform>(
          g.out_c, k_bits_, attrs_.pre_activation, attrs_.multiplier,
          attrs_.bias);
      break;
    case BConvOutputType::kInt32:
      transform_ = std::make_unique<pipeline::Int32OutputTransform>(g.out_c);
      break;
  }
}

void Im2ColBConv2D::Run(const Tensor& input, Tensor& output,
                        gemm::Context& ctx) const {
  const Conv2DGeometry& g = attrs_.geo;
  const int groups = static_cast<int>(groups_.size());
  const int group_words = BitpackedWords(g.in_c / groups);
  const int out_c_pg = g.out_c / groups;
  const std::int64_t rows = Im2ColRows(g);
  const bool pointwise = groups == 1 && g.filter_h == 1 && g.filter_w == 1 &&
                         g.stride_h == 1 && g.stride_w == 1;
  const TBitpacked* in = input.data<TBitpacked>();
  TBitpacked* patches = nullptr;
  if (!pointwise) {
    patches = reinterpret_cast<TBitpacked*>(
        ctx.Scratch(1, static_cast<std::size_t>(rows) * g.filter_h *
                           g.filter_w * group_words * sizeof(TBitpacked)));
  }
  auto* acc = reinterpret_cast<std::int32_t*>(ctx.Scratch(
      2, static_cast<std::size_t>(rows) * g.out_c * sizeof(std::int32_t)));
  for (int grp = 0; grp < groups; ++grp) {
    if (groups > 1) {
      Im2ColBitpackedGroup(in, g, groups * group_words, grp * group_words,
                           group_words, patches);
    } else if (!pointwise) {
      Im2ColBitpacked(in, g, patches);
    }
    BGemm(pointwise ? in : patches, static_cast<int>(rows), groups_[grp],
          k_bits_, acc + grp * out_c_pg, g.out_c, ctx);
  }
  transform_->Apply(acc, 0, rows, output.raw_data(), output.row_stride());
}

Im2ColConv2DInt8::Im2ColConv2DInt8(const std::int8_t* weights_ohwi,
                                   const Conv2DInt8Attrs& attrs)
    : attrs_(attrs),
      panels_(weights_ohwi, attrs.geo.out_c, Im2ColDepthFloat(attrs.geo)),
      transform_(MakeInt8RequantTransform(attrs_, panels_.row_sums().data())) {}

void Im2ColConv2DInt8::Run(const Tensor& input, Tensor& output,
                           gemm::Context& ctx) const {
  const Conv2DGeometry& g = attrs_.geo;
  const std::int64_t rows = Im2ColRows(g);
  auto* patches = reinterpret_cast<std::int8_t*>(
      ctx.Scratch(1, static_cast<std::size_t>(rows) * Im2ColDepthFloat(g)));
  Im2ColInt8(input.data<std::int8_t>(), g,
             static_cast<std::int8_t>(
                 std::clamp(attrs_.input_quant.zero_point, -128, 127)),
             patches);
  auto* acc = reinterpret_cast<std::int32_t*>(ctx.Scratch(
      2, static_cast<std::size_t>(rows) * g.out_c * sizeof(std::int32_t)));
  Int8Gemm(patches, static_cast<int>(rows), panels_, acc, g.out_c, ctx);
  transform_->Apply(acc, 0, rows, output.raw_data(), output.row_stride());
}

}  // namespace lce::bench
