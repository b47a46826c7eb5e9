#include "kernels/conv2d_float.h"

#include "core/macros.h"

namespace lce {

Conv2DFloat::Conv2DFloat(const float* weights_ohwi, Conv2DFloatAttrs attrs)
    : attrs_(std::move(attrs)) {
  const Conv2DGeometry& g = attrs_.geo;
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), g.out_c);
  }
  packed_weights_ = std::make_shared<gemm::PackedFloatMatrix>(
      weights_ohwi, g.out_c, Im2ColDepthFloat(g));
}

Conv2DFloat::Conv2DFloat(const Conv2DFloat& base, Conv2DFloatAttrs attrs)
    : attrs_(std::move(attrs)), packed_weights_(base.packed_weights_) {
  // The GEMM reads the patch geometry from attrs_ per Run.
  CheckSiblingGeometry(attrs_.geo, base.attrs_.geo);
}

void Conv2DFloat::Run(const Tensor& input, Tensor& output,
                      gemm::Context& ctx) const {
  const Conv2DGeometry& g = attrs_.geo;
  LCE_CHECK(input.dtype() == DataType::kFloat32);
  LCE_CHECK(output.dtype() == DataType::kFloat32);
  // The last dimension: a fully connected layer's tensors are rank 2.
  LCE_CHECK_EQ(input.shape().dim(input.shape().rank() - 1), g.in_c);
  gemm::FloatGemm(input.data<float>(), g, *packed_weights_,
                  attrs_.bias.empty() ? nullptr : attrs_.bias.data(),
                  attrs_.activation, output.data<float>(),
                  output.row_stride(), ctx);
}

}  // namespace lce
