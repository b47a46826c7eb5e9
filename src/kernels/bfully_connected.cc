#include "kernels/bfully_connected.h"

#include <utility>
#include <vector>

#include "core/bitpack.h"
#include "core/macros.h"
#include "kernels/conv_params.h"

namespace lce {

BFullyConnected::BFullyConnected(const float* weights,
                                 BFullyConnectedAttrs attrs)
    : attrs_(std::move(attrs)) {
  std::vector<TBitpacked> rows(
      static_cast<std::size_t>(attrs_.out_features) *
          BitpackedWords(attrs_.in_features),
      0);
  BitpackMatrix(weights, attrs_.out_features, attrs_.in_features,
                rows.data());
  Init(rows.data());
}

BFullyConnected::BFullyConnected(const TBitpacked* packed_weights,
                                 BFullyConnectedAttrs attrs)
    : attrs_(std::move(attrs)) {
  Init(packed_weights);
}

void BFullyConnected::Init(const TBitpacked* rows) {
  LCE_CHECK_GT(attrs_.in_features, 0);
  LCE_CHECK_GT(attrs_.out_features, 0);
  if (!attrs_.multiplier.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.multiplier.size()),
                 attrs_.out_features);
  }
  if (!attrs_.bias.empty()) {
    LCE_CHECK_EQ(static_cast<int>(attrs_.bias.size()), attrs_.out_features);
  }
  packed_weights_ = gemm::PackedBinaryMatrix(
      rows, attrs_.out_features, BitpackedWords(attrs_.in_features));
}

void BFullyConnected::Run(const Tensor& input, Tensor& output,
                          gemm::Context& ctx) const {
  LCE_CHECK(input.dtype() == DataType::kBitpacked);
  LCE_CHECK(output.dtype() == DataType::kFloat32);
  const int batch = static_cast<int>(input.shape().dim(0));

  auto* acc = reinterpret_cast<std::int32_t*>(ctx.Scratch(
      2, static_cast<std::size_t>(batch) * attrs_.out_features *
             sizeof(std::int32_t)));
  gemm::BGemm(input.data<TBitpacked>(), batch, packed_weights_,
              attrs_.in_features, acc, attrs_.out_features, ctx);

  float* out = output.data<float>();
  const bool has_mult = !attrs_.multiplier.empty();
  const bool has_bias = !attrs_.bias.empty();
  for (int b = 0; b < batch; ++b) {
    const std::int32_t* a =
        acc + static_cast<std::int64_t>(b) * attrs_.out_features;
    float* o = out + static_cast<std::int64_t>(b) * attrs_.out_features;
    for (int n = 0; n < attrs_.out_features; ++n) {
      float v = ApplyActivation(static_cast<float>(a[n]),
                                attrs_.pre_activation);
      if (has_mult) v *= attrs_.multiplier[n];
      if (has_bias) v += attrs_.bias[n];
      o[n] = v;
    }
  }
}

}  // namespace lce
