// LceBFullyConnected: binarized fully-connected layer, the operator behind
// the classic binary MLP classifiers (Binary AlexNet's FC layers). A
// fully-connected layer is a BGEMM with one row per batch element, so this
// reuses the packed BGEMM stack directly and supports the same fused
// per-output multiplier/bias transform as LceBConv2d.
#ifndef LCE_KERNELS_BFULLY_CONNECTED_H_
#define LCE_KERNELS_BFULLY_CONNECTED_H_

#include <cstdint>
#include <vector>

#include "core/tensor.h"
#include "core/types.h"
#include "gemm/bgemm.h"
#include "gemm/context.h"

namespace lce {

struct BFullyConnectedAttrs {
  int in_features = 0;   // logical input features (bitpacked in words)
  int out_features = 0;
  // Fused per-output-feature transform: y = pre_act(dot) * mult + bias.
  Activation pre_activation = Activation::kNone;
  std::vector<float> multiplier;
  std::vector<float> bias;
};

class BFullyConnected {
 public:
  // weights: float [out_features][in_features] with +/-1 values.
  BFullyConnected(const float* weights, BFullyConnectedAttrs attrs);
  // weights already bitpacked: [out_features][words(in_features)]. Read
  // only during construction (the kernel keeps its own packed copy).
  BFullyConnected(const TBitpacked* packed_weights, BFullyConnectedAttrs attrs);

  // input: bitpacked [batch, in_features]; output: float [batch, out].
  void Run(const Tensor& input, Tensor& output, gemm::Context& ctx) const;

  const BFullyConnectedAttrs& attrs() const { return attrs_; }

  // Size in bytes of the bitpacked weights (32x smaller than float): the
  // logical [out_features][words(in_features)] rows, computed from the
  // shape (only the channel-tiled packed matrix stays resident).
  std::size_t packed_weights_bytes() const {
    return static_cast<std::size_t>(attrs_.out_features) *
           BitpackedWords(attrs_.in_features) * sizeof(TBitpacked);
  }

 private:
  // Validates the attrs and packs the bitpacked `rows`, read only here.
  void Init(const TBitpacked* rows);

  BFullyConnectedAttrs attrs_;
  gemm::PackedBinaryMatrix packed_weights_;
};

}  // namespace lce

#endif  // LCE_KERNELS_BFULLY_CONNECTED_H_
