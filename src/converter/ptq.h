// Post-training quantization: converts the full-precision convolutions of a
// float graph to int8, the "near-lossless 8-bit quantization" baseline the
// paper benchmarks binarization against (Figures 2/3, Table 2).
//
// Pipeline (standard TFLite-style PTQ):
//   1. Fold: FuseBatchNormIntoFloatConv and FuseActivationIntoFloatOps (the
//      passes Convert runs first) fold each BatchNorm into its conv's
//      weights and bias and each ReLU into its producer, so a conv's ReLU
//      becomes the requantization clamp.
//   2. Calibrate: run the float graph on calibration inputs, recording the
//      min/max range of every Conv2D input and output via the execution
//      context's observer hook (ExecutionOptions::observer).
//   3. Rewrite each float Conv2D (not the emulated binarized ones) into
//        QuantizeInt8 -> Conv2DInt8 -> DequantizeInt8
//      with per-tensor affine activations, symmetric int8 weights, and the
//      float bias requantized to int32 at scale s_in * s_w.
//   4. Cancel adjacent Dequantize -> Quantize pairs so chained quantized
//      convolutions pass int8 activations directly, then remove the nodes
//      left without consumers (the cancelled pairs' dequantizes).
#ifndef LCE_CONVERTER_PTQ_H_
#define LCE_CONVERTER_PTQ_H_

#include <vector>

#include "core/status.h"
#include "graph/ir.h"

namespace lce {

struct PtqOptions {
  int calibration_runs = 4;        // random calibration batches
  std::uint64_t calibration_seed = 1234;
  // Per-output-channel symmetric weight quantization (TFLite's default for
  // convolution weights); per-tensor when false.
  bool per_channel_weights = true;
};

struct PtqStats {
  int convs_quantized = 0;
  int quantize_pairs_cancelled = 0;
};

// Quantizes `g` in place. The graph must be float-only on the rewritten
// paths (run this *before* binarized-conv lowering, or on graphs without
// binarized convolutions). Returns an error if calibration fails.
Status QuantizeModelInt8(Graph& g, const PtqOptions& options = {},
                         PtqStats* stats = nullptr);

}  // namespace lce

#endif  // LCE_CONVERTER_PTQ_H_
