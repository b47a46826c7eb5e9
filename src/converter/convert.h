// The LCE converter (paper section 3.1): transforms a *training graph*
// (float-emulated binarization, separate batch-norm/activation nodes) into
// an *inference graph* with true binarized operators, fused output
// transforms, bitpacked weights and bitpacked layer-to-layer chaining.
//
// Pass pipeline (each pass is also available individually in passes.h):
//   1. FuseBatchNormIntoFloatConv   -- "for free" folding into weights/bias
//   2. FuseActivationIntoFloatOps   -- TFLite-style ReLU fusion
//   3. LowerBinarizedConvs          -- FakeSign+Conv2D -> LceQuantize+LceBConv2d
//                                      (includes 32x binary weight compression)
//   4. FuseBConvOutputTransform     -- ReLU / BatchNorm chains -> fused
//                                      multiplier/bias/pre-activation
//   5. SwapMaxPoolSign              -- MaxPool∘sign -> LceBMaxPool2d∘sign
//   6. ElideQuantize                -- bconv -> quantize chains become
//                                      direct bitpacked output (thresholds)
//   7. EliminateDeadNodes
#ifndef LCE_CONVERTER_CONVERT_H_
#define LCE_CONVERTER_CONVERT_H_

#include "core/status.h"
#include "graph/ir.h"

namespace lce {

struct ConvertOptions {
  bool fuse_batch_norm = true;
  bool fuse_activations = true;
  bool fuse_bconv_output_transform = true;
  bool swap_maxpool_sign = true;
  bool elide_quantize = true;
};

struct ConvertStats {
  int batch_norms_fused_into_float_conv = 0;
  int activations_fused = 0;
  int bconvs_lowered = 0;
  int bfcs_lowered = 0;
  int bconv_transforms_fused = 0;
  int maxpools_binarized = 0;
  int quantizes_elided = 0;
  int dead_nodes_removed = 0;
};

// Copies a graph's live nodes, its inputs and the constants they read,
// replayed at the graph's own input shapes (CloneGraphWithInputShapes).
// Constant tensor storage is shared, which is safe because constants are
// read-only. Value and node ids may differ from the source's.
Graph CloneGraph(const Graph& g);

// Converts `g` in place. The graph is validated after every pass; a failed
// validation aborts the conversion with an error. While the process-wide
// tracer is on (telemetry::Tracer::Global().Enable() or LCE_TRACE), every
// pass emits a span carrying its rewrite count.
Status Convert(Graph& g, const ConvertOptions& options = {},
               ConvertStats* stats = nullptr);

}  // namespace lce

#endif  // LCE_CONVERTER_CONVERT_H_
