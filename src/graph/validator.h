// Semantic graph validation: the trust boundary between model files and the
// runtime (docs/ROBUSTNESS.md).
//
// DeserializeGraph bounds-checks the *byte stream*; this layer checks that
// the resulting graph is *semantically* legal, so that
// CompiledModel::Compile and ExecutionContext::Invoke can execute it without
// any further checks on model-derived data. Concretely, for every live node
// it verifies:
//
//   * the op's operand contract (Graph::InferOutput, graph/ir.h): operand
//     count, dtypes and ranks, and the conv/pool/FC geometry, re-run on the
//     stored node; the stored geometry and output value must equal what the
//     contract derives, so a rewrite cannot desynchronize them;
//   * weight operands are constants with backing storage;
//   * per-channel attribute vectors (bias, multiplier, bn_scale/offset,
//     prelu_slope, bias_int32, weight_scales) are empty or exactly
//     channel-sized;
//   * enum-valued attributes are in range (padding, activations, bconv
//     output type) and op-specific padding restrictions hold;
//   * quantization parameters are finite and positive where a kernel will
//     divide by or cast through them;
//
// and for the whole graph: bitpacked values have rank >= 1 (the storage
// layout packs the innermost dimension), the graph is acyclic, and all
// producer/consumer links and graph inputs/outputs are alive.
//
// It also enforces ResourceLimits: per-tensor element/byte caps (computed
// overflow-checked), total constant bytes, node/value counts, and a bound
// on each convolution's im2col scratch footprint, so that a hostile model
// cannot trigger unbounded allocation downstream.
//
// Everything a builder or the converter legitimately produces passes; any
// violation returns Status::InvalidArgument (semantic) or
// Status::ResourceExhausted (limits), never an abort.
#ifndef LCE_GRAPH_VALIDATOR_H_
#define LCE_GRAPH_VALIDATOR_H_

#include "core/resource_limits.h"
#include "core/status.h"
#include "graph/ir.h"

namespace lce {

// The one graph validator: per-node semantics (above), topological sanity,
// graph-input/output liveness, and resource limits. Called by
// DeserializeGraph on every loaded model and by CompiledModel::Compile
// before planning memory; the converter and the post-training quantizer run
// it with ResourceLimits::Unlimited() after their rewrites.
Status ValidateGraph(const Graph& g, const ResourceLimits& limits = {});

// Admissibility predicate for the specialization surface (docs/SERVING.md,
// "Multi-resolution serving"): can `g` legally be specialized to `sig`
// under `limits`? Checks the request itself -- batch >= 1; h and w in
// [1, max_input_hw] for a graph with a rank-4 image input, both 0 for a
// graph without one -- and that every graph input is batch-1 and stays
// within the per-tensor element limit at `sig` (overflow-checked).
// Structural admissibility -- whether every op in the graph can execute at
// the new shapes -- is decided by the clone replay plus full re-validation
// when the specialization actually compiles; this predicate is the cheap
// reject-early surface the serving layer and the lazy-compile path consult
// per request. InvalidArgument for nonsense shapes, ResourceExhausted for
// over-limit ones. The bucket-count cap (ResourceLimits::max_shape_buckets)
// is enforced by CompiledModel's specialization registry, which owns that
// count.
Status ValidateShapeBucketRequest(const Graph& g, InputSignature sig,
                                  const ResourceLimits& limits = {});

}  // namespace lce

#endif  // LCE_GRAPH_VALIDATOR_H_
