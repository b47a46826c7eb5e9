// Semantic graph validation: the trust boundary between model files and the
// runtime (docs/ROBUSTNESS.md).
//
// DeserializeGraph bounds-checks the *byte stream*; this layer checks that
// the resulting graph is *semantically* legal, so that
// CompiledModel::Compile and ExecutionContext::Invoke can execute it without
// any further checks on model-derived data. Concretely, for every live node
// it verifies:
//
//   * operand arity, ranks, and dtypes for all op types;
//   * weight operands are constants of the expected dtype and rank;
//   * per-channel attribute vectors (bias, multiplier, bn_scale/offset,
//     prelu_slope, bias_int32, weight_scales) are empty or exactly
//     channel-sized;
//   * enum-valued attributes are in range (padding, activations, bconv
//     output type) and op-specific padding restrictions hold;
//   * quantization parameters are finite and positive where a kernel will
//     divide by or cast through them;
//   * bitpacked values have rank >= 1 (the storage layout packs the
//     innermost dimension) and bconv operands agree channel-wise;
//   * stored output shapes/dtypes match re-inference (via Graph::Validate),
//     the graph is acyclic, and all producer/consumer links are alive.
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

// Validates a single live node's semantics (arity, operand dtypes/ranks,
// constant-weight requirements, attribute legality). The node's input value
// ids must be in range for `g` (guaranteed for graphs built through
// Graph::TryAddNode).
Status ValidateNode(const Graph& g, const Node& n);

// Full-graph validation: structural consistency (Graph::Validate), per-node
// semantics (ValidateNode), topological sanity, graph-input/output
// liveness, and resource limits. Called by DeserializeGraph on every loaded
// model and by CompiledModel::Compile before planning memory.
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
