// Graph interpreter: the single-stream compatibility wrapper over the
// CompiledModel / ExecutionContext split (graph/compiled_model.h,
// docs/SERVING.md).
//
// Prepare() compiles the graph -- shape checking, one static arena plan for
// all intermediate tensors (lifetime-based sharing), kernel instantiation
// with pre-packed weights -- and attaches one ExecutionContext. Invoke()
// executes nodes in topological order on that context. Per-op profiling
// (latencies + LceBConv2d stage breakdown) supports the paper's Figure 5 /
// Table 4 experiments.
//
// For concurrent serving (N requests against one set of packed weights),
// use CompiledModel::Compile + one ExecutionContext per request instead;
// `compiled_model()` exposes this interpreter's model for sharing.
#ifndef LCE_GRAPH_INTERPRETER_H_
#define LCE_GRAPH_INTERPRETER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/resource_limits.h"
#include "core/status.h"
#include "core/tensor.h"
#include "gemm/context.h"
#include "graph/compiled_model.h"
#include "graph/ir.h"

namespace lce {

struct InterpreterOptions {
  int num_threads = 1;
  gemm::KernelProfile kernel_profile = gemm::KernelProfile::kSimd;
  bool enable_profiling = false;
  // Enforced by Prepare() on the graph and its memory plan. The defaults are
  // generous but finite (see core/resource_limits.h); loaders of untrusted
  // models should tighten them to what the application expects.
  ResourceLimits limits;
  // Called after each node executes with its output tensor (still valid at
  // that point; the arena may reuse it later). Used by the post-training
  // quantizer's range calibration.
  std::function<void(const Node&, const Tensor&)> observer;
};

class Interpreter {
 public:
  // The graph must outlive the interpreter.
  Interpreter(const Graph& graph, InterpreterOptions options = {});

  // Validates the graph (semantics + resource limits), plans memory and
  // prepares kernels. Must be called before Invoke. Any defect in a
  // model-derived graph is reported here as a Status; after an OK Prepare,
  // Invoke cannot fail.
  //
  // Re-Prepare contract: after a successful Prepare, further calls are
  // idempotent no-ops returning Ok -- nothing is re-planned, re-packed,
  // re-counted in the metrics, and the tracer is not re-enabled. After a
  // failed Prepare no partially-built state is retained, so a retry starts
  // from a clean slate (and input/output/Invoke still abort until some
  // Prepare succeeds).
  Status Prepare();

  // Tensor views into the arena; write inputs before Invoke, read outputs
  // after. Indices follow the graph's input/output declaration order.
  Tensor input(int i);
  Tensor output(int i);
  int num_inputs() const;
  int num_outputs() const;

  // Executes the graph. Calling this before a successful Prepare() is a
  // programmer error and aborts with an LCE_CHECK failure (there is no
  // memory plan or kernel state to run against).
  void Invoke();

  // Per-op profile of the last Invoke (empty unless profiling enabled).
  // Each record is the structured view of the tracer's per-node span: both
  // are produced from the same telemetry-clock timestamp pair.
  const std::vector<OpProfile>& profile() const;

  std::size_t arena_bytes() const;
  gemm::Context& context();

  // The underlying immutable model; share it with additional
  // ExecutionContexts to serve concurrent requests against one set of
  // packed weights. Null before a successful Prepare.
  const std::shared_ptr<const CompiledModel>& compiled_model() const {
    return model_;
  }

 private:
  const Graph& graph_;
  InterpreterOptions options_;
  std::shared_ptr<const CompiledModel> model_;
  std::unique_ptr<ExecutionContext> exec_;
};

}  // namespace lce

#endif  // LCE_GRAPH_INTERPRETER_H_
