// CompiledModel / ExecutionContext: the concurrent-serving split of the
// graph runtime (docs/SERVING.md).
//
// A CompiledModel is everything about a prepared model that is *immutable*
// after Compile(): the validated graph reference, its topological order,
// the static arena memory plan, and the prepared kernel objects with their
// pre-packed (32x-compressed) binary weights. It is built once and can be
// shared, read-only, by any number of threads.
//
// An ExecutionContext is everything one in-flight inference *mutates*: its
// own arena instance, its own GEMM scratch buffers, and its own profile
// storage. Contexts are cheap (one arena allocation) compared to the model
// (weight packing), so a server keeps one CompiledModel and a pool of
// ExecutionContexts -- N concurrent Invoke()s against one set of packed
// weights, on one process-shared ThreadPool.
//
// The legacy single-stream `Interpreter` (graph/interpreter.h) is now a
// thin wrapper owning one CompiledModel plus one ExecutionContext.
#ifndef LCE_GRAPH_COMPILED_MODEL_H_
#define LCE_GRAPH_COMPILED_MODEL_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/aligned_buffer.h"
#include "core/cancellation.h"
#include "core/resource_limits.h"
#include "core/status.h"
#include "core/tensor.h"
#include "gemm/context.h"
#include "graph/ir.h"
#include "kernels/bconv2d.h"
#include "kernels/bfully_connected.h"
#include "kernels/conv2d_float.h"
#include "kernels/conv2d_int8.h"
#include "kernels/depthwise_conv.h"
#include "kernels/fully_connected.h"

namespace lce::telemetry {
class Histogram;
}  // namespace lce::telemetry

namespace lce {

struct CompileOptions {
  // Size of the thread pool used by this model's execution contexts. When
  // `thread_pool` is null, Compile() installs ThreadPool::Shared(num_threads)
  // so every model compiled with the same size shares one set of workers.
  int num_threads = 1;
  std::shared_ptr<ThreadPool> thread_pool;
  gemm::KernelProfile kernel_profile = gemm::KernelProfile::kSimd;
  // Turns on the process-wide telemetry tracer at Compile() (equivalent to
  // telemetry::Tracer::Global().Enable() or the LCE_TRACE env var).
  bool enable_tracing = false;
  // Label used to namespace this model's metrics (per-node latency
  // histograms are registered as "node.<model_name>.<node_name>_ns").
  // Empty means "model".
  std::string model_name;
  // Registers one latency histogram per node and records every node's
  // execution time into it on each Invoke. Off by default: a zoo model adds
  // dozens of histograms to the process-wide registry dump, which
  // non-serving tools (benches, converters) don't want. The serving layer
  // turns it on to get per-model per-node latency attribution.
  bool enable_node_histograms = false;
  // Enforced on the graph and its memory plan; see core/resource_limits.h.
  ResourceLimits limits;
  // Square input resolutions to pre-compile as shape buckets at Compile()
  // (docs/SERVING.md, "Multi-resolution serving"). Each entry other than the
  // graph's own resolution becomes a ShapeVariant sharing the base model's
  // packed weights; resolutions not listed here can still be admitted later
  // through GetOrCompileShapeBucket (lazy compilation), subject to
  // ResourceLimits::max_shape_buckets. Requires batch-1 rank-4 square
  // inputs; Compile() fails if any listed resolution is inadmissible, so a
  // misconfigured bucket list is caught at startup, not on first request.
  std::vector<int> input_resolutions;
};

// One executed node's latency record.
struct OpProfile {
  int node_id = -1;
  std::string name;
  OpType type = OpType::kConv2D;
  double seconds = 0.0;
  BConvStageTimes bconv;  // only meaningful for kLceBConv2d
  // True for the binary operators (LceQuantize/LceBConv2d/LceBMaxPool2d).
  bool is_binary_op = false;
};

class ExecutionContext;

class CompiledModel {
 public:
  // Validates the graph (semantics + resource limits), plans the arena and
  // prepares kernels (packing binary weights). On success `*out` holds the
  // finished model; on failure `*out` is untouched and no partially-built
  // state escapes. The graph must outlive the model.
  static Status Compile(const Graph& graph, CompileOptions options,
                        std::shared_ptr<const CompiledModel>* out);

  // Compiles a sibling model that executes `base` over `batch` stacked
  // requests (docs/SERVING.md). The variant owns its own batch-N graph
  // clone, topological order, memory plan and arena size, but every
  // weight-bearing kernel SHARES the base kernel's packed weights -- only
  // the geometry-dependent state (indirection tables, tile plans) is
  // rebuilt, so N batch variants cost one set of packed weights plus
  // O(IR) metadata each. The variant keeps `base` alive. batch == 1
  // returns `base` itself. Requires a base model (not itself a variant)
  // whose graph has batch-1 inputs and outputs.
  static Status CompileBatchVariant(
      const std::shared_ptr<const CompiledModel>& base, int batch,
      std::shared_ptr<const CompiledModel>* out);

  // Compiles a sibling model that executes `root` at a different square
  // input resolution (docs/SERVING.md, "Multi-resolution serving"). Like a
  // batch variant, the shape variant owns its own graph clone, topological
  // order and arena plan while every weight-bearing kernel shares the root
  // kernel's packed weights; only spatial state (indirection tables, zero
  // rows, tile plans) is rebuilt for the new geometry, so a bucket costs
  // O(IR) metadata plus its arena plan and reports 0 packed-weight bytes.
  // `root` must be a root model (batch 1, not itself a variant) with rank-4
  // batch-1 inputs. input_hw equal to the root's own resolution returns
  // `root` itself. Inadmissible shapes -- a graph whose ops cannot replay at
  // the new resolution (e.g. flatten into a fixed fully-connected layer
  // anywhere but global pooling), or a request outside ResourceLimits --
  // fail with InvalidArgument / ResourceExhausted and `*out` untouched.
  static Status CompileShapeVariant(
      const std::shared_ptr<const CompiledModel>& root, int input_hw,
      std::shared_ptr<const CompiledModel>* out);

  // Bucket registry: returns the shape bucket for `input_hw`, compiling it
  // on first use (lazy bucketing). input_hw == 0 or the root's own
  // resolution returns `root`. Thread-safe; concurrent first requests for
  // the same resolution compile it once. Enforces
  // ResourceLimits::max_shape_buckets (counting the root as one bucket):
  // beyond the cap, unseen resolutions are rejected with ResourceExhausted
  // rather than compiling unbounded variants. The root owns the buckets
  // registered here: a returned bucket shares the root's ownership, so
  // holding it keeps the root alive, and releasing the last reference to
  // the root (or to any of its buckets) frees them all.
  static Status GetOrCompileShapeBucket(
      const std::shared_ptr<const CompiledModel>& root, int input_hw,
      std::shared_ptr<const CompiledModel>* out);

  ~CompiledModel();

  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  const Graph& graph() const { return graph_; }
  int num_inputs() const { return static_cast<int>(graph_.input_ids().size()); }
  int num_outputs() const {
    return static_cast<int>(graph_.output_ids().size());
  }
  // Bytes each ExecutionContext allocates for its arena.
  std::size_t arena_bytes() const { return arena_size_; }
  // Bytes of bitpacked weights held by this model's kernels -- allocated
  // once here, shared by every context. Batch variants report 0: their
  // kernels alias the base model's weights, and the resident-bytes gauge
  // must stay flat however many variants exist.
  std::size_t packed_weight_bytes() const { return packed_weight_bytes_; }
  const std::shared_ptr<ThreadPool>& thread_pool() const { return pool_; }
  gemm::KernelProfile kernel_profile() const { return kernel_profile_; }
  const std::string& model_name() const { return model_name_; }
  // Leading-dimension batch this model executes per Invoke (1 for a base
  // model, N for a CompileBatchVariant sibling).
  int batch() const { return batch_; }
  // The base model a variant was compiled from; null for base models.
  const CompiledModel* base_model() const { return base_; }
  // Square input resolution this model executes: dim 1 of graph input 0
  // (== dim 2; the shape-bucket surface only admits square rank-4 inputs).
  // 0 when the graph has no rank-4 image input -- such models cannot be
  // shape-bucketed but compile and serve normally at their one shape.
  int input_hw() const;
  // The bucket key this model serves under: its own input_hw(), for both
  // roots and variants (a batch variant inherits its base's bucket).
  int shape_bucket_hw() const { return input_hw(); }
  // Registered shape buckets on this root, base resolution included, sorted
  // ascending. For a variant, delegates to its root. Snapshot under the
  // registry lock; the count backs the serving.shape_buckets gauge.
  std::vector<int> ShapeBucketResolutions() const;

 private:
  friend class ExecutionContext;

  explicit CompiledModel(const Graph& graph);
  CompiledModel(std::unique_ptr<const Graph> owned_graph,
                const CompiledModel* base);
  // Compiles the shape variant of `root` at `input_hw`, which the caller
  // has screened with ValidateShapeBucketRequest and which is not root's
  // own resolution. Sets base_; who owns the variant is the caller's call.
  static Status BuildShapeVariant(const CompiledModel& root, int input_hw,
                                  std::unique_ptr<CompiledModel>* out);
  // When `weight_source` is non-null this is a batch-variant build:
  // `node_map` maps this graph's node ids to the source model's, and every
  // weight-bearing kernel is constructed as a sibling sharing the mapped
  // source kernel's packed weights.
  Status Build(CompileOptions options, const CompiledModel* weight_source,
               const std::vector<int>* node_map);

  const Graph& graph_;
  // Set only for variants: the variant owns its graph clone (base models
  // borrow their caller's graph) and links to the model it was compiled
  // from, whose kernels own the shared packed weights. base_owner_ keeps
  // that model alive; it stays null for registry buckets, which their root
  // owns (a bucket holding its root would be a reference cycle).
  std::unique_ptr<const Graph> owned_graph_;
  const CompiledModel* base_ = nullptr;
  std::shared_ptr<const CompiledModel> base_owner_;
  int batch_ = 1;
  std::shared_ptr<ThreadPool> pool_;
  gemm::KernelProfile kernel_profile_ = gemm::KernelProfile::kSimd;
  std::string model_name_;

  // Per-node latency histograms, indexed by node id; empty unless
  // CompileOptions::enable_node_histograms. Registry-owned pointers, so
  // they stay valid for the process lifetime.
  std::vector<telemetry::Histogram*> node_histograms_;

  std::vector<int> order_;                // topological node order
  std::vector<std::size_t> offsets_;      // per-value arena offset
  std::vector<bool> in_arena_;            // per-value: placed in arena?
  std::size_t arena_size_ = 0;
  std::size_t packed_weight_bytes_ = 0;

  // Prepared kernel objects, indexed by node id (only one is non-null).
  // Kernel Run() is const and keeps no per-invocation state (all scratch
  // comes from the caller's gemm::Context), so one kernel instance serves
  // all concurrent contexts. shared_ptr because a batch variant aliases
  // the base model's batch-agnostic kernels (bfc/fc) outright and holds
  // weight-sharing siblings of the batch-dependent ones.
  struct PreparedKernels {
    std::shared_ptr<const BConv2D> bconv;
    std::shared_ptr<const BFullyConnected> bfc;
    std::shared_ptr<const Conv2DFloat> conv;
    std::shared_ptr<const Conv2DInt8> conv_int8;
    std::shared_ptr<const DepthwiseConv2DFloat> dwconv;
    std::shared_ptr<const FullyConnectedFloat> fc;
  };
  std::vector<PreparedKernels> kernels_;
  // Retained for CompileBatchVariant (variants compile under the same
  // limits and histogram setting as their base).
  ResourceLimits limits_;
  bool node_histograms_enabled_ = false;

  // Shape-bucket registry (meaningful on root models only). Lazily grown by
  // GetOrCompileShapeBucket, keyed by square input resolution; the root
  // owns its buckets for its whole lifetime, so a bucket is compiled at
  // most once per root however requests interleave. `mutable` because
  // registering a bucket does not change the root's own immutable compiled
  // state -- concurrent Invokes never touch it.
  const CompiledModel* Root() const {
    const CompiledModel* m = this;
    while (m->base_ != nullptr) m = m->base_;
    return m;
  }
  void PublishBucketGaugesLocked() const;
  mutable std::mutex bucket_mu_;
  mutable std::map<int, std::unique_ptr<const CompiledModel>> shape_buckets_;
};

struct ExecutionOptions {
  // Record a per-op profile() on every Invoke.
  bool enable_profiling = false;
  // Called after each node executes with its output tensor (still valid at
  // that point; the arena may reuse it later). Used by the post-training
  // quantizer's range calibration.
  std::function<void(const Node&, const Tensor&)> observer;
};

// Mutable per-request execution state. Not thread-safe itself: one context
// serves one request at a time; run concurrent requests on separate
// contexts sharing one CompiledModel.
class ExecutionContext {
 public:
  explicit ExecutionContext(std::shared_ptr<const CompiledModel> model,
                            ExecutionOptions options = {});
  ~ExecutionContext();

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  // True when the arena allocation succeeded. A context whose arena failed
  // (memory pressure, or the LCE_FAULT_INJECTION arena fault point) is
  // inert: Invoke returns Status::ResourceExhausted and input()/output()
  // must not be called. The serving pool discards such contexts and sheds
  // the request instead of aborting the process.
  bool allocation_ok() const { return arena_ok_; }

  // Tensor views into this context's arena; write inputs before Invoke,
  // read outputs after. Indices follow the graph's declaration order.
  // While an I/O lane is set (batched serving), these return that lane's
  // dim-0 slice instead of the full batched tensor.
  Tensor input(int i);
  Tensor output(int i);
  int num_inputs() const { return model_->num_inputs(); }
  int num_outputs() const { return model_->num_outputs(); }

  // Batched-serving I/O scatter/gather (docs/SERVING.md): set_io_lane(i)
  // makes input()/output() return views of lane i -- the [1, ...] dim-0
  // slice of the batched tensor -- so per-request fill and read callbacks
  // written against a batch-1 model work unchanged against a batch-N
  // variant. Lane -1 (the default) restores whole-tensor views. The lane
  // only affects input()/output(); Invoke always runs the full batch.
  void set_io_lane(int lane);
  void clear_io_lane() { io_lane_ = -1; }
  int io_lane() const { return io_lane_; }

  // Executes the graph against this context's arena. Safe to call while
  // other contexts on the same model Invoke concurrently.
  //
  // `cancel` (optional) is polled at cooperative cancellation points: before
  // every node, after the last one, and -- through the gemm context -- at
  // row-tile-block boundaries inside the ConvPipeline engine, so an expired
  // deadline returns Status::DeadlineExceeded mid-model instead of running
  // the request to completion. Failure semantics (docs/SERVING.md):
  //   * kDeadlineExceeded / kCancelled -- the token fired; intermediate
  //     arena state is abandoned mid-model, but user-visible output buffers
  //     are never touched by a run that did not reach their producer node
  //     (graph outputs get exclusive arena regions; see Compile).
  //   * kResourceExhausted -- arena or kernel-scratch allocation failed.
  //   * any other non-Ok -- an induced or real kernel failure.
  // After any non-Ok return the arena contents are unspecified; reuse the
  // context only after Reset(), or discard it (the pool quarantines it).
  Status Invoke(const CancellationToken* cancel);

  // Infallible convenience wrapper for trusted single-stream use (tests,
  // benchmarks, the Interpreter): aborts if the status path reports an
  // error.
  void Invoke();

  // Returns the context to a deterministic post-construction state: the
  // arena is zeroed and the last profile cleared. The pool calls this on
  // every clean return so a reused context serves the next request
  // bit-identically to a fresh one.
  void Reset();

  // Per-op profile of the last Invoke (empty unless profiling enabled).
  const std::vector<OpProfile>& profile() const { return profile_; }

  // Request identity (docs/OBSERVABILITY.md): when nonzero, every tracer
  // span recorded by Invoke on this context -- the invoke span and the
  // per-node spans -- carries a "req" argument with this id, so one
  // request's spans are joinable across tracks in the Perfetto export. The
  // serving layer sets this to the server-assigned request id before each
  // Invoke; 0 (the default) leaves spans untagged for non-serving callers.
  void set_request_id(std::int64_t id) { request_id_ = id; }
  std::int64_t request_id() const { return request_id_; }

  // Nodes executed by the last Invoke, counting a node whose kernel failed
  // or whose run was abandoned mid-model -- i.e. how far the request got.
  int nodes_executed() const { return nodes_executed_; }

  std::size_t arena_bytes() const { return model_->arena_bytes(); }
  const CompiledModel& model() const { return *model_; }
  gemm::Context& gemm_context() { return ctx_; }

 private:
  friend class Interpreter;

  Tensor ValueTensor(int value_id);
  void RunNode(const Node& node, OpProfile* prof);

  std::shared_ptr<const CompiledModel> model_;
  ExecutionOptions options_;
  gemm::Context ctx_;
  AlignedBuffer arena_;
  bool arena_ok_ = false;
  std::vector<OpProfile> profile_;
  std::int64_t request_id_ = 0;
  int nodes_executed_ = 0;
  int io_lane_ = -1;
};

}  // namespace lce

#endif  // LCE_GRAPH_COMPILED_MODEL_H_
