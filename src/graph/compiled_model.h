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
// (weight packing), so a server keeps one CompiledModel and one
// ExecutionContext per executor thread -- N concurrent Invoke()s against
// one set of packed weights, on one process-shared ThreadPool.
//
// This pair is the only way to run a graph. A single-stream caller compiles
// once and keeps one context:
//
//   std::shared_ptr<const CompiledModel> model;
//   LCE_RETURN_IF_ERROR(CompiledModel::Compile(graph, {}, &model));
//   ExecutionContext exec(model);
//   // fill exec.input(i), exec.Invoke(), read exec.output(j)
#ifndef LCE_GRAPH_COMPILED_MODEL_H_
#define LCE_GRAPH_COMPILED_MODEL_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/aligned_buffer.h"
#include "core/cancellation.h"
#include "core/resource_limits.h"
#include "core/status.h"
#include "core/tensor.h"
#include "gemm/context.h"
#include "graph/ir.h"
#include "kernels/bconv2d.h"
#include "kernels/conv2d_float.h"
#include "kernels/conv2d_int8.h"
#include "kernels/depthwise_conv.h"

namespace lce::telemetry {
class Histogram;
}  // namespace lce::telemetry

namespace lce {

struct CompileOptions {
  // Size of the thread pool used by this model's execution contexts:
  // Compile() installs ThreadPool::Shared(num_threads), so every model
  // compiled with the same size shares one set of workers, and its
  // specializations run on their root's pool.
  int num_threads = 1;
  gemm::KernelProfile kernel_profile = gemm::KernelProfile::kSimd;
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
};

// One executed node's latency record.
struct OpProfile {
  int node_id = -1;
  std::string name;
  OpType type = OpType::kConv2D;
  double seconds = 0.0;
  // Only meaningful for kLceBConv2d and kLceBFullyConnected (a 1x1 BConv2D).
  BConvStageTimes bconv;
  // True for the binary operators (IsBinaryOp in graph/ir.h).
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

  // Returns the specialization of `root` at `sig` (docs/SERVING.md): a
  // sibling model executing root's graph over `sig.batch` stacked requests
  // at input resolution (sig.h, sig.w). h == w == 0 keeps the root's own
  // spatial extent, and the root's own signature returns `root` itself. A
  // specialization owns its graph clone, topological order and arena plan,
  // but every weight-bearing kernel shares the root kernel's packed
  // weights -- only geometry-dependent state (the binary kernels'
  // indirection tables and zero rows, tile plans) is rebuilt -- so it costs
  // O(IR) metadata plus its arena and reports 0 packed-weight bytes.
  //
  // Every specialization lives in the root's one registry, keyed by
  // signature. Thread-safe: concurrent first requests for an unseen
  // signature compile it once (under the registry lock; the compile is
  // O(IR), no weight packing), later requests only touch the map. The
  // root owns what it registers and hands it out through the shared_ptr
  // aliasing constructor, so holding a specialization keeps the root
  // alive, and releasing the last reference to the root (or to any of its
  // specializations) frees them all.
  //
  // Requires a root (not itself a specialization) with batch-1 inputs.
  // Fails with `*out` untouched: InvalidArgument for an inadmissible
  // signature (ValidateShapeBucketRequest, a graph whose ops cannot replay
  // at it, an output that does not carry the batch dimension),
  // ResourceExhausted beyond ResourceLimits -- including
  // max_shape_buckets, which caps the distinct (h, w) on the registry,
  // root included; batch sizes do not count against it.
  static Status Specialize(const std::shared_ptr<const CompiledModel>& root,
                           InputSignature sig,
                           std::shared_ptr<const CompiledModel>* out);

  // Specialize without the compile: a signature missing from the registry
  // is InvalidArgument. How serving executors find each batch's model.
  static Status Lookup(const std::shared_ptr<const CompiledModel>& root,
                       InputSignature sig,
                       std::shared_ptr<const CompiledModel>* out);

  // The square batch-1 shape bucket: Specialize(root, {1, input_hw,
  // input_hw}); input_hw == 0 returns `root`.
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

  // Where a non-constant value lives in each context's arena. A Concat
  // input written in place ("hosted", docs/PERFORMANCE.md) is a channel
  // slice of the Concat output that hosts it: its offset lies inside the
  // host's bytes and its rows are row_stride floats apart, the channel
  // count of the outermost host.
  struct ValuePlacement {
    bool in_arena = false;        // false for constants and dead values
    std::size_t offset = 0;       // bytes from the arena start
    std::int64_t row_stride = 0;  // 0: dense
    int host = -1;                // value id of the hosting Concat output
  };
  const ValuePlacement& placement(int value_id) const {
    return placements_[value_id];
  }
  // Bytes of the Concat inputs written in place: the copies a request no
  // longer makes (the planner.hosted_bytes gauge).
  std::size_t hosted_bytes() const { return hosted_bytes_; }
  // Bytes of bitpacked weights held by this model's kernels -- allocated
  // once here, shared by every context. Specializations report 0: their
  // kernels alias the root's weights, and the resident-bytes gauge must
  // stay flat however many specializations exist.
  std::size_t packed_weight_bytes() const { return packed_weight_bytes_; }
  const std::shared_ptr<ThreadPool>& thread_pool() const { return pool_; }
  gemm::KernelProfile kernel_profile() const { return kernel_profile_; }
  const std::string& model_name() const { return model_name_; }
  // The input geometry this model executes: dim 0 of graph input 0 and
  // the spatial extent of the first rank-4 input ((0, 0) without one).
  InputSignature signature() const { return signature_; }
  // The root a specialization was compiled from; null for roots.
  const CompiledModel* base_model() const { return base_; }
  // Square batch-1 entries of the root's registry, the root's own
  // resolution included when square, sorted ascending. A specialization
  // reports its root's registry. Snapshot under the registry lock.
  std::vector<int> ShapeBucketResolutions() const;
  // Distinct (h, w) on the root's registry, root included: the count
  // ResourceLimits::max_shape_buckets caps and the serving layer reports.
  int shape_bucket_count() const;

 private:
  friend class ExecutionContext;

  explicit CompiledModel(const Graph& graph);
  CompiledModel(std::unique_ptr<const Graph> owned_graph,
                const CompiledModel* root);
  // Specialize (compile == true) and Lookup share this resolution path.
  static Status Resolve(const std::shared_ptr<const CompiledModel>& root,
                        InputSignature sig, bool compile,
                        std::shared_ptr<const CompiledModel>* out);
  // Compiles this root's specialization at `sig`, which the caller has
  // screened with ValidateShapeBucketRequest and which is not the root's
  // own signature; the caller registers it.
  Status BuildSpecialization(InputSignature sig,
                             std::unique_ptr<CompiledModel>* out) const;
  // When `weight_source` is non-null this is a specialization build:
  // `node_map` maps this graph's node ids to the source model's, every
  // weight-bearing kernel is constructed as a sibling sharing the mapped
  // source kernel's packed weights, and the model runs on the source's
  // pool (options.num_threads is ignored).
  Status Build(CompileOptions options, const CompiledModel* weight_source,
               const std::vector<int>* node_map);

  const Graph& graph_;
  // Set only for specializations: a specialization owns its graph clone
  // (roots borrow their caller's graph) and links to its root, whose
  // kernels own the shared packed weights and whose registry owns the
  // specialization (holding the root instead would be a reference cycle).
  std::unique_ptr<const Graph> owned_graph_;
  const CompiledModel* base_ = nullptr;
  InputSignature signature_;
  std::shared_ptr<ThreadPool> pool_;
  gemm::KernelProfile kernel_profile_ = gemm::KernelProfile::kSimd;
  std::string model_name_;

  // Per-node latency histograms, indexed by node id; empty unless
  // CompileOptions::enable_node_histograms. Registry-owned pointers, so
  // they stay valid for the process lifetime.
  std::vector<telemetry::Histogram*> node_histograms_;

  std::vector<int> order_;                    // topological node order
  std::vector<ValuePlacement> placements_;    // per value id
  std::size_t arena_size_ = 0;
  std::size_t hosted_bytes_ = 0;
  std::size_t packed_weight_bytes_ = 0;

  // Prepared kernel objects, indexed by node id (only one is non-null).
  // Kernel Run() is const and keeps no per-invocation state (all scratch
  // comes from the caller's gemm::Context), so one kernel instance serves
  // all concurrent contexts. Each model owns its kernels; a specialization
  // builds weight-sharing siblings of its root's. `conv` also serves
  // kFullyConnected and `bconv` kLceBFullyConnected, each as a 1x1
  // convolution.
  struct PreparedKernels {
    std::unique_ptr<const BConv2D> bconv;
    std::unique_ptr<const Conv2DFloat> conv;
    std::unique_ptr<const Conv2DInt8> conv_int8;
    std::unique_ptr<const DepthwiseConv2DFloat> dwconv;
  };
  std::vector<PreparedKernels> kernels_;
  // Retained for Specialize (specializations compile under the same limits
  // and histogram setting as their root).
  ResourceLimits limits_;
  bool node_histograms_enabled_ = false;

  // The specialization registry (meaningful on roots only), keyed by
  // signature, grown by Specialize. The root owns its specializations for
  // its whole lifetime, so each signature compiles at most once however
  // requests interleave. `mutable` because registering one does not change
  // the root's own immutable compiled state -- concurrent Invokes never
  // touch it.
  mutable std::mutex registry_mu_;
  mutable std::map<InputSignature, std::unique_ptr<const CompiledModel>>
      registry_;
  // Distinct (h, w) among the root and its registry. Requires registry_mu_.
  std::set<std::pair<int, int>> ShapesLocked() const;
  void PublishRegistryGaugesLocked() const;
};

struct ExecutionOptions {
  // Record a per-op profile() on every Invoke.
  bool enable_profiling = false;
  // Called after each node executes with its output tensor (still valid at
  // that point; the arena may reuse it later). Used by the post-training
  // quantizer's range calibration and by the STE trainer, which keeps every
  // activation for its backward pass. The tensor is always dense: a Concat
  // input written in place in its Concat's output (a strided channel slice,
  // docs/PERFORMANCE.md) is handed over as a dense copy.
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
  // must not be called. A serving executor discards such a context and
  // sheds the batch instead of aborting the process.
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
  // specialization. Lane -1 (the default) restores whole-tensor views. The lane
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
  // context only after Reset(), or discard it (the server quarantines it).
  Status Invoke(const CancellationToken* cancel);

  // Infallible convenience wrapper for trusted single-stream use (tests,
  // benchmarks, examples, PTQ calibration): aborts if the status path
  // reports an error.
  void Invoke();

  // Zeroes the arena and clears the last profile, so a reused context
  // serves its next request bit-identically to a fresh one. A serving
  // executor calls this before each batch it runs on the context it
  // already holds; a context it is about to replace is never zeroed.
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
