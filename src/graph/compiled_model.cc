#include "graph/compiled_model.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "core/bitpack.h"
#include "core/macros.h"
#include "graph/batch_variant.h"
#include "graph/memory_planner.h"
#include "graph/shape_variant.h"
#include "graph/validator.h"
#include "kernels/bmaxpool.h"
#include "kernels/elementwise.h"
#include "kernels/pooling.h"
#include "kernels/quantize_ops.h"
#include "serving/fault_injection.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce {
namespace {

bool IsBinaryOp(OpType t) {
  return t == OpType::kLceQuantize || t == OpType::kLceDequantize ||
         t == OpType::kLceBConv2d || t == OpType::kLceBMaxPool2d ||
         t == OpType::kLceBFullyConnected;
}

// Bytes of packed binary weights currently resident across all live
// CompiledModels. Unlike the per-model high-water gauges this accumulates,
// so a server can verify weights are shared rather than duplicated per
// stream (bench_serving_throughput checks it stays flat as streams scale).
telemetry::Metric* ResidentPackedBytes() {
  return telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
}

telemetry::Metric* ResidentArenaBytes() {
  return telemetry::MetricsRegistry::Global().Gauge(
      "serving.resident_arena_bytes");
}

telemetry::Metric* LiveExecutionContexts() {
  return telemetry::MetricsRegistry::Global().Gauge(
      "serving.execution_contexts");
}

}  // namespace

CompiledModel::CompiledModel(const Graph& graph) : graph_(graph) {}

CompiledModel::CompiledModel(std::unique_ptr<const Graph> owned_graph,
                             const CompiledModel* base)
    : graph_(*owned_graph), owned_graph_(std::move(owned_graph)), base_(base) {}

CompiledModel::~CompiledModel() {
  ResidentPackedBytes()->Add(-static_cast<std::int64_t>(packed_weight_bytes_));
}

Status CompiledModel::Compile(const Graph& graph, CompileOptions options,
                              std::shared_ptr<const CompiledModel>* out) {
  LCE_CHECK(out != nullptr);
  // Build into a private instance: a failed compile leaves `*out` untouched
  // and the partially-built arena plan / kernel state dies here, so retrying
  // after a failure always starts from a clean slate.
  std::vector<int> resolutions = std::move(options.input_resolutions);
  std::shared_ptr<CompiledModel> model(new CompiledModel(graph));
  LCE_RETURN_IF_ERROR(model->Build(std::move(options), nullptr, nullptr));
  // Eagerly compile the requested shape buckets so misconfigured resolution
  // lists fail at startup. Registration goes through the same registry as
  // lazy bucketing, so pre-compiled and on-demand buckets are
  // indistinguishable afterwards.
  std::shared_ptr<const CompiledModel> root = model;
  for (int hw : resolutions) {
    std::shared_ptr<const CompiledModel> bucket;
    LCE_RETURN_IF_ERROR(GetOrCompileShapeBucket(root, hw, &bucket));
  }
  *out = std::move(root);
  return Status::Ok();
}

Status CompiledModel::CompileBatchVariant(
    const std::shared_ptr<const CompiledModel>& base, int batch,
    std::shared_ptr<const CompiledModel>* out) {
  LCE_CHECK(base != nullptr && out != nullptr);
  if (batch < 1) {
    return Status::InvalidArgument("batch variant requires batch >= 1");
  }
  if (batch == 1) {
    // The base model IS the batch-1 variant.
    *out = base;
    return Status::Ok();
  }
  // A batch variant widens a batch-1 model; its base may be the root or a
  // shape bucket (whose kernels already alias the root's weights -- the
  // sibling copy just re-shares the same shared_ptr state), but never
  // another batch variant.
  if (base->batch_ != 1) {
    return Status::InvalidArgument(
        "batch variants must be compiled from a batch-1 model, not from "
        "another batch variant");
  }
  std::unique_ptr<Graph> clone;
  std::vector<int> node_map;
  LCE_RETURN_IF_ERROR(
      CloneGraphWithBatch(base->graph_, batch, &clone, &node_map));
  // Same pool, profile, name, limits and histogram setting as the base:
  // the variant is the same model, executed N requests at a time, and its
  // per-node histograms intentionally merge with the base's.
  CompileOptions options;
  options.thread_pool = base->pool_;
  options.kernel_profile = base->kernel_profile_;
  options.model_name = base->model_name_;
  options.enable_node_histograms = base->node_histograms_enabled_;
  options.limits = base->limits_;
  std::shared_ptr<CompiledModel> model(
      new CompiledModel(std::move(clone), base.get()));
  model->base_owner_ = base;
  model->batch_ = batch;
  LCE_RETURN_IF_ERROR(
      model->Build(std::move(options), base.get(), &node_map));
  *out = std::move(model);
  return Status::Ok();
}

int CompiledModel::input_hw() const {
  if (graph_.input_ids().empty()) return 0;
  const Value& v = graph_.value(graph_.input_ids()[0]);
  if (v.shape.rank() != 4) return 0;
  return static_cast<int>(v.shape.dim(1));
}

Status CompiledModel::CompileShapeVariant(
    const std::shared_ptr<const CompiledModel>& root, int input_hw,
    std::shared_ptr<const CompiledModel>* out) {
  LCE_CHECK(root != nullptr && out != nullptr);
  if (root->base_ != nullptr || root->batch_ != 1) {
    return Status::InvalidArgument(
        "shape variants must be compiled from the root model, not from "
        "another variant");
  }
  LCE_RETURN_IF_ERROR(
      ValidateShapeBucketRequest(root->graph_, input_hw, root->limits_));
  if (input_hw == root->input_hw()) {
    // The root IS its own resolution's bucket.
    *out = root;
    return Status::Ok();
  }
  std::unique_ptr<CompiledModel> model;
  LCE_RETURN_IF_ERROR(BuildShapeVariant(*root, input_hw, &model));
  model->base_owner_ = root;
  *out = std::move(model);
  return Status::Ok();
}

Status CompiledModel::BuildShapeVariant(const CompiledModel& root,
                                        int input_hw,
                                        std::unique_ptr<CompiledModel>* out) {
  std::unique_ptr<Graph> clone;
  std::vector<int> node_map;
  LCE_RETURN_IF_ERROR(
      CloneGraphWithInputSize(root.graph_, input_hw, &clone, &node_map));
  // Same pool, profile, name, limits and histogram setting as the root: a
  // bucket is the same model at another resolution, and its per-node
  // histograms intentionally merge with the root's.
  CompileOptions options;
  options.thread_pool = root.pool_;
  options.kernel_profile = root.kernel_profile_;
  options.model_name = root.model_name_;
  options.enable_node_histograms = root.node_histograms_enabled_;
  options.limits = root.limits_;
  std::unique_ptr<CompiledModel> model(
      new CompiledModel(std::move(clone), &root));
  LCE_RETURN_IF_ERROR(model->Build(std::move(options), &root, &node_map));
  *out = std::move(model);
  return Status::Ok();
}

Status CompiledModel::GetOrCompileShapeBucket(
    const std::shared_ptr<const CompiledModel>& root, int input_hw,
    std::shared_ptr<const CompiledModel>* out) {
  LCE_CHECK(root != nullptr && out != nullptr);
  if (root->base_ != nullptr || root->batch_ != 1) {
    return Status::InvalidArgument(
        "shape buckets are registered on the root model, not on variants");
  }
  if (input_hw == 0 || input_hw == root->input_hw()) {
    *out = root;
    return Status::Ok();
  }
  // Compilation happens under the registry lock: concurrent first requests
  // for the same unseen resolution compile it exactly once, and requests for
  // other resolutions briefly serialize behind it (bucket compiles are
  // O(IR) -- no weight packing -- so the hold is short; steady-state lookups
  // only touch the map).
  std::lock_guard<std::mutex> lock(root->bucket_mu_);
  auto it = root->shape_buckets_.find(input_hw);
  if (it == root->shape_buckets_.end()) {
    // The root counts as one bucket against the cap: reject when the
    // registry already holds max_shape_buckets resolutions in total.
    if (static_cast<std::int64_t>(root->shape_buckets_.size()) + 1 >=
        root->limits_.max_shape_buckets) {
      return Status::ResourceExhausted(
          "shape bucket count would exceed "
          "ResourceLimits::max_shape_buckets");
    }
    LCE_RETURN_IF_ERROR(
        ValidateShapeBucketRequest(root->graph_, input_hw, root->limits_));
    std::unique_ptr<CompiledModel> bucket;
    LCE_RETURN_IF_ERROR(BuildShapeVariant(*root, input_hw, &bucket));
    it = root->shape_buckets_.emplace(input_hw, std::move(bucket)).first;
    root->PublishBucketGaugesLocked();
  }
  // Aliasing constructor: the bucket is handed out under the root's
  // ownership, so a caller holding it keeps the root -- and with it the
  // registry that owns the bucket -- alive.
  *out = std::shared_ptr<const CompiledModel>(root, it->second.get());
  return Status::Ok();
}

std::vector<int> CompiledModel::ShapeBucketResolutions() const {
  const CompiledModel* root = Root();
  std::vector<int> out;
  out.push_back(root->input_hw());
  {
    std::lock_guard<std::mutex> lock(root->bucket_mu_);
    for (const auto& entry : root->shape_buckets_) out.push_back(entry.first);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CompiledModel::PublishBucketGaugesLocked() const {
  // Cross-bucket arena accounting (docs/SERVING.md): the high-water gauge is
  // the honest per-context resident figure when contexts cycle across
  // buckets; the unshared gauge is what pinning every bucket's arena at once
  // would cost. Published on every registration so the bench and the stats
  // page see the current bucket set.
  std::vector<std::size_t> arenas;
  arenas.push_back(arena_size_);
  for (const auto& entry : shape_buckets_) {
    arenas.push_back(entry.second->arena_size_);
  }
  const CrossBucketArena plan = PlanCrossBucketArena(arenas);
  auto& reg = telemetry::MetricsRegistry::Global();
  reg.Gauge("serving.shape_buckets")
      ->SetMax(static_cast<std::int64_t>(arenas.size()));
  reg.Gauge("planner.bucket_arena_high_water_bytes")
      ->SetMax(static_cast<std::int64_t>(plan.high_water));
  reg.Gauge("planner.bucket_arena_unshared_bytes")
      ->SetMax(static_cast<std::int64_t>(plan.unshared_sum));
}

Status CompiledModel::Build(CompileOptions options,
                            const CompiledModel* weight_source,
                            const std::vector<int>* node_map) {
  if (options.enable_tracing) telemetry::Tracer::Global().Enable();
  LCE_TRACE_SCOPE_CAT("compiled_model/compile", "interpreter");
  kernel_profile_ = options.kernel_profile;
  model_name_ = options.model_name.empty() ? "model" : options.model_name;
  limits_ = options.limits;
  node_histograms_enabled_ = options.enable_node_histograms;
  pool_ = options.thread_pool != nullptr
              ? std::move(options.thread_pool)
              : ThreadPool::Shared(options.num_threads);
  // Full semantic + resource validation up front. Everything after this --
  // memory planning, kernel construction, Invoke -- relies on the graph
  // being legal and within limits, so no further checks on model-derived
  // data are needed (or present) downstream.
  {
    LCE_TRACE_SCOPE_CAT("prepare/validate", "interpreter");
    LCE_RETURN_IF_ERROR(ValidateGraph(graph_, options.limits));
  }
  order_ = graph_.TopologicalOrder();
  if (static_cast<int>(order_.size()) != graph_.LiveNodeCount()) {
    return Status::Internal("graph contains a cycle");
  }
  {
  LCE_TRACE_SCOPE_CAT("prepare/plan", "interpreter");

  // Step index per node.
  std::vector<int> step(graph_.nodes().size(), -1);
  for (int i = 0; i < static_cast<int>(order_.size()); ++i) {
    step[order_[i]] = i;
  }
  const int num_steps = static_cast<int>(order_.size());

  // Lifetimes for every non-constant value touched by the live graph. The
  // validator guarantees alive values have alive producers and that every
  // per-tensor byte size is computable; the running total is still checked
  // here so the planner's offset arithmetic and the arena allocation below
  // stay bounded by the configured limit.
  std::vector<BufferRequest> requests;
  offsets_.assign(graph_.values().size(), 0);
  in_arena_.assign(graph_.values().size(), false);
  std::size_t total_bytes = 0;
  for (const auto& v : graph_.values()) {
    if (!v->alive || v->is_constant) continue;
    int first = v->producer >= 0 ? step[v->producer] : 0;
    if (v->producer >= 0 && step[v->producer] < 0) {
      // A live value whose producer was removed can never be written. It
      // must not be silently skipped: it would get no arena placement, and
      // in release builds (LCE_DCHECK compiled out) ValueTensor would hand
      // out a view at arena offset 0 aliasing whatever lives there. The
      // validator rejects such graphs, so reaching this is a rewrite or
      // validator bug -- refuse to build a plan around it.
      return Status::Internal("live value '" + v->name +
                              "' has a dead producer; refusing to plan "
                              "memory for an unwritable value");
    }
    int last = first;
    for (int c : v->consumers) {
      if (step[c] >= 0) last = std::max(last, step[c]);
    }
    const bool is_graph_output =
        std::find(graph_.output_ids().begin(), graph_.output_ids().end(),
                  v->id) != graph_.output_ids().end();
    const bool is_graph_input =
        std::find(graph_.input_ids().begin(), graph_.input_ids().end(),
                  v->id) != graph_.input_ids().end();
    if (is_graph_input) first = 0;
    // Graph outputs get an *exclusive* arena region (lifetime spanning the
    // whole execution) rather than one starting at their producer's step.
    // This is the serving layer's no-partial-writes guarantee: a request
    // cancelled mid-model can only have written intermediate values, never
    // the bytes a caller reads through output() -- those are touched
    // exclusively by the output's own producer node. Costs a few KiB of
    // arena (logit-sized tensors) in exchange for overload-safe semantics.
    if (is_graph_output) {
      first = 0;
      last = num_steps;
    }
    if (v->consumers.empty() && !is_graph_output) {
      // Value produced but never read; still needs storage for the write.
      last = first;
    }
    std::size_t bytes = 0;
    if (!Tensor::CheckedByteSize(v->dtype, v->shape, &bytes)) {
      return Status::Internal("tensor size overflow slipped past validation");
    }
    std::size_t aligned = 0;
    if (__builtin_add_overflow(bytes, kDefaultAlignment - 1, &aligned)) {
      return Status::ResourceExhausted("arena exceeds the resource limit");
    }
    aligned -= aligned % kDefaultAlignment;
    if (__builtin_add_overflow(total_bytes, aligned, &total_bytes) ||
        total_bytes > options.limits.max_arena_bytes) {
      return Status::ResourceExhausted("arena exceeds the resource limit");
    }
    requests.push_back({v->id, bytes, first, last});
  }
  const auto placements = PlanMemory(std::move(requests), kDefaultAlignment,
                                     &arena_size_);
  LCE_DCHECK(arena_size_ <= total_bytes);
  for (const auto& p : placements) {
    offsets_[p.id] = p.offset;
    in_arena_[p.id] = true;
  }
  // Arena accounting: the planned arena is the high-water mark of the
  // lifetime-shared plan; the unshared sum shows what sharing saved.
  telemetry::MetricsRegistry::Global()
      .Gauge("interpreter.arena_bytes")
      ->SetMax(static_cast<std::int64_t>(arena_size_));
  telemetry::MetricsRegistry::Global()
      .Gauge("planner.unshared_bytes")
      ->SetMax(static_cast<std::int64_t>(total_bytes));
  }  // prepare/plan

  // Prepare kernels. On a batch-variant build (weight_source != null) the
  // weight-bearing kernels are constructed as siblings of the mapped source
  // kernel: the expensive batch-invariant state (packed/bitpacked weights,
  // correction tables, output transforms) is shared by reference and only
  // the geometry-dependent state (indirection tables, tile plans) is
  // rebuilt for the batch-N geometry. Batch-agnostic kernels (the fully
  // connected pair, which read the batch from their input tensor at Run)
  // are aliased outright.
  LCE_TRACE_SCOPE_CAT("prepare/pack", "interpreter");
  std::size_t packed_weight_bytes = 0;
  kernels_.clear();
  kernels_.resize(graph_.nodes().size());
  for (int id : order_) {
    const Node& n = graph_.node(id);
    PreparedKernels& k = kernels_[id];
    const PreparedKernels* src = nullptr;
    if (weight_source != nullptr) {
      LCE_CHECK(node_map != nullptr &&
                id < static_cast<int>(node_map->size()));
      const int src_id = (*node_map)[id];
      LCE_CHECK(src_id >= 0 &&
                src_id < static_cast<int>(weight_source->kernels_.size()));
      src = &weight_source->kernels_[src_id];
    }
    switch (n.type) {
      case OpType::kConv2D: {
        Conv2DFloatAttrs attrs;
        attrs.geo = n.attrs.conv;
        attrs.activation = n.attrs.activation;
        attrs.bias = n.attrs.bias;
        if (src != nullptr) {
          k.conv = std::make_shared<Conv2DFloat>(*src->conv, std::move(attrs));
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        if (n.attrs.binarize_weights) {
          // Training dialect: the emulated binarized conv applies sign() to
          // its latent float weights at execution time.
          std::vector<float> signed_w(w.constant_data.num_elements());
          const float* wsrc = w.constant_data.data<float>();
          for (std::size_t i = 0; i < signed_w.size(); ++i) {
            signed_w[i] = SignValue(wsrc[i]);
          }
          k.conv = std::make_shared<Conv2DFloat>(signed_w.data(), attrs);
        } else {
          k.conv = std::make_shared<Conv2DFloat>(w.constant_data.data<float>(),
                                                 attrs);
        }
        break;
      }
      case OpType::kDepthwiseConv2D: {
        DepthwiseConv2DAttrs attrs;
        attrs.geo = n.attrs.conv;
        attrs.activation = n.attrs.activation;
        attrs.bias = n.attrs.bias;
        if (src != nullptr) {
          k.dwconv = std::make_shared<DepthwiseConv2DFloat>(*src->dwconv,
                                                            std::move(attrs));
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        k.dwconv = std::make_shared<DepthwiseConv2DFloat>(
            w.constant_data.data<float>(), attrs);
        break;
      }
      case OpType::kFullyConnected: {
        if (src != nullptr) {
          // Batch-agnostic (batch comes from the input tensor at Run):
          // the variant aliases the base kernel outright.
          k.fc = src->fc;
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        FullyConnectedAttrs attrs;
        attrs.in_features = n.attrs.fc_in_features;
        attrs.out_features = n.attrs.fc_out_features;
        attrs.activation = n.attrs.activation;
        attrs.bias = n.attrs.bias;
        if (n.attrs.binarize_weights) {
          // Training dialect: emulated binarized FC with sign()ed weights.
          std::vector<float> signed_w(w.constant_data.num_elements());
          const float* wsrc = w.constant_data.data<float>();
          for (std::size_t i = 0; i < signed_w.size(); ++i) {
            signed_w[i] = SignValue(wsrc[i]);
          }
          k.fc = std::make_shared<FullyConnectedFloat>(signed_w.data(), attrs);
        } else {
          k.fc = std::make_shared<FullyConnectedFloat>(
              w.constant_data.data<float>(), attrs);
        }
        break;
      }
      case OpType::kLceBFullyConnected: {
        if (src != nullptr) {
          k.bfc = src->bfc;  // batch-agnostic, aliased outright
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        BFullyConnectedAttrs attrs;
        attrs.in_features = n.attrs.fc_in_features;
        attrs.out_features = n.attrs.fc_out_features;
        attrs.pre_activation = n.attrs.pre_activation;
        attrs.multiplier = n.attrs.multiplier;
        attrs.bias = n.attrs.bias;
        if (w.dtype == DataType::kBitpacked) {
          k.bfc = std::make_shared<BFullyConnected>(
              w.constant_data.data<TBitpacked>(), attrs);
        } else {
          k.bfc = std::make_shared<BFullyConnected>(
              w.constant_data.data<float>(), attrs);
        }
        packed_weight_bytes += k.bfc->packed_weights_bytes();
        break;
      }
      case OpType::kConv2DInt8: {
        Conv2DInt8Attrs attrs;
        attrs.geo = n.attrs.conv;
        attrs.activation = n.attrs.activation;
        attrs.input_quant = n.attrs.input_quant;
        attrs.weight_quant = n.attrs.weight_quant;
        attrs.output_quant = n.attrs.output_quant;
        attrs.bias = n.attrs.bias_int32;
        attrs.weight_scales = n.attrs.weight_scales;
        if (src != nullptr) {
          k.conv_int8 =
              std::make_shared<Conv2DInt8>(*src->conv_int8, std::move(attrs));
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        k.conv_int8 = std::make_shared<Conv2DInt8>(
            w.constant_data.data<std::int8_t>(), attrs);
        break;
      }
      case OpType::kLceBConv2d: {
        BConv2DAttrs attrs;
        attrs.geo = n.attrs.conv;
        attrs.output_type = n.attrs.bconv_output;
        attrs.pre_activation = n.attrs.pre_activation;
        attrs.multiplier = n.attrs.multiplier;
        attrs.bias = n.attrs.bias;
        if (src != nullptr) {
          k.bconv = std::make_shared<BConv2D>(*src->bconv, std::move(attrs));
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        if (w.dtype == DataType::kBitpacked) {
          k.bconv = std::make_shared<BConv2D>(
              w.constant_data.data<TBitpacked>(), attrs);
        } else {
          k.bconv = std::make_shared<BConv2D>(w.constant_data.data<float>(),
                                              attrs);
        }
        packed_weight_bytes += k.bconv->packed_weights_bytes();
        break;
      }
      default:
        break;  // stateless ops
    }
  }
  // Variants report 0 resident weight bytes: everything they hold is an
  // alias of the base model's packed weights (asserted flat by the serving
  // bench's across-variant check).
  packed_weight_bytes_ = weight_source == nullptr ? packed_weight_bytes : 0;
  if (options.enable_node_histograms) {
    // One latency histogram per node, namespaced by model: the serving
    // layer's per-model per-node attribution (table 4 / fig. 5 style
    // breakdowns, but live and mergeable across requests). Pointers are
    // registry-owned and process-lifetime stable.
    node_histograms_.assign(graph_.nodes().size(), nullptr);
    for (int id : order_) {
      const Node& n = graph_.node(id);
      node_histograms_[id] = telemetry::MetricsRegistry::Global().Histogram(
          "node." + model_name_ + "." + n.name + "_ns");
    }
  }
  if (packed_weight_bytes > 0) {
    // One bitpacked word (4 bytes) stands in for 32 float weights (128
    // bytes) -- the paper's 32x binary weight compression. The high-water
    // gauges describe one model; the resident gauge sums across models.
    telemetry::MetricsRegistry::Global()
        .Gauge("weights.packed_binary_bytes")
        ->SetMax(static_cast<std::int64_t>(packed_weight_bytes));
    telemetry::MetricsRegistry::Global()
        .Gauge("weights.float_equivalent_bytes")
        ->SetMax(static_cast<std::int64_t>(packed_weight_bytes) * 32);
    ResidentPackedBytes()->Add(static_cast<std::int64_t>(packed_weight_bytes));
  }
  return Status::Ok();
}

ExecutionContext::ExecutionContext(std::shared_ptr<const CompiledModel> model,
                                   ExecutionOptions options)
    : model_(std::move(model)),
      options_(std::move(options)),
      ctx_(model_->thread_pool(), model_->kernel_profile()) {
  // The arena is runtime load, not model structure: allocation failure
  // (memory pressure, or the LCE_FAULT_INJECTION arena fault point) leaves
  // an inert context whose Invoke reports Status::ResourceExhausted instead
  // of aborting the process -- the serving pool sheds the request and
  // retries context creation later (docs/SERVING.md).
  try {
    if (!LCE_FAULT_ARENA_ALLOC_SHOULD_FAIL()) {
      arena_ = AlignedBuffer(model_->arena_bytes());
      arena_ok_ = true;
    }
  } catch (const std::bad_alloc&) {
    arena_ = AlignedBuffer();
  }
  LiveExecutionContexts()->Add(1);
  ResidentArenaBytes()->Add(static_cast<std::int64_t>(arena_.size()));
}

ExecutionContext::~ExecutionContext() {
  LiveExecutionContexts()->Add(-1);
  ResidentArenaBytes()->Add(-static_cast<std::int64_t>(arena_.size()));
}

Tensor ExecutionContext::ValueTensor(int value_id) {
  const Value& v = model_->graph_.value(value_id);
  if (v.is_constant) {
    // Constants are read-only at runtime; the view is never written through.
    return Tensor::View(v.dtype, v.shape,
                        const_cast<void*>(v.constant_data.raw_data()));
  }
  LCE_DCHECK(model_->in_arena_[value_id]);
  return Tensor::View(v.dtype, v.shape,
                      arena_.data() + model_->offsets_[value_id]);
}

namespace {

// Lane i's dim-0 slice of a batched tensor: shape [1, ...rest] at byte
// offset i * bytes([1, ...rest]). Valid for every dtype including
// bitpacked, whose packing along the innermost dimension keeps per-lane
// byte sizes proportional to the leading dimension.
Tensor LaneSlice(Tensor full, int lane) {
  Shape s = full.shape();
  LCE_CHECK(s.rank() >= 1 && lane >= 0 && lane < s.dim(0));
  s.dim(0) = 1;
  std::size_t lane_bytes = 0;
  LCE_CHECK(Tensor::CheckedByteSize(full.dtype(), s, &lane_bytes));
  return Tensor::View(full.dtype(), s,
                      static_cast<std::uint8_t*>(full.raw_data()) +
                          lane_bytes * static_cast<std::size_t>(lane));
}

}  // namespace

Tensor ExecutionContext::input(int i) {
  LCE_CHECK(arena_ok_ && "input() on a context whose arena allocation failed");
  Tensor full = ValueTensor(model_->graph_.input_ids()[i]);
  return io_lane_ < 0 ? full : LaneSlice(std::move(full), io_lane_);
}

Tensor ExecutionContext::output(int i) {
  LCE_CHECK(arena_ok_ &&
            "output() on a context whose arena allocation failed");
  Tensor full = ValueTensor(model_->graph_.output_ids()[i]);
  return io_lane_ < 0 ? full : LaneSlice(std::move(full), io_lane_);
}

void ExecutionContext::set_io_lane(int lane) {
  LCE_CHECK(lane >= -1 && lane < model_->batch_);
  io_lane_ = lane;
}

void ExecutionContext::Reset() {
  arena_.Zero();
  profile_.clear();
  io_lane_ = -1;
}

void ExecutionContext::RunNode(const Node& n, OpProfile* prof) {
  Tensor out = ValueTensor(n.outputs[0]);
  const auto& kernels = model_->kernels_;
  switch (n.type) {
    case OpType::kConv2D: {
      Tensor in = ValueTensor(n.inputs[0]);
      kernels[n.id].conv->Run(in, out, ctx_);
      break;
    }
    case OpType::kDepthwiseConv2D: {
      Tensor in = ValueTensor(n.inputs[0]);
      kernels[n.id].dwconv->Run(in, out);
      break;
    }
    case OpType::kFullyConnected: {
      Tensor in = ValueTensor(n.inputs[0]);
      kernels[n.id].fc->Run(in, out, ctx_);
      break;
    }
    case OpType::kLceBFullyConnected: {
      Tensor in = ValueTensor(n.inputs[0]);
      kernels[n.id].bfc->Run(in, out, ctx_);
      break;
    }
    case OpType::kLceBConv2d: {
      Tensor in = ValueTensor(n.inputs[0]);
      kernels[n.id].bconv->Run(in, out, ctx_,
                               prof != nullptr ? &prof->bconv : nullptr);
      break;
    }
    case OpType::kFakeSign: {
      Tensor in = ValueTensor(n.inputs[0]);
      const float* src = in.data<float>();
      float* dst = out.data<float>();
      const std::int64_t count = in.num_elements();
      for (std::int64_t i = 0; i < count; ++i) dst[i] = SignValue(src[i]);
      break;
    }
    case OpType::kBatchNorm: {
      Tensor in = ValueTensor(n.inputs[0]);
      BatchNormFloat(in, n.attrs.bn_scale, n.attrs.bn_offset, out);
      break;
    }
    case OpType::kRelu: {
      Tensor in = ValueTensor(n.inputs[0]);
      ReluFloat(in, out);
      break;
    }
    case OpType::kPRelu: {
      Tensor in = ValueTensor(n.inputs[0]);
      const int c = static_cast<int>(in.shape().dim(in.shape().rank() - 1));
      const std::int64_t outer = in.num_elements() / c;
      const float* src = in.data<float>();
      float* dst = out.data<float>();
      const float* slope = n.attrs.prelu_slope.data();
      for (std::int64_t r = 0; r < outer; ++r) {
        for (int j = 0; j < c; ++j) {
          const float v = src[r * c + j];
          dst[r * c + j] = v > 0.0f ? v : v * slope[j];
        }
      }
      break;
    }
    case OpType::kMaxPool2D: {
      Tensor in = ValueTensor(n.inputs[0]);
      MaxPool2DFloat(in, n.attrs.pool, out);
      break;
    }
    case OpType::kAvgPool2D: {
      Tensor in = ValueTensor(n.inputs[0]);
      AvgPool2DFloat(in, n.attrs.pool, out);
      break;
    }
    case OpType::kGlobalAvgPool: {
      Tensor in = ValueTensor(n.inputs[0]);
      GlobalAvgPoolFloat(in, out);
      break;
    }
    case OpType::kAdd: {
      Tensor a = ValueTensor(n.inputs[0]);
      Tensor b = ValueTensor(n.inputs[1]);
      AddFloat(a, b, n.attrs.activation, out);
      break;
    }
    case OpType::kSoftmax: {
      Tensor in = ValueTensor(n.inputs[0]);
      SoftmaxFloat(in, out);
      break;
    }
    case OpType::kConcat: {
      // Channel-axis concat: interleave per spatial position.
      const Shape& os = out.shape();
      const std::int64_t outer = os.dim(0) * os.dim(1) * os.dim(2);
      const int out_c = static_cast<int>(os.dim(3));
      float* dst = out.data<float>();
      int offset = 0;
      for (int in_id : n.inputs) {
        Tensor in = ValueTensor(in_id);
        const int c = static_cast<int>(in.shape().dim(3));
        const float* src = in.data<float>();
        for (std::int64_t r = 0; r < outer; ++r) {
          std::memcpy(dst + r * out_c + offset, src + r * c,
                      static_cast<std::size_t>(c) * sizeof(float));
        }
        offset += c;
      }
      break;
    }
    case OpType::kSlice: {
      Tensor in = ValueTensor(n.inputs[0]);
      const int c = static_cast<int>(in.shape().dim(3));
      const std::int64_t outer = in.num_elements() / c;
      const float* src = in.data<float>();
      float* dst = out.data<float>();
      const int begin = n.attrs.slice_begin, count = n.attrs.slice_count;
      for (std::int64_t r = 0; r < outer; ++r) {
        std::memcpy(dst + r * count, src + r * c + begin,
                    static_cast<std::size_t>(count) * sizeof(float));
      }
      break;
    }
    case OpType::kMulChannel: {
      Tensor x = ValueTensor(n.inputs[0]);
      Tensor gate = ValueTensor(n.inputs[1]);
      const Shape& xs = x.shape();
      const int batch = static_cast<int>(xs.dim(0));
      const std::int64_t hw = xs.dim(1) * xs.dim(2);
      const int c = static_cast<int>(xs.dim(3));
      const float* px = x.data<float>();
      const float* pg = gate.data<float>();
      float* po = out.data<float>();
      for (int b = 0; b < batch; ++b) {
        const float* gb = pg + static_cast<std::int64_t>(b) * c;
        for (std::int64_t p = 0; p < hw; ++p) {
          const std::int64_t base = (b * hw + p) * c;
          for (int i = 0; i < c; ++i) po[base + i] = px[base + i] * gb[i];
        }
      }
      break;
    }
    case OpType::kConv2DInt8: {
      Tensor in = ValueTensor(n.inputs[0]);
      kernels[n.id].conv_int8->Run(in, out, ctx_);
      break;
    }
    case OpType::kQuantizeInt8: {
      Tensor in = ValueTensor(n.inputs[0]);
      const float* src = in.data<float>();
      std::int8_t* dst = out.data<std::int8_t>();
      const QuantParams& q = n.attrs.output_quant;
      const std::int64_t count = in.num_elements();
      for (std::int64_t i = 0; i < count; ++i) dst[i] = QuantizeValue(src[i], q);
      break;
    }
    case OpType::kDequantizeInt8: {
      Tensor in = ValueTensor(n.inputs[0]);
      const std::int8_t* src = in.data<std::int8_t>();
      float* dst = out.data<float>();
      const QuantParams& q = n.attrs.input_quant;
      const std::int64_t count = in.num_elements();
      for (std::int64_t i = 0; i < count; ++i) dst[i] = DequantizeValue(src[i], q);
      break;
    }
    case OpType::kLceQuantize: {
      Tensor in = ValueTensor(n.inputs[0]);
      LceQuantize(in, out);
      break;
    }
    case OpType::kLceDequantize: {
      Tensor in = ValueTensor(n.inputs[0]);
      LceDequantize(in, out);
      break;
    }
    case OpType::kLceBMaxPool2d: {
      Tensor in = ValueTensor(n.inputs[0]);
      LceBMaxPool2d(in, n.attrs.pool, out);
      break;
    }
  }
}

Status ExecutionContext::Invoke(const CancellationToken* cancel) {
  telemetry::TraceScope invoke_scope("interpreter/invoke", "interpreter");
  if (request_id_ != 0) invoke_scope.AddArg("req", request_id_);
  if (!arena_ok_) {
    return Status::ResourceExhausted(
        "execution context arena allocation failed");
  }
  profile_.clear();
  nodes_executed_ = 0;
  // Publish the token to the gemm context so long-running kernels (the
  // ConvPipeline engine) can poll it at row-tile-block boundaries; cleared
  // on every exit path so a pooled context never leaks a dead request's
  // token into the next Invoke.
  ctx_.set_cancellation(cancel);
  struct TokenClearer {
    gemm::Context& ctx;
    ~TokenClearer() { ctx.set_cancellation(nullptr); }
  } token_clearer{ctx_};
  const bool profiling = options_.enable_profiling;
  const bool tracing = telemetry::TracingActive();
  const bool node_hist = !model_->node_histograms_.empty();
  int step = 0;
  for (int id : model_->order_) {
    // Cancellation point: per-node boundary. The post-loop check below
    // covers expiry during the final node (including a pipeline that
    // early-exited mid-kernel, leaving that node's output unspecified).
    if (cancel != nullptr && cancel->Expired()) return cancel->status();
#ifdef LCE_FAULT_INJECTION
    {
      Status injected = serving::fault::FaultInjector::Global().OnNode(step);
      if (!injected.ok()) return injected;
    }
#endif
    const Node& n = model_->graph_.node(id);
    ++nodes_executed_;
    try {
      if (profiling || tracing || node_hist) {
        // One timestamp pair drives the tracer span, the OpProfile record
        // and the per-node latency histogram, so Table 4 / Figure 5
        // aggregation, the Chrome trace and the serving stats are three
        // views of the same measurement.
        OpProfile prof;
        const std::uint64_t t0 = telemetry::NowNanos();
        RunNode(n, profiling ? &prof : nullptr);
        const std::uint64_t t1 = telemetry::NowNanos();
        if (tracing) {
          // The "req" argument joins this node span with its request's
          // queue_wait / execute / invoke spans across Perfetto tracks.
          telemetry::Tracer::Global().RecordCompleteWithArg(
              n.name.c_str(), "node", t0, t1,
              request_id_ != 0 ? "req" : nullptr, request_id_);
        }
        if (node_hist && model_->node_histograms_[id] != nullptr) {
          model_->node_histograms_[id]->Record(
              static_cast<std::int64_t>(t1 - t0));
        }
        if (profiling) {
          prof.node_id = id;
          prof.name = n.name;
          prof.type = n.type;
          prof.is_binary_op = IsBinaryOp(n.type);
          prof.seconds = static_cast<double>(t1 - t0) * 1e-9;
          profile_.push_back(std::move(prof));
        }
      } else {
        RunNode(n, nullptr);
      }
    } catch (const std::bad_alloc&) {
      // Kernel scratch allocation failed (gemm::Context::Scratch). Load
      // shedding, not a programmer error: report and let the caller retry
      // or shed -- the arena and this context remain structurally valid but
      // the run's intermediate state is abandoned.
      return Status::ResourceExhausted("kernel scratch allocation failed at '" +
                                       n.name + "'");
    }
    if (options_.observer) {
      options_.observer(n, ValueTensor(n.outputs[0]));
    }
    ++step;
  }
  if (cancel != nullptr && cancel->Expired()) return cancel->status();
  return Status::Ok();
}

void ExecutionContext::Invoke() {
  const Status s = Invoke(nullptr);
  LCE_CHECK(s.ok() &&
            "ExecutionContext::Invoke failed; serving callers must use the "
            "Status-returning overload");
}

}  // namespace lce
