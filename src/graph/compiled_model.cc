#include "graph/compiled_model.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "core/bitpack.h"
#include "core/macros.h"
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

// Dim 0 of graph input 0 and the spatial extent of the first rank-4 input.
InputSignature GraphSignature(const Graph& g) {
  InputSignature sig;
  if (g.input_ids().empty()) return sig;
  const Shape& first = g.value(g.input_ids().front()).shape;
  if (first.rank() >= 1) sig.batch = static_cast<int>(first.dim(0));
  for (const int vid : g.input_ids()) {
    const Shape& s = g.value(vid).shape;
    if (s.rank() == 4) {
      sig.h = static_cast<int>(s.dim(1));
      sig.w = static_cast<int>(s.dim(2));
      break;
    }
  }
  return sig;
}

// Concat inputs written in place (docs/PERFORMANCE.md). The planner may
// place a Concat input inside the Concat's output -- a channel slice whose
// rows are the output's row stride apart -- only when the kernel that
// writes it and every other kernel that reads it take a row stride. These
// two lists are that contract; RunNode hands a strided view to no other op.
//
// Writers: the float BConv2D's output transform (ConvPipelineArgs::
// out_stride), the float convolution (FloatGemm's ldo), the float max pool,
// and a Concat, which copies the inputs it does not host row by row.
bool WritesStridedSlice(const Node& n) {
  switch (n.type) {
    case OpType::kLceBConv2d:
      return n.attrs.bconv_output == BConvOutputType::kFloat;
    case OpType::kConv2D:
    case OpType::kMaxPool2D:
    case OpType::kConcat:
      return true;
    default:
      return false;
  }
}

// Readers: LceQuantize (BitpackMatrix over a strided source) and a Concat.
bool ReadsStridedSlice(OpType t) {
  return t == OpType::kLceQuantize || t == OpType::kConcat;
}

// Whether Concat `n` may host its input `a`, given that neither is a graph
// input, output or constant and no earlier Concat hosts `a`: `a` appears
// once among n's inputs (not Concat({y, y})), its producer writes strided
// and its other live consumers read strided.
bool CanHostConcatInput(const Graph& g, const Node& n, int a,
                        const std::vector<int>& step) {
  const Value& v = g.value(a);
  return std::count(n.inputs.begin(), n.inputs.end(), a) == 1 &&
         v.producer >= 0 && WritesStridedSlice(g.node(v.producer)) &&
         std::all_of(v.consumers.begin(), v.consumers.end(), [&](int c) {
           return c == n.id || step[c] < 0 ||
                  ReadsStridedSlice(g.node(c).type);
         });
}

// Copies each row of the float `src` into channels [channel, channel +
// src's channels) of the same row of `dst`, both through their row
// strides: a Concat's copy of an input it does not host, and an observer's
// dense copy of a hosted value.
void CopyChannels(const Tensor& src, int channel, Tensor& dst) {
  const Shape& s = src.shape();
  const std::int64_t rows = s.dim(0) * s.dim(1) * s.dim(2);
  const auto bytes = static_cast<std::size_t>(s.dim(3)) * sizeof(float);
  const float* from = src.data<float>();
  float* to = dst.data<float>() + channel;
  const std::int64_t from_stride = src.row_stride();
  const std::int64_t to_stride = dst.row_stride();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::memcpy(to + r * to_stride, from + r * from_stride, bytes);
  }
}

}  // namespace

CompiledModel::CompiledModel(const Graph& graph) : graph_(graph) {}

CompiledModel::CompiledModel(std::unique_ptr<const Graph> owned_graph,
                             const CompiledModel* root)
    : graph_(*owned_graph), owned_graph_(std::move(owned_graph)), base_(root) {}

CompiledModel::~CompiledModel() {
  ResidentPackedBytes()->Add(-static_cast<std::int64_t>(packed_weight_bytes_));
}

Status CompiledModel::Compile(const Graph& graph, CompileOptions options,
                              std::shared_ptr<const CompiledModel>* out) {
  LCE_CHECK(out != nullptr);
  // Build into a private instance: a failed compile leaves `*out` untouched
  // and the partially-built arena plan / kernel state dies here, so retrying
  // after a failure always starts from a clean slate.
  std::shared_ptr<CompiledModel> model(new CompiledModel(graph));
  LCE_RETURN_IF_ERROR(model->Build(std::move(options), nullptr, nullptr));
  *out = std::move(model);
  return Status::Ok();
}

Status CompiledModel::Specialize(
    const std::shared_ptr<const CompiledModel>& root, InputSignature sig,
    std::shared_ptr<const CompiledModel>* out) {
  return Resolve(root, sig, /*compile=*/true, out);
}

Status CompiledModel::Lookup(const std::shared_ptr<const CompiledModel>& root,
                             InputSignature sig,
                             std::shared_ptr<const CompiledModel>* out) {
  return Resolve(root, sig, /*compile=*/false, out);
}

Status CompiledModel::GetOrCompileShapeBucket(
    const std::shared_ptr<const CompiledModel>& root, int input_hw,
    std::shared_ptr<const CompiledModel>* out) {
  return Specialize(root, {1, input_hw, input_hw}, out);
}

Status CompiledModel::Resolve(const std::shared_ptr<const CompiledModel>& root,
                              InputSignature sig, bool compile,
                              std::shared_ptr<const CompiledModel>* out) {
  LCE_CHECK(root != nullptr && out != nullptr);
  if (root->base_ != nullptr) {
    return Status::InvalidArgument(
        "specializations are registered on the root model, not on another "
        "specialization");
  }
  if (sig.h == 0 && sig.w == 0) {
    sig.h = root->signature_.h;
    sig.w = root->signature_.w;
  }
  if (sig == root->signature_) {
    *out = root;
    return Status::Ok();
  }
  // Compilation happens under the registry lock: concurrent first requests
  // for the same unseen signature compile it exactly once, and requests for
  // other signatures briefly serialize behind it (the compile is O(IR) --
  // no weight packing -- so the hold is short; steady-state lookups only
  // touch the map).
  std::lock_guard<std::mutex> lock(root->registry_mu_);
  auto it = root->registry_.find(sig);
  if (it == root->registry_.end()) {
    if (!compile) {
      return Status::InvalidArgument("no compiled specialization for " +
                                     sig.ToString());
    }
    const std::set<std::pair<int, int>> shapes = root->ShapesLocked();
    if (!shapes.contains({sig.h, sig.w}) &&
        static_cast<std::int64_t>(shapes.size()) >=
            root->limits_.max_shape_buckets) {
      return Status::ResourceExhausted(
          "shape bucket count would exceed "
          "ResourceLimits::max_shape_buckets");
    }
    LCE_RETURN_IF_ERROR(
        ValidateShapeBucketRequest(root->graph_, sig, root->limits_));
    std::unique_ptr<CompiledModel> model;
    LCE_RETURN_IF_ERROR(root->BuildSpecialization(sig, &model));
    it = root->registry_.emplace(sig, std::move(model)).first;
    root->PublishRegistryGaugesLocked();
  }
  // Aliasing constructor: the specialization is handed out under the
  // root's ownership, so a caller holding it keeps the root -- and with it
  // the registry that owns the specialization -- alive.
  *out = std::shared_ptr<const CompiledModel>(root, it->second.get());
  return Status::Ok();
}

Status CompiledModel::BuildSpecialization(
    InputSignature sig, std::unique_ptr<CompiledModel>* out) const {
  // Every graph input takes the new batch; image inputs take the new
  // spatial extent unless it is the root's own, so a batch-only
  // specialization leaves every input's H and W alone.
  const bool resize = sig.h != signature_.h || sig.w != signature_.w;
  std::vector<Shape> shapes;
  shapes.reserve(graph_.input_ids().size());
  for (const int vid : graph_.input_ids()) {
    Shape shape = graph_.value(vid).shape;
    shape.dim(0) = sig.batch;
    if (resize && shape.rank() == 4) {
      shape.dim(1) = sig.h;
      shape.dim(2) = sig.w;
    }
    shapes.push_back(shape);
  }
  std::unique_ptr<Graph> clone;
  std::vector<int> node_map;
  LCE_RETURN_IF_ERROR(
      CloneGraphWithInputShapes(graph_, shapes, &clone, &node_map));
  for (const int vid : clone->output_ids()) {
    const Value& v = clone->value(vid);
    if (v.shape.rank() < 1 || v.shape.dim(0) != sig.batch) {
      // Lane slicing needs dim 0 == batch on every output; an op that folds
      // or reorders the batch dimension cannot be batched this way.
      return Status::InvalidArgument(
          "specialization " + sig.ToString() + " output '" + v.name +
          "' does not carry the batch dimension; model cannot be batched");
    }
  }
  // Same profile, name, limits and histogram setting as the root (Build
  // takes the root's pool from the weight source): a specialization is the
  // same model at another signature, and its per-node histograms
  // intentionally merge with the root's.
  CompileOptions options;
  options.kernel_profile = kernel_profile_;
  options.model_name = model_name_;
  options.enable_node_histograms = node_histograms_enabled_;
  options.limits = limits_;
  std::unique_ptr<CompiledModel> model(
      new CompiledModel(std::move(clone), this));
  LCE_RETURN_IF_ERROR(model->Build(std::move(options), this, &node_map));
  *out = std::move(model);
  return Status::Ok();
}

std::vector<int> CompiledModel::ShapeBucketResolutions() const {
  const CompiledModel* root = base_ != nullptr ? base_ : this;
  std::vector<int> out;
  if (root->signature_.h == root->signature_.w) {
    out.push_back(root->signature_.h);
  }
  {
    std::lock_guard<std::mutex> lock(root->registry_mu_);
    for (const auto& [sig, model] : root->registry_) {
      if (sig.batch == 1 && sig.h == sig.w) out.push_back(sig.h);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int CompiledModel::shape_bucket_count() const {
  const CompiledModel* root = base_ != nullptr ? base_ : this;
  std::lock_guard<std::mutex> lock(root->registry_mu_);
  return static_cast<int>(root->ShapesLocked().size());
}

std::set<std::pair<int, int>> CompiledModel::ShapesLocked() const {
  std::set<std::pair<int, int>> shapes{{signature_.h, signature_.w}};
  for (const auto& entry : registry_) {
    shapes.emplace(entry.first.h, entry.first.w);
  }
  return shapes;
}

void CompiledModel::PublishRegistryGaugesLocked() const {
  // Cross-bucket arena accounting (docs/SERVING.md) over the batch-1
  // entries: the high-water gauge is the honest per-context resident
  // figure when contexts cycle across buckets; the unshared gauge is what
  // pinning every bucket's arena at once would cost. Published on every
  // registration so the bench and the stats page see the current set.
  std::vector<std::size_t> arenas;
  arenas.push_back(arena_size_);
  for (const auto& [sig, model] : registry_) {
    if (sig.batch == 1) arenas.push_back(model->arena_size_);
  }
  const CrossBucketArena plan = PlanCrossBucketArena(arenas);
  auto& reg = telemetry::MetricsRegistry::Global();
  reg.Gauge("serving.shape_buckets")
      ->SetMax(static_cast<std::int64_t>(ShapesLocked().size()));
  reg.Gauge("planner.bucket_arena_high_water_bytes")
      ->SetMax(static_cast<std::int64_t>(plan.high_water));
  reg.Gauge("planner.bucket_arena_unshared_bytes")
      ->SetMax(static_cast<std::int64_t>(plan.unshared_sum));
}

Status CompiledModel::Build(CompileOptions options,
                            const CompiledModel* weight_source,
                            const std::vector<int>* node_map) {
  LCE_TRACE_SCOPE_CAT("compiled_model/compile", "interpreter");
  signature_ = GraphSignature(graph_);
  kernel_profile_ = options.kernel_profile;
  model_name_ = options.model_name.empty() ? "model" : options.model_name;
  limits_ = options.limits;
  node_histograms_enabled_ = options.enable_node_histograms;
  pool_ = weight_source != nullptr ? weight_source->pool_
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

  // Lifetimes [first, last] of every non-constant value touched by the live
  // graph. The validator guarantees alive values have alive producers and
  // that every per-tensor byte size is computable; the running total is
  // still checked below so the planner's offset arithmetic and the arena
  // allocation stay bounded by the configured limit.
  const std::size_t num_values = graph_.values().size();
  std::vector<int> first(num_values, 0), last(num_values, 0);
  std::vector<bool> is_io(num_values, false);
  placements_.assign(num_values, {});
  for (const auto& v : graph_.values()) {
    if (!v->alive || v->is_constant) continue;
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
    int& f = first[v->id];
    int& l = last[v->id];
    f = v->producer >= 0 ? step[v->producer] : 0;
    l = f;
    for (int c : v->consumers) {
      if (step[c] >= 0) l = std::max(l, step[c]);
    }
    const bool is_graph_output =
        std::find(graph_.output_ids().begin(), graph_.output_ids().end(),
                  v->id) != graph_.output_ids().end();
    const bool is_graph_input =
        std::find(graph_.input_ids().begin(), graph_.input_ids().end(),
                  v->id) != graph_.input_ids().end();
    is_io[v->id] = is_graph_input || is_graph_output;
    if (is_graph_input) f = 0;
    // Graph outputs get an *exclusive* arena region (lifetime spanning the
    // whole execution) rather than one starting at their producer's step.
    // This is the serving layer's no-partial-writes guarantee: a request
    // cancelled mid-model can only have written intermediate values, never
    // the bytes a caller reads through output() -- those are touched
    // exclusively by the output's own producer node. Costs a few KiB of
    // arena (logit-sized tensors) in exchange for overload-safe semantics.
    if (is_graph_output) {
      f = 0;
      l = num_steps;
    }
    if (v->consumers.empty() && !is_graph_output) {
      // Value produced but never read; still needs storage for the write.
      l = f;
    }
    placements_[v->id].in_arena = true;
  }

  // Concat inputs written in place (docs/PERFORMANCE.md): each Concat, in
  // execution order, hosts the inputs that pass CanHostConcatInput and that
  // no earlier Concat hosts. Graph inputs and outputs are never hosted nor
  // hosts, which keeps output() bytes exclusive to their producer.
  std::vector<int> channel_offset(num_values, 0);
  for (const int id : order_) {
    const Node& n = graph_.node(id);
    if (n.type != OpType::kConcat || is_io[n.outputs[0]]) continue;
    int channel = 0;
    for (const int a : n.inputs) {
      const Value& v = graph_.value(a);
      if (!v.is_constant && !is_io[a] && placements_[a].host < 0 &&
          CanHostConcatInput(graph_, n, a, step)) {
        placements_[a].host = n.outputs[0];
        channel_offset[a] = channel;
      }
      channel += static_cast<int>(v.shape.dim(3));
    }
  }
  // Hosting nests: a hosted value's outermost host (its root) holds the
  // bytes, at the summed channel offset, and lives from the first write of
  // any of its members to the last read of any.
  std::vector<int> root(num_values, -1), root_channel(num_values, 0);
  hosted_bytes_ = 0;
  for (const auto& v : graph_.values()) {
    if (placements_[v->id].host < 0) continue;
    int r = v->id;
    while (placements_[r].host >= 0) {
      root_channel[v->id] += channel_offset[r];
      r = placements_[r].host;
    }
    root[v->id] = r;
    first[r] = std::min(first[r], first[v->id]);
    last[r] = std::max(last[r], last[v->id]);
    hosted_bytes_ += Tensor::ByteSize(v->dtype, v->shape);
  }

  std::vector<BufferRequest> requests;
  std::size_t total_bytes = 0;
  for (const auto& v : graph_.values()) {
    if (!placements_[v->id].in_arena || root[v->id] >= 0) continue;
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
    requests.push_back({v->id, bytes, first[v->id], last[v->id]});
  }
  const auto planned = PlanMemory(std::move(requests), kDefaultAlignment,
                                  &arena_size_);
  LCE_DCHECK(arena_size_ <= total_bytes);
  for (const auto& p : planned) placements_[p.id].offset = p.offset;
  for (const auto& v : graph_.values()) {
    const int r = root[v->id];
    if (r < 0) continue;
    ValuePlacement& p = placements_[v->id];
    p.offset = placements_[r].offset +
               static_cast<std::size_t>(root_channel[v->id]) * sizeof(float);
    p.row_stride = graph_.value(r).shape.dim(3);
  }
  // Arena accounting: the planned arena is the high-water mark of the
  // lifetime-shared plan; the unshared sum shows what sharing saved, and
  // the hosted bytes what writing Concat inputs in place saved.
  auto& reg = telemetry::MetricsRegistry::Global();
  reg.Gauge("interpreter.arena_bytes")
      ->SetMax(static_cast<std::int64_t>(arena_size_));
  reg.Gauge("planner.unshared_bytes")
      ->SetMax(static_cast<std::int64_t>(total_bytes));
  reg.Gauge("planner.hosted_bytes")
      ->SetMax(static_cast<std::int64_t>(hosted_bytes_));
  }  // prepare/plan

  // Build kernels. On a specialization build (weight_source != null) the
  // weight-bearing kernels are constructed as siblings of the mapped source
  // kernel: the expensive geometry-invariant state (packed/bitpacked
  // weights, correction tables, output transforms) is shared by reference
  // and only the geometry-dependent state (the binary kernels' indirection
  // tables, tile plans) is rebuilt for the specialized geometry.
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
      case OpType::kConv2D:
      case OpType::kFullyConnected: {
        // A fully connected layer runs as the 1x1 convolution over its
        // [batch, in] input; its [out][in] weights are OHWI [out][1][1][in].
        Conv2DFloatAttrs attrs;
        attrs.geo = n.attrs.conv;
        if (n.type == OpType::kFullyConnected) {
          attrs.geo = FullyConnectedGeometry(
              static_cast<int>(graph_.value(n.inputs[0]).shape.dim(0)),
              n.attrs.fc_in_features, n.attrs.fc_out_features);
        }
        attrs.activation = n.attrs.activation;
        attrs.bias = n.attrs.bias;
        if (src != nullptr) {
          k.conv = std::make_unique<Conv2DFloat>(*src->conv, std::move(attrs));
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        if (n.attrs.binarize_weights) {
          // Training dialect: the emulated binarized conv / FC applies sign()
          // to its latent float weights at execution time.
          std::vector<float> signed_w(w.constant_data.num_elements());
          const float* wsrc = w.constant_data.data<float>();
          for (std::size_t i = 0; i < signed_w.size(); ++i) {
            signed_w[i] = SignValue(wsrc[i]);
          }
          k.conv = std::make_unique<Conv2DFloat>(signed_w.data(), attrs);
        } else {
          k.conv = std::make_unique<Conv2DFloat>(w.constant_data.data<float>(),
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
          k.dwconv = std::make_unique<DepthwiseConv2DFloat>(*src->dwconv,
                                                            std::move(attrs));
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        k.dwconv = std::make_unique<DepthwiseConv2DFloat>(
            w.constant_data.data<float>(), attrs);
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
              std::make_unique<Conv2DInt8>(*src->conv_int8, std::move(attrs));
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        k.conv_int8 = std::make_unique<Conv2DInt8>(
            w.constant_data.data<std::int8_t>(), attrs);
        break;
      }
      case OpType::kLceBConv2d:
      case OpType::kLceBFullyConnected: {
        // A binary fully connected layer runs as the 1x1 BConv2D over its
        // [batch, in] input, with float output; its [out][in] weights are
        // OHWI [out][1][1][in].
        BConv2DAttrs attrs;
        attrs.geo = n.attrs.conv;
        attrs.output_type = n.attrs.bconv_output;
        if (n.type == OpType::kLceBFullyConnected) {
          attrs.geo = FullyConnectedGeometry(
              static_cast<int>(graph_.value(n.inputs[0]).shape.dim(0)),
              n.attrs.fc_in_features, n.attrs.fc_out_features);
          attrs.output_type = BConvOutputType::kFloat;
        }
        attrs.pre_activation = n.attrs.pre_activation;
        attrs.multiplier = n.attrs.multiplier;
        attrs.bias = n.attrs.bias;
        if (src != nullptr) {
          k.bconv = std::make_unique<BConv2D>(*src->bconv, std::move(attrs));
          break;
        }
        const Value& w = graph_.value(n.inputs[1]);
        LCE_DCHECK(w.is_constant);
        if (w.dtype == DataType::kBitpacked) {
          k.bconv = std::make_unique<BConv2D>(
              w.constant_data.data<TBitpacked>(), attrs);
        } else {
          k.bconv = std::make_unique<BConv2D>(w.constant_data.data<float>(),
                                              attrs);
        }
        packed_weight_bytes += k.bconv->packed_weights_bytes();
        break;
      }
      default:
        break;  // stateless ops
    }
  }
  // Specializations report 0 resident weight bytes: everything they hold
  // is an alias of the root's packed weights (asserted flat by the serving
  // bench's across-specialization check).
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
  // of aborting the process -- a serving executor sheds the batch and
  // retries context creation on its next one (docs/SERVING.md).
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
  const CompiledModel::ValuePlacement& p = model_->placements_[value_id];
  LCE_DCHECK(p.in_arena);
  std::uint8_t* data = arena_.data() + p.offset;
  if (p.row_stride == 0) return Tensor::View(v.dtype, v.shape, data);
  return Tensor::StridedView(v.dtype, v.shape, data, p.row_stride);
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
  LCE_CHECK(i >= 0 && i < num_inputs() && "input() index out of range");
  Tensor full = ValueTensor(model_->graph_.input_ids()[i]);
  return io_lane_ < 0 ? full : LaneSlice(std::move(full), io_lane_);
}

Tensor ExecutionContext::output(int i) {
  LCE_CHECK(arena_ok_ &&
            "output() on a context whose arena allocation failed");
  LCE_CHECK(i >= 0 && i < num_outputs() && "output() index out of range");
  Tensor full = ValueTensor(model_->graph_.output_ids()[i]);
  return io_lane_ < 0 ? full : LaneSlice(std::move(full), io_lane_);
}

void ExecutionContext::set_io_lane(int lane) {
  LCE_CHECK(lane >= -1 && lane < model_->signature_.batch);
  io_lane_ = lane;
}

void ExecutionContext::Reset() {
  arena_.Zero();
  profile_.clear();
  io_lane_ = -1;
}

void ExecutionContext::RunNode(const Node& n, OpProfile* prof) {
  const auto& placements = model_->placements_;
  LCE_DCHECK(placements[n.outputs[0]].row_stride == 0 ||
             WritesStridedSlice(n));
  LCE_DCHECK(ReadsStridedSlice(n.type) ||
             std::all_of(n.inputs.begin(), n.inputs.end(), [&](int in) {
               return placements[in].row_stride == 0;
             }));
  Tensor out = ValueTensor(n.outputs[0]);
  const auto& kernels = model_->kernels_;
  switch (n.type) {
    case OpType::kConv2D:
    case OpType::kFullyConnected: {
      Tensor in = ValueTensor(n.inputs[0]);
      kernels[n.id].conv->Run(in, out, ctx_);
      break;
    }
    case OpType::kDepthwiseConv2D: {
      Tensor in = ValueTensor(n.inputs[0]);
      kernels[n.id].dwconv->Run(in, out);
      break;
    }
    case OpType::kLceBConv2d:
    case OpType::kLceBFullyConnected: {
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
      // Channel-axis concat: the inputs it hosts were written in place by
      // their producers; it copies the others into their channel slices.
      int channel = 0;
      for (const int in_id : n.inputs) {
        const Tensor in = ValueTensor(in_id);
        if (placements[in_id].host != n.outputs[0]) {
          CopyChannels(in, channel, out);
        }
        channel += static_cast<int>(in.shape().dim(3));
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
      QuantizeInt8(in, n.attrs.output_quant, ctx_.profile(), out);
      break;
    }
    case OpType::kDequantizeInt8: {
      Tensor in = ValueTensor(n.inputs[0]);
      DequantizeInt8(in, n.attrs.input_quant, out);
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
  // on every exit path so a reused context never leaks a dead request's
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
      Tensor observed = ValueTensor(n.outputs[0]);
      if (!observed.is_dense()) {
        Tensor dense(observed.dtype(), observed.shape());
        CopyChannels(observed, 0, dense);
        observed = std::move(dense);
      }
      options_.observer(n, observed);
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
