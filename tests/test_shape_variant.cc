// Specialization tests (docs/SERVING.md, "Batching semantics" and
// "Multi-resolution serving"): the graph-level input-shape clone, one
// bit-exactness helper over InputSignatures -- every lane of
// Specialize(root, {batch, h, w}) against a fresh batch-1 compile at
// (h, w), for float, depthwise, binary conv, binary fully connected and
// int8 pipelines, square and not
// -- the packed-weights-stay-flat guarantee over an (h, w) x batch grid,
// the non-square-root routing regression, the registry (caching,
// compile-once under concurrency, cap enforcement, rejection codes,
// lifetime), executor contexts replaced across buckets, signature-keyed
// batch formation in the scheduler, and mixed-resolution serving end to
// end.
// Part of the CI ThreadSanitizer job (its regex names "shape_variant").
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "converter/convert.h"
#include "converter/ptq.h"
#include "core/macros.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "graph/shape_variant.h"
#include "graph/validator.h"
#include "models/builder.h"
#include "serving/batch_scheduler.h"
#include "serving/server.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

using namespace std::chrono_literals;
using serving::BatchItem;
using serving::BatchScheduler;
using serving::Request;
using serving::Server;
using serving::ServerOptions;

// ---------------------------------------------------------------------------
// Fixtures. GlobalAvgPool makes the nets shape-polymorphic (the dense head
// sees a fixed channel count at any input resolution); the stride-2 stem
// keeps downstream spatial extents odd at most bucket resolutions so the
// re-derived geometry is non-trivial.
// ---------------------------------------------------------------------------

// Float conv + depthwise + binary conv + dense head at an h x w input,
// converted to the inference dialect. Same builder seed at every
// resolution, so two graphs differ ONLY in spatial dims.
Graph MakeMixedGraph(int h, int w) {
  Graph g;
  ModelBuilder b(g, 7);
  int x = b.Input(h, w, 3);
  x = b.Conv(x, 8, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.DepthwiseConv(x, 3, 1, Padding::kSameZero);
  int y = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  y = b.BatchNorm(y);
  x = b.GlobalAvgPool(y);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  LCE_CHECK(Convert(g).ok());
  return g;
}
Graph MakeMixedGraph(int input_hw) { return MakeMixedGraph(input_hw, input_hw); }

// Float stem + binary fully connected head (LceBFullyConnected with the
// BatchNorm fused into its transform) + dense classifier.
Graph MakeBinaryFcGraph(int input_hw) {
  Graph g;
  ModelBuilder b(g, 11);
  int x = b.Input(input_hw, input_hw, 3);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero);
  x = b.GlobalAvgPool(x);
  x = b.BinaryDense(x, 48);
  x = b.BatchNorm(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  ConvertStats stats;
  LCE_CHECK(Convert(g, {}, &stats).ok());
  LCE_CHECK(stats.bfcs_lowered == 1);
  return g;
}

// All-float model PTQ'd to int8: specializations must carry the
// requantization pipeline bit-exactly too.
Graph MakeInt8Graph(int input_hw) {
  Graph g;
  ModelBuilder b(g, 13);
  int x = b.Input(input_hw, input_hw, 3);
  x = b.Conv(x, 16, 3, 1, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  PtqStats stats;
  LCE_CHECK(QuantizeModelInt8(g, {}, &stats).ok());
  LCE_CHECK(stats.convs_quantized == 3);
  return g;
}

void FillInput(Tensor in, std::uint64_t seed) {
  Rng rng(seed);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
}

std::vector<float> RunOnce(const std::shared_ptr<const CompiledModel>& model,
                           std::uint64_t seed) {
  ExecutionContext exec(model);
  FillInput(exec.input(0), seed);
  exec.Invoke();
  const Tensor out = exec.output(0);
  return std::vector<float>(out.data<float>(),
                            out.data<float>() + out.num_elements());
}

// ---------------------------------------------------------------------------
// Graph-level clone replay.
// ---------------------------------------------------------------------------

TEST(ShapeVariantGraph, CloneRederivesGeometryAndSharesConstants) {
  const Graph base = MakeMixedGraph(16);
  std::unique_ptr<Graph> clone;
  std::vector<int> node_map;
  ASSERT_TRUE(CloneGraphWithInputSize(base, 24, &clone, &node_map).ok());

  // Input resized, output head unchanged (global pooling decouples the
  // dense head from the resolution).
  const Value& in = clone->value(clone->input_ids()[0]);
  EXPECT_EQ(in.shape.dim(1), 24);
  EXPECT_EQ(in.shape.dim(2), 24);
  EXPECT_EQ(in.shape.dim(3), 3);
  const Value& out = clone->value(clone->output_ids()[0]);
  EXPECT_EQ(out.shape.num_elements(), 10);

  // Constants share the base graph's buffers -- same data pointers, so the
  // clone costs O(IR), not O(model bytes).
  int constants_checked = 0;
  for (const auto& v : clone->values()) {
    if (!v->is_constant || !v->alive) continue;
    bool found = false;
    for (const auto& bv : base.values()) {
      if (bv->is_constant && bv->name == v->name) {
        EXPECT_EQ(v->constant_data.raw_data(), bv->constant_data.raw_data())
            << "constant '" << v->name << "' was deep-copied";
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "clone constant '" << v->name
                       << "' missing from the base graph";
    ++constants_checked;
  }
  EXPECT_GT(constants_checked, 0);

  // The node map pairs every clone node with the base node it replays.
  for (const auto& n : clone->nodes()) {
    if (!n->alive) continue;
    ASSERT_LT(n->id, static_cast<int>(node_map.size()));
    const int src = node_map[static_cast<std::size_t>(n->id)];
    ASSERT_GE(src, 0);
    EXPECT_EQ(base.node(src).type, n->type);
  }
}

TEST(ShapeVariantGraph, RejectsNonsenseAndNonImageInputs) {
  const Graph base = MakeMixedGraph(16);
  std::unique_ptr<Graph> clone;
  EXPECT_EQ(CloneGraphWithInputSize(base, 0, &clone).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CloneGraphWithInputSize(base, -7, &clone).code(),
            StatusCode::kInvalidArgument);

  Graph vec;
  const int x = vec.AddInput("x", DataType::kFloat32, Shape{1, 10});
  vec.MarkOutput(x);
  EXPECT_EQ(CloneGraphWithInputSize(vec, 16, &clone).code(),
            StatusCode::kInvalidArgument)
      << "rank-2 inputs are not shape-bucketable";
}

TEST(ShapeVariantGraph, CloneMatchesAFreshBuildAtTheNewResolution) {
  // The clone is the reference every specialization below is checked
  // against, so it is pinned once to an independent build of the same
  // architecture at the clone's resolution.
  const Graph base = MakeMixedGraph(16);
  const Graph built = MakeMixedGraph(24, 32);
  std::unique_ptr<Graph> clone;
  ASSERT_TRUE(
      CloneGraphWithInputShapes(base, {Shape{1, 24, 32, 3}}, &clone).ok());
  std::shared_ptr<const CompiledModel> from_clone, from_build;
  ASSERT_TRUE(CompiledModel::Compile(*clone, {}, &from_clone).ok());
  ASSERT_TRUE(CompiledModel::Compile(built, {}, &from_build).ok());
  EXPECT_EQ(RunOnce(from_clone, 900), RunOnce(from_build, 900));
}

// ---------------------------------------------------------------------------
// Specialize: bit-exactness and weight sharing.
// ---------------------------------------------------------------------------

// Keeps the graphs compiled below alive for the models that borrow them.
std::vector<std::unique_ptr<Graph>>& KeptGraphs() {
  static auto* keep = new std::vector<std::unique_ptr<Graph>>();
  return *keep;
}

std::shared_ptr<const CompiledModel> CompileRoot(Graph graph) {
  KeptGraphs().push_back(std::make_unique<Graph>(std::move(graph)));
  std::shared_ptr<const CompiledModel> root;
  LCE_CHECK(CompiledModel::Compile(*KeptGraphs().back(), {}, &root).ok());
  return root;
}

// The one bit-exactness contract: every lane of Specialize(root, sig) is
// bit-identical to a fresh batch-1 compile at (sig.h, sig.w) -- the root
// graph cloned to [1, h, w, C] and compiled on its own, no weight sharing.
// For int8 this is the only sound reference: PTQ calibration is
// resolution-dependent, so re-quantizing at (h, w) would be another model.
void ExpectSpecializationMatchesFresh(
    const std::shared_ptr<const CompiledModel>& root, InputSignature sig,
    std::uint64_t seed) {
  const Graph& g = root->graph();
  const std::int64_t channels = g.value(g.input_ids()[0]).shape.dim(3);
  std::unique_ptr<Graph> clone;
  ASSERT_TRUE(CloneGraphWithInputShapes(
                  g, {Shape{1, sig.h, sig.w, channels}}, &clone)
                  .ok());
  KeptGraphs().push_back(std::move(clone));
  std::shared_ptr<const CompiledModel> fresh, spec;
  ASSERT_TRUE(CompiledModel::Compile(*KeptGraphs().back(), {}, &fresh).ok());
  ASSERT_TRUE(CompiledModel::Specialize(root, sig, &spec).ok());
  ASSERT_EQ(spec->signature(), sig);
  EXPECT_EQ(spec->base_model(), root.get());
  EXPECT_EQ(spec->packed_weight_bytes(), 0u)
      << "a specialization must borrow, not own, the packed weights";

  ExecutionContext ctx(spec);
  for (int i = 0; i < sig.batch; ++i) {
    ctx.set_io_lane(i);
    FillInput(ctx.input(0), seed + static_cast<std::uint64_t>(i));
  }
  ctx.clear_io_lane();
  CancellationToken none;
  ASSERT_TRUE(ctx.Invoke(&none).ok());
  for (int i = 0; i < sig.batch; ++i) {
    const std::vector<float> want =
        RunOnce(fresh, seed + static_cast<std::uint64_t>(i));
    ctx.set_io_lane(i);
    const Tensor out = ctx.output(0);
    ASSERT_EQ(static_cast<std::size_t>(out.num_elements()), want.size());
    EXPECT_EQ(0, std::memcmp(out.data<float>(), want.data(),
                             want.size() * sizeof(float)))
        << "lane " << i << " of " << sig.ToString()
        << " diverged from a fresh batch-1 compile";
  }
}

TEST(Specialize, MixedPipelineBitExactAcrossSignatures) {
  const auto root16 = CompileRoot(MakeMixedGraph(16));
  for (const InputSignature sig :
       {InputSignature{1, 24, 24}, InputSignature{1, 8, 8},
        InputSignature{2, 16, 16}, InputSignature{3, 16, 16},
        InputSignature{8, 16, 16}, InputSignature{3, 24, 24},
        InputSignature{1, 24, 32}, InputSignature{2, 32, 24}}) {
    ExpectSpecializationMatchesFresh(root16, sig, 1000 + sig.batch * 64 +
                                                      sig.h + sig.w);
  }
  const auto root24 = CompileRoot(MakeMixedGraph(24));
  ExpectSpecializationMatchesFresh(root24, {1, 32, 32}, 1002);

  // The binary fully connected layer: its specializations build
  // weight-sharing BConv2D siblings, so the resident gauge stays flat.
  auto* resident = telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
  const auto bfc_root = CompileRoot(MakeBinaryFcGraph(16));
  ASSERT_GT(bfc_root->packed_weight_bytes(), 0u);
  const std::int64_t resident_with_root = resident->value();
  for (const InputSignature sig :
       {InputSignature{2, 16, 16}, InputSignature{3, 16, 16},
        InputSignature{3, 24, 24}}) {
    ExpectSpecializationMatchesFresh(bfc_root, sig, 1100 + sig.batch * 64 +
                                                        sig.h + sig.w);
  }
  EXPECT_EQ(resident->value(), resident_with_root)
      << "specializing the binary FC must not move the resident gauge";
}

TEST(Specialize, Int8RequantizePipelineBitExactAcrossSignatures) {
  const auto root = CompileRoot(MakeInt8Graph(16));
  for (const InputSignature sig :
       {InputSignature{1, 24, 24}, InputSignature{1, 8, 8},
        InputSignature{2, 16, 16}, InputSignature{3, 16, 16},
        InputSignature{8, 16, 16}, InputSignature{1, 24, 32},
        InputSignature{2, 32, 24}}) {
    ExpectSpecializationMatchesFresh(root, sig, 2000 + sig.batch * 64 +
                                                    sig.h + sig.w);
  }
}

TEST(Specialize, RootSignatureReturnsTheRootItself) {
  const auto root = CompileRoot(MakeMixedGraph(16));
  ASSERT_EQ(root->signature(), (InputSignature{1, 16, 16}));
  for (const InputSignature sig :
       {InputSignature{1, 16, 16}, InputSignature{1, 0, 0}}) {
    std::shared_ptr<const CompiledModel> same;
    ASSERT_TRUE(CompiledModel::Specialize(root, sig, &same).ok());
    EXPECT_EQ(same.get(), root.get()) << sig.ToString();
  }
  std::shared_ptr<const CompiledModel> same;
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 16, &same).ok());
  EXPECT_EQ(same.get(), root.get());
  EXPECT_EQ(root->shape_bucket_count(), 1) << "nothing was registered";
}

TEST(Specialize, PackedWeightsStayFlatOverAShapeByBatchGrid) {
  auto* gauge = telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
  const std::int64_t resident_before = gauge->value();
  {
    const auto root = CompileRoot(MakeMixedGraph(16));
    ASSERT_GT(root->packed_weight_bytes(), 0u);
    const std::int64_t resident_with_root = gauge->value();
    for (const int hw : {8, 16, 24, 32}) {
      for (const int batch : {1, 2, 3, 8}) {
        std::shared_ptr<const CompiledModel> spec;
        ASSERT_TRUE(
            CompiledModel::Specialize(root, {batch, hw, hw}, &spec).ok());
        EXPECT_EQ(spec->packed_weight_bytes(),
                  spec == root ? root->packed_weight_bytes() : 0u);
      }
    }
    EXPECT_EQ(gauge->value(), resident_with_root)
        << "specializing must not move the resident gauge";
    EXPECT_EQ(root->shape_bucket_count(), 4);
  }
  EXPECT_EQ(gauge->value(), resident_before)
      << "releasing the root must release its weights exactly once";
}

TEST(Specialize, GraphWithoutAnImageInputStillBatches) {
  // Signature {n, 0, 0}: nothing to resize, but the batch still widens.
  Graph vec;
  ModelBuilder b(vec, 5);
  int x = vec.AddInput("x", DataType::kFloat32, Shape{1, 12});
  x = b.Dense(x, 6, Activation::kRelu);
  vec.MarkOutput(b.Dense(x, 4));
  const auto root = CompileRoot(std::move(vec));
  ASSERT_EQ(root->signature(), (InputSignature{1, 0, 0}));
  std::shared_ptr<const CompiledModel> spec;
  EXPECT_EQ(CompiledModel::Specialize(root, {1, 8, 8}, &spec).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(CompiledModel::Specialize(root, {3, 0, 0}, &spec).ok());
  ExecutionContext ctx(spec);
  for (int i = 0; i < 3; ++i) {
    ctx.set_io_lane(i);
    FillInput(ctx.input(0), 960 + static_cast<std::uint64_t>(i));
  }
  ctx.clear_io_lane();
  ctx.Invoke();
  for (int i = 0; i < 3; ++i) {
    ctx.set_io_lane(i);
    const Tensor out = ctx.output(0);
    EXPECT_EQ(std::vector<float>(out.data<float>(),
                                 out.data<float>() + out.num_elements()),
              RunOnce(root, 960 + static_cast<std::uint64_t>(i)))
        << "lane " << i;
  }
}

// A non-square root is never a square bucket: a 16 px request must get a
// [1, 16, 16, 3] specialization, not the 16x24 root and its arena, while
// unshaped requests keep the root's own 16x24 input.
TEST(Specialize, NonSquareRootIsNeverServedAsASquareBucket) {
  static const Graph* g = new Graph(MakeMixedGraph(16, 24));
  std::shared_ptr<const CompiledModel> root, bucket, fresh;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 16, &bucket).ok());
  ASSERT_NE(bucket.get(), root.get());
  const Shape in = bucket->graph().value(bucket->graph().input_ids()[0]).shape;
  EXPECT_EQ(in, (Shape{1, 16, 16, 3}));

  std::unique_ptr<Graph> clone;
  ASSERT_TRUE(CloneGraphWithInputSize(*g, 16, &clone).ok());
  ASSERT_TRUE(CompiledModel::Compile(*clone, {}, &fresh).ok());
  EXPECT_EQ(RunOnce(bucket, 950), RunOnce(fresh, 950));

  Server server(root, ServerOptions{});
  std::vector<std::int64_t> seen;
  auto fill = [&seen](ExecutionContext& ctx) {
    seen.push_back(ctx.input(0).shape().dim(1));
    seen.push_back(ctx.input(0).shape().dim(2));
    FillInput(ctx.input(0), 951);
  };
  ASSERT_TRUE(server.Infer(16, fill).ok());
  ASSERT_TRUE(server.Infer(fill).ok());
  EXPECT_EQ(seen, (std::vector<std::int64_t>{16, 16, 16, 24}));
}

// ---------------------------------------------------------------------------
// The registry: caching, compile-once, the cap, rejection codes, lifetime.
// ---------------------------------------------------------------------------

TEST(ShapeBucketRegistry, CachesCompiledBucketsByResolution) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());

  std::shared_ptr<const CompiledModel> a, b, self;
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 24, &a).ok());
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 24, &b).ok());
  EXPECT_EQ(a.get(), b.get()) << "second request must hit the registry";
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 0, &self).ok());
  EXPECT_EQ(self.get(), root.get()) << "0 selects the base bucket";
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 16, &self).ok());
  EXPECT_EQ(self.get(), root.get());

  const std::vector<int> res = root->ShapeBucketResolutions();
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0], 16);
  EXPECT_EQ(res[1], 24);
  // A specialization reports its root's registry.
  EXPECT_EQ(a->ShapeBucketResolutions(), res);
}

TEST(ShapeBucketRegistry, ConcurrentFirstRequestsCompileOnce) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  auto* gauge = telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
  const std::int64_t resident = gauge->value();
  const std::size_t buckets_before = root->ShapeBucketResolutions().size();

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CompiledModel>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&root, &got, i] {
      LCE_CHECK(CompiledModel::Specialize(root, {1, 24, 24},
                                          &got[static_cast<std::size_t>(i)])
                    .ok());
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& m : got) EXPECT_EQ(m.get(), got.front().get());
  EXPECT_EQ(root->ShapeBucketResolutions().size(), buckets_before + 1);
  EXPECT_EQ(gauge->value(), resident);
}

TEST(ShapeBucketRegistry, CapRejectsUnseenResolutionsResourceExhausted) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  CompileOptions opts;
  opts.limits.max_shape_buckets = 3;  // root + two buckets
  std::shared_ptr<const CompiledModel> root;
  ASSERT_TRUE(CompiledModel::Compile(*g, opts, &root).ok());

  std::shared_ptr<const CompiledModel> v;
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 24, &v).ok());
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 32, &v).ok());
  EXPECT_EQ(CompiledModel::GetOrCompileShapeBucket(root, 40, &v).code(),
            StatusCode::kResourceExhausted)
      << "a client cycling resolutions must not compile unbounded variants";
  // Registered buckets (and the root) stay servable at the cap, and batch
  // sizes of a registered resolution do not count against it.
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 24, &v).ok());
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 16, &v).ok());
  ASSERT_TRUE(CompiledModel::Specialize(root, {2, 24, 24}, &v).ok());
  EXPECT_EQ(root->shape_bucket_count(), 3);
}

TEST(ShapeBucketRegistry, RejectionCodesMatchTheValidatorContract) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  std::shared_ptr<const CompiledModel> v;
  EXPECT_EQ(CompiledModel::GetOrCompileShapeBucket(root, -1, &v).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CompiledModel::GetOrCompileShapeBucket(root, 1 << 20, &v).code(),
            StatusCode::kResourceExhausted)
      << "past max_input_hw is a limit violation, not a semantic defect";
}

TEST(ShapeBucketRegistry, ReleasingTheRootFreesEveryBucket) {
  // The root owns every registered specialization; a specialization only
  // shares the root's ownership. So a held bucket, or a batch entry, keeps
  // the root alive, and once the root, the server and the contexts are
  // gone nothing of the model -- root, buckets, batch entries, packed
  // weights -- is resident.
  static const Graph* g = new Graph(MakeMixedGraph(16));
  auto* gauge = telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
  const std::int64_t resident_before = gauge->value();
  std::weak_ptr<const CompiledModel> weak_root;
  {
    std::shared_ptr<const CompiledModel> root;
    ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
    weak_root = root;
    EXPECT_GT(gauge->value(), resident_before);

    ServerOptions server_opts;
    server_opts.max_inflight = 1;
    server_opts.max_batch_size = 2;
    server_opts.input_resolutions = {24};
    auto server = std::make_unique<Server>(root, server_opts);
    auto fill = [](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); };
    ASSERT_TRUE(server->Infer(32, fill).ok());

    std::shared_ptr<const CompiledModel> bucket, batched;
    ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 24, &bucket).ok());
    ASSERT_TRUE(CompiledModel::Specialize(root, {3, 32, 32}, &batched).ok());
    auto ctx = std::make_unique<ExecutionContext>(bucket);
    fill(*ctx);
    ctx->Invoke();

    root.reset();
    server.reset();
    bucket.reset();
    EXPECT_FALSE(weak_root.expired()) << "a live context must pin its root";
    ctx.reset();
    EXPECT_FALSE(weak_root.expired())
        << "a live batch entry must pin its root";
    {
      ExecutionContext batched_ctx(batched);
      batched_ctx.Invoke();
    }
    batched.reset();
  }
  EXPECT_TRUE(weak_root.expired())
      << "a root with registered specializations outlived every reference "
         "to it";
  EXPECT_EQ(gauge->value(), resident_before);
}

// ---------------------------------------------------------------------------
// Executor contexts across buckets: an executor holds one context and
// replaces it whenever its next batch has another signature, so two
// buckets never trade arenas and resident arena bytes stay at the larger
// bucket's arena, not the sum.
// ---------------------------------------------------------------------------

TEST(ShapeBucketContexts, AlternatingResolutionsReplaceTheExecutorContext) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root, b24;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  ASSERT_TRUE(CompiledModel::Specialize(root, {1, 24, 24}, &b24).ok());
  const std::vector<float> expected16 = RunOnce(root, 5);
  const std::vector<float> expected24 = RunOnce(b24, 5);
  auto& registry = telemetry::MetricsRegistry::Global();
  auto* resident = registry.Gauge("serving.resident_arena_bytes");
  auto* created = registry.Counter("serving.pool.created_total");
  auto* reused = registry.Counter("serving.pool.reused_total");
  auto* evicted = registry.Counter("serving.pool.evicted_total");
  const std::int64_t resident_before = resident->value();
  const std::int64_t created_before = created->value();
  const std::int64_t reused_before = reused->value();
  const std::int64_t evicted_before = evicted->value();
  const auto high_water = static_cast<std::int64_t>(
      std::max(root->arena_bytes(), b24->arena_bytes()));

  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(root, opts);
  constexpr int kRequests = 6;
  std::int64_t peak = 0;
  for (int i = 0; i < kRequests; ++i) {
    const int hw = i % 2 == 0 ? 16 : 24;
    const std::vector<float>& expected = hw == 16 ? expected16 : expected24;
    std::vector<float> got;
    ASSERT_TRUE(server
                    .Infer(
                        hw,
                        [&](ExecutionContext& ctx) {
                          EXPECT_EQ(ctx.input(0).shape().dim(1), hw);
                          peak = std::max(peak,
                                          resident->value() - resident_before);
                          FillInput(ctx.input(0), 5);
                        },
                        [&got](ExecutionContext& ctx) {
                          const Tensor out = ctx.output(0);
                          got.assign(out.data<float>(),
                                     out.data<float>() + out.num_elements());
                        })
                    .ok());
    peak = std::max(peak, resident->value() - resident_before);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expected.data(),
                             got.size() * sizeof(float)))
        << "request " << i << " at " << hw << " px";
  }
  // Every request switched signature: the first built the executor's
  // context, each later one destroyed it and built its own.
  EXPECT_EQ(created->value() - created_before, kRequests);
  EXPECT_EQ(evicted->value() - evicted_before, kRequests - 1);
  EXPECT_EQ(reused->value() - reused_before, 0);
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, high_water)
      << "resident arenas exceeded the cross-bucket high-water mark";
}

// ---------------------------------------------------------------------------
// Signature-keyed batch formation.
// ---------------------------------------------------------------------------

BatchItem KeyedItem(int hw) {
  BatchItem item;
  item.enqueue_ns = telemetry::NowNanos();
  item.deadline_ns = CancellationToken::kNoDeadline;
  item.signature = {1, hw, hw};
  return item;
}

TEST(ShapeKeyedBatching, BatchesNeverMixKeysAndPreserveFifoWithinKeys) {
  BatchScheduler::Options opts;
  opts.max_batch_size = 4;
  opts.batch_timeout_ns = 0;  // opportunistic: close with what is queued
  BatchScheduler sched(opts);
  // Interleaved arrivals: A B A B A.
  for (const int key : {16, 24, 16, 24, 16}) {
    ASSERT_TRUE(sched.TryEnqueue(KeyedItem(key)).ok());
  }
  // First batch forms around the head (key 16) and takes all three 16s,
  // leapfrogging the queued 24s without reordering them.
  std::vector<BatchItem> batch = sched.NextBatch();
  ASSERT_EQ(batch.size(), 3u);
  for (const BatchItem& item : batch) EXPECT_EQ(item.signature.h, 16);
  // Second batch: the two 24s.
  batch = sched.NextBatch();
  ASSERT_EQ(batch.size(), 2u);
  for (const BatchItem& item : batch) EXPECT_EQ(item.signature.h, 24);
  EXPECT_EQ(sched.depth(), 0);
}

TEST(ShapeKeyedBatching, SizeCloseCountsHeadKeyMembersOnly) {
  BatchScheduler::Options opts;
  opts.max_batch_size = 2;
  opts.batch_timeout_ns = std::chrono::nanoseconds(10s).count();
  BatchScheduler sched(opts);
  // One 16 and one 24 queued: neither key is full, the batch must NOT
  // close by size. A second 16 closes the head-key batch.
  ASSERT_TRUE(sched.TryEnqueue(KeyedItem(16)).ok());
  ASSERT_TRUE(sched.TryEnqueue(KeyedItem(24)).ok());
  ASSERT_TRUE(sched.TryEnqueue(KeyedItem(16)).ok());
  const std::vector<BatchItem> batch = sched.NextBatch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].signature.h, 16);
  EXPECT_EQ(batch[1].signature.h, 16);
  EXPECT_EQ(sched.closed_full(), 1);
  EXPECT_EQ(sched.depth(), 1) << "the 24 must still be queued";
}

// ---------------------------------------------------------------------------
// Mixed-resolution serving end to end.
// ---------------------------------------------------------------------------

TEST(ShapeBucketServing, ShapedInferRoutesToTheRightBucketBitExact) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &model).ok());
  // Ground truth per resolution: fresh single-shape compiles.
  static const Graph* g24 = new Graph(MakeMixedGraph(24));
  static const Graph* g32 = new Graph(MakeMixedGraph(32));
  std::shared_ptr<const CompiledModel> fresh24, fresh32;
  ASSERT_TRUE(CompiledModel::Compile(*g24, {}, &fresh24).ok());
  ASSERT_TRUE(CompiledModel::Compile(*g32, {}, &fresh32).ok());
  const std::vector<float> want16 = RunOnce(model, 4000);
  const std::vector<float> want24 = RunOnce(fresh24, 4001);
  const std::vector<float> want32 = RunOnce(fresh32, 4002);

  ServerOptions opts;
  opts.max_inflight = 2;
  opts.max_batch_size = 2;
  opts.batch_timeout = 0ns;
  opts.input_resolutions = {24};  // 32 is left to lazy compilation
  Server server(model, opts);

  auto infer = [&server](int hw, std::uint64_t seed, std::vector<float>* out) {
    return server.Infer(
        hw, [seed](ExecutionContext& ctx) { FillInput(ctx.input(0), seed); },
        [out](ExecutionContext& ctx) {
          const Tensor o = ctx.output(0);
          out->assign(o.data<float>(), o.data<float>() + o.num_elements());
        });
  };
  std::vector<float> got;
  ASSERT_TRUE(infer(0, 4000, &got).ok());  // 0 = base bucket
  EXPECT_EQ(got, want16);
  ASSERT_TRUE(infer(24, 4001, &got).ok());  // pre-compiled bucket
  EXPECT_EQ(got, want24);
  ASSERT_TRUE(infer(32, 4002, &got).ok());  // lazy bucket, first sight
  EXPECT_EQ(got, want32);
  ASSERT_TRUE(infer(16, 4000, &got).ok());  // explicit base resolution
  EXPECT_EQ(got, want16);

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.completed_ok, 4);
  EXPECT_EQ(stats.shape_rejected, 0);
  EXPECT_EQ(stats.shape_buckets, 3) << "16 (base), 24 (eager), 32 (lazy)";
}

TEST(ShapeBucketServing, LazyDisabledRejectsUnseenResolutions) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &model).ok());

  ServerOptions opts;
  opts.max_inflight = 1;
  opts.input_resolutions = {24};
  opts.lazy_shape_compile = false;
  Server server(model, opts);

  auto fill = [](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); };
  EXPECT_TRUE(server.Infer(24, fill).ok());
  const Status s = server.Infer(32, fill);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
      << "unseen resolutions must be refused when lazy compile is off";

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.shape_rejected, 1);
  EXPECT_EQ(stats.shape_buckets, 2);
  // The rejection is accounted as shed so the per-server admission
  // invariant keeps holding.
  EXPECT_EQ(stats.submitted, stats.shed + stats.expired_in_queue +
                                 stats.cancelled_in_queue + stats.admitted);
}

TEST(ShapeBucketServing, InadmissibleResolutionIsSignaledNotWedged) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &model).ok());
  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(model, opts);
  auto fill = [](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); };
  EXPECT_EQ(server.Infer(-4, fill).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Infer(1 << 20, fill).code(),
            StatusCode::kResourceExhausted);
  // The server still serves its base bucket afterwards.
  EXPECT_TRUE(server.Infer(0, fill).ok());
  EXPECT_EQ(server.StatsSnapshot().shape_rejected, 2);
}

}  // namespace
}  // namespace lce
