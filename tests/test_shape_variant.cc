// Shape-bucketed compilation tests (docs/SERVING.md, "Multi-resolution
// serving"): the graph-level shape-variant clone, CompileShapeVariant
// bit-exactness against fresh single-shape compiles (float, depthwise,
// binary and int8 pipelines), the packed-weights-stay-flat guarantee, the
// GetOrCompileShapeBucket registry (caching, cap enforcement, rejection
// codes), batch variants of shape buckets, the (shape bucket, batch)
// ContextPool key regression, shape-keyed batch formation in the
// scheduler, and mixed-resolution serving end to end. Part of the CI
// ThreadSanitizer job (name matches no serving regex, but the server tests
// here run multi-threaded executors).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
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
#include "serving/context_pool.h"
#include "serving/server.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

using namespace std::chrono_literals;
using serving::BatchItem;
using serving::BatchScheduler;
using serving::ContextPool;
using serving::Request;
using serving::Server;
using serving::ServerOptions;

// ---------------------------------------------------------------------------
// Fixtures. GlobalAvgPool makes the nets shape-polymorphic (the dense head
// sees a fixed channel count at any input resolution); the stride-2 stem
// keeps downstream spatial extents odd at most bucket resolutions so the
// re-derived geometry is non-trivial.
// ---------------------------------------------------------------------------

// Float conv + depthwise + binary conv + dense head at `input_hw` px,
// converted to the inference dialect. Same builder seed at every
// resolution, so two graphs differ ONLY in spatial dims -- a fresh compile
// of MakeMixedGraph(hw) is the ground truth for the hw bucket.
Graph MakeMixedGraph(int input_hw) {
  Graph g;
  ModelBuilder b(g, 7);
  int x = b.Input(input_hw, input_hw, 3);
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

// All-float model PTQ'd to int8: buckets must carry the requantization
// pipeline bit-exactly too.
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

// ---------------------------------------------------------------------------
// CompileShapeVariant: bit-exactness and weight sharing.
// ---------------------------------------------------------------------------

// The contract: a bucket's outputs are bit-identical to a fresh
// single-shape compile of the same architecture at that resolution.
void ExpectBucketMatchesFreshCompile(Graph (*make)(int), int base_hw,
                                     int bucket_hw, std::uint64_t seed) {
  static std::vector<std::unique_ptr<Graph>>* keep =
      new std::vector<std::unique_ptr<Graph>>();  // outlive the models
  keep->push_back(std::make_unique<Graph>(make(base_hw)));
  const Graph& base_graph = *keep->back();
  keep->push_back(std::make_unique<Graph>(make(bucket_hw)));
  const Graph& fresh_graph = *keep->back();

  std::shared_ptr<const CompiledModel> root, fresh, bucket;
  ASSERT_TRUE(CompiledModel::Compile(base_graph, {}, &root).ok());
  ASSERT_TRUE(CompiledModel::Compile(fresh_graph, {}, &fresh).ok());
  ASSERT_TRUE(
      CompiledModel::CompileShapeVariant(root, bucket_hw, &bucket).ok());
  ASSERT_EQ(bucket->input_hw(), bucket_hw);
  EXPECT_EQ(bucket->base_model(), root.get());

  const std::vector<float> want = RunOnce(fresh, seed);
  const std::vector<float> got = RunOnce(bucket, seed);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(float)))
      << "bucket " << bucket_hw << " (root " << base_hw
      << ") diverged from a fresh single-shape compile";
}

TEST(ShapeVariant, MixedPipelineBitExactUpAndDownsized) {
  // Both directions: a bucket smaller and larger than the root.
  ExpectBucketMatchesFreshCompile(MakeMixedGraph, 16, 24, 1000);
  ExpectBucketMatchesFreshCompile(MakeMixedGraph, 16, 8, 1001);
  ExpectBucketMatchesFreshCompile(MakeMixedGraph, 24, 32, 1002);
}

TEST(ShapeVariant, Int8RequantizePipelineBitExact) {
  // PTQ calibration is resolution-dependent (activation ranges shift with
  // spatial extent), so re-running QuantizeModelInt8 at the bucket
  // resolution would bake different quantization parameters -- not a
  // comparable reference. The ground truth for an int8 bucket is a fresh
  // independent compile of the SAME quantized graph cloned to the bucket
  // resolution: identical quant params, no weight sharing.
  static std::vector<std::unique_ptr<Graph>>* keep =
      new std::vector<std::unique_ptr<Graph>>();
  keep->push_back(std::make_unique<Graph>(MakeInt8Graph(16)));
  const Graph& base_graph = *keep->back();
  std::shared_ptr<const CompiledModel> root;
  ASSERT_TRUE(CompiledModel::Compile(base_graph, {}, &root).ok());

  for (const int hw : {24, 8}) {
    std::unique_ptr<Graph> clone;
    ASSERT_TRUE(CloneGraphWithInputSize(base_graph, hw, &clone).ok());
    keep->push_back(std::move(clone));
    std::shared_ptr<const CompiledModel> fresh, bucket;
    ASSERT_TRUE(CompiledModel::Compile(*keep->back(), {}, &fresh).ok());
    ASSERT_TRUE(CompiledModel::CompileShapeVariant(root, hw, &bucket).ok());
    const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(hw);
    const std::vector<float> want = RunOnce(fresh, seed);
    const std::vector<float> got = RunOnce(bucket, seed);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             want.size() * sizeof(float)))
        << "int8 bucket " << hw << " diverged from the fresh compile of "
           "its own clone";
  }
}

TEST(ShapeVariant, OwnResolutionReturnsTheRootItself) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root, same;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  ASSERT_TRUE(CompiledModel::CompileShapeVariant(root, 16, &same).ok());
  EXPECT_EQ(same.get(), root.get());
}

TEST(ShapeVariant, PackedWeightsStayFlatAcrossBuckets) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  auto* gauge = telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
  std::shared_ptr<const CompiledModel> root;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  ASSERT_GT(root->packed_weight_bytes(), 0u);
  const std::int64_t resident_with_root = gauge->value();
  {
    std::vector<std::shared_ptr<const CompiledModel>> buckets;
    for (const int hw : {8, 24, 32}) {
      std::shared_ptr<const CompiledModel> v;
      ASSERT_TRUE(CompiledModel::CompileShapeVariant(root, hw, &v).ok());
      EXPECT_EQ(v->packed_weight_bytes(), 0u)
          << "a shape bucket must borrow, not own, the packed weights";
      buckets.push_back(std::move(v));
    }
    EXPECT_EQ(gauge->value(), resident_with_root)
        << "compiling shape buckets must not move the resident gauge";
  }
  EXPECT_EQ(gauge->value(), resident_with_root)
      << "destroying shape buckets must not move the resident gauge";
}

TEST(ShapeVariant, BatchVariantOfABucketIsBitExact) {
  // The chained case the serving layer relies on: batch-N variant OF a
  // shape bucket, weights aliased through two hops back to the root.
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root, bucket, batched;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  ASSERT_TRUE(CompiledModel::CompileShapeVariant(root, 24, &bucket).ok());
  ASSERT_TRUE(CompiledModel::CompileBatchVariant(bucket, 3, &batched).ok());
  EXPECT_EQ(batched->batch(), 3);
  EXPECT_EQ(batched->shape_bucket_hw(), 24);
  EXPECT_EQ(batched->packed_weight_bytes(), 0u);

  std::vector<std::vector<float>> refs;
  for (int i = 0; i < 3; ++i) {
    refs.push_back(RunOnce(bucket, 3000 + static_cast<std::uint64_t>(i)));
  }
  ExecutionContext ctx(batched);
  for (int i = 0; i < 3; ++i) {
    ctx.set_io_lane(i);
    FillInput(ctx.input(0), 3000 + static_cast<std::uint64_t>(i));
  }
  ctx.clear_io_lane();
  ctx.Invoke();
  for (int i = 0; i < 3; ++i) {
    ctx.set_io_lane(i);
    const Tensor out = ctx.output(0);
    EXPECT_EQ(0, std::memcmp(out.data<float>(),
                             refs[static_cast<std::size_t>(i)].data(),
                             refs[static_cast<std::size_t>(i)].size() *
                                 sizeof(float)))
        << "lane " << i << " diverged from its bucket batch-1 reference";
  }
}

// ---------------------------------------------------------------------------
// The bucket registry: caching, the eager CompileOptions list, the cap.
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
  // A variant reports its root's registry.
  EXPECT_EQ(a->ShapeBucketResolutions(), res);
}

TEST(ShapeBucketRegistry, EagerCompileOptionsResolutionsArePrecompiled) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  CompileOptions opts;
  opts.input_resolutions = {24, 32, 16};  // own resolution is a no-op entry
  std::shared_ptr<const CompiledModel> root;
  ASSERT_TRUE(CompiledModel::Compile(*g, opts, &root).ok());
  const std::vector<int> res = root->ShapeBucketResolutions();
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0], 16);
  EXPECT_EQ(res[1], 24);
  EXPECT_EQ(res[2], 32);
}

TEST(ShapeBucketRegistry, MisconfiguredEagerListFailsCompile) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  CompileOptions opts;
  opts.input_resolutions = {24, -3};
  std::shared_ptr<const CompiledModel> root;
  EXPECT_EQ(CompiledModel::Compile(*g, opts, &root).code(),
            StatusCode::kInvalidArgument)
      << "a bad bucket list must fail at startup, not on first request";
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
  // Registered buckets (and the root) stay servable at the cap.
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 24, &v).ok());
  ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 16, &v).ok());
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
  // The root owns its registered buckets; a bucket only shares the root's
  // ownership. So a held bucket, or a batch variant of one, keeps the root
  // alive, and once the root, the server and the contexts are gone nothing
  // of the model -- root, buckets, variants, packed weights -- is resident.
  static const Graph* g = new Graph(MakeMixedGraph(16));
  auto* gauge = telemetry::MetricsRegistry::Global().Gauge(
      "weights.resident_packed_bytes");
  const std::int64_t resident_before = gauge->value();
  std::weak_ptr<const CompiledModel> weak_root;
  {
    CompileOptions opts;
    opts.input_resolutions = {24, 32};
    std::shared_ptr<const CompiledModel> root;
    ASSERT_TRUE(CompiledModel::Compile(*g, opts, &root).ok());
    weak_root = root;
    EXPECT_GT(gauge->value(), resident_before);

    ServerOptions server_opts;
    server_opts.max_inflight = 1;
    server_opts.max_batch_size = 2;
    auto server = std::make_unique<Server>(root, server_opts);
    auto fill = [](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); };
    ASSERT_TRUE(server->Infer(32, fill).ok());

    std::shared_ptr<const CompiledModel> bucket, batched;
    ASSERT_TRUE(CompiledModel::GetOrCompileShapeBucket(root, 24, &bucket).ok());
    ASSERT_TRUE(CompiledModel::CompileBatchVariant(bucket, 2, &batched).ok());
    auto ctx = std::make_unique<ExecutionContext>(bucket);
    fill(*ctx);
    ctx->Invoke();

    root.reset();
    server.reset();
    bucket.reset();
    EXPECT_FALSE(weak_root.expired()) << "a live context must pin its root";
    ctx.reset();
    EXPECT_FALSE(weak_root.expired())
        << "a live batch variant of a bucket must pin its root";
    {
      ExecutionContext batched_ctx(batched);
      batched_ctx.Invoke();
    }
    batched.reset();
  }
  EXPECT_TRUE(weak_root.expired())
      << "a root with registered buckets outlived every reference to it";
  EXPECT_EQ(gauge->value(), resident_before);
}

// ---------------------------------------------------------------------------
// ContextPool keyed by (shape bucket, batch) -- the regression that
// motivated generalizing the free-list key: two buckets sharing a batch
// size must never trade arenas.
// ---------------------------------------------------------------------------

TEST(ShapeBucketPool, AcquireSelectsByShapeAndBatchNeverByBatchAlone) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root, b24;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  ASSERT_TRUE(CompiledModel::CompileShapeVariant(root, 24, &b24).ok());
  std::shared_ptr<const CompiledModel> root_x2, b24_x2;
  ASSERT_TRUE(CompiledModel::CompileBatchVariant(root, 2, &root_x2).ok());
  ASSERT_TRUE(CompiledModel::CompileBatchVariant(b24, 2, &b24_x2).ok());

  ContextPool pool({root, root_x2, b24, b24_x2}, /*capacity=*/4);

  // Same batch size, different buckets: each Acquire must land on the
  // model whose arena matches the requested resolution.
  std::unique_ptr<ExecutionContext> c16, c24;
  ASSERT_TRUE(pool.Acquire(16, 2, &c16).ok());
  ASSERT_TRUE(pool.Acquire(24, 2, &c24).ok());
  EXPECT_EQ(&c16->model(), root_x2.get());
  EXPECT_EQ(&c24->model(), b24_x2.get());
  EXPECT_EQ(c16->input(0).shape().dim(1), 16);
  EXPECT_EQ(c24->input(0).shape().dim(1), 24);

  // Release resolves by model identity: each context parks under its own
  // variant and comes back for the matching key.
  pool.Release(std::move(c16), Status::Ok());
  pool.Release(std::move(c24), Status::Ok());
  ASSERT_TRUE(pool.Acquire(24, 2, &c24).ok());
  EXPECT_EQ(&c24->model(), b24_x2.get());

  // A key that was never registered is an error, never a wrong arena.
  std::unique_ptr<ExecutionContext> miss;
  EXPECT_EQ(pool.Acquire(32, 1, &miss).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.Acquire(16, 3, &miss).code(), StatusCode::kInvalidArgument);
}

TEST(ShapeBucketPool, AddModelsRegistersLazyBucketsAndDedups) {
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root, b24;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  ASSERT_TRUE(CompiledModel::CompileShapeVariant(root, 24, &b24).ok());

  ContextPool pool(root, /*capacity=*/2);
  std::unique_ptr<ExecutionContext> ctx;
  ASSERT_EQ(pool.Acquire(24, 1, &ctx).code(), StatusCode::kInvalidArgument);
  pool.AddModels({b24, b24, root});  // duplicates and re-registrations
  ASSERT_TRUE(pool.Acquire(24, 1, &ctx).ok());
  EXPECT_EQ(&ctx->model(), b24.get());
  pool.Release(std::move(ctx), Status::Ok());
}

TEST(ShapeBucketPool, EvictionRealizesCrossBucketArenaHighWater) {
  // capacity=1: serving bucket B after bucket A must evict A's idle
  // context, keeping resident arena bytes at the high-water mark (one
  // max-bucket arena), not the sum of all buckets' arenas.
  static const Graph* g = new Graph(MakeMixedGraph(16));
  std::shared_ptr<const CompiledModel> root, b24;
  ASSERT_TRUE(CompiledModel::Compile(*g, {}, &root).ok());
  ASSERT_TRUE(CompiledModel::CompileShapeVariant(root, 24, &b24).ok());
  auto* resident = telemetry::MetricsRegistry::Global().Gauge(
      "serving.resident_arena_bytes");
  const std::int64_t before = resident->value();

  ContextPool pool({root, b24}, /*capacity=*/1);
  const std::int64_t evicted_before = pool.evicted();
  std::unique_ptr<ExecutionContext> ctx;
  ASSERT_TRUE(pool.Acquire(16, 1, &ctx).ok());
  pool.Release(std::move(ctx), Status::Ok());
  // The parked 16px context occupies the only slot; a 24px request forces
  // the eviction instead of overshooting capacity.
  ASSERT_TRUE(pool.Acquire(24, 1, &ctx).ok());
  EXPECT_EQ(&ctx->model(), b24.get());
  EXPECT_EQ(pool.evicted() - evicted_before, 1);
  EXPECT_EQ(pool.outstanding(), 1);
  EXPECT_EQ(pool.pooled(), 0);
  const std::int64_t peak = resident->value() - before;
  EXPECT_LE(peak, static_cast<std::int64_t>(
                      std::max(root->arena_bytes(), b24->arena_bytes())))
      << "resident arenas exceeded the cross-bucket high-water mark";
  pool.Release(std::move(ctx), Status::Ok());
}

// ---------------------------------------------------------------------------
// Shape-keyed batch formation.
// ---------------------------------------------------------------------------

BatchItem KeyedItem(int shape_key) {
  BatchItem item;
  item.enqueue_ns = telemetry::NowNanos();
  item.deadline_ns = CancellationToken::kNoDeadline;
  item.shape_key = shape_key;
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
  for (const BatchItem& item : batch) EXPECT_EQ(item.shape_key, 16);
  // Second batch: the two 24s.
  batch = sched.NextBatch();
  ASSERT_EQ(batch.size(), 2u);
  for (const BatchItem& item : batch) EXPECT_EQ(item.shape_key, 24);
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
  EXPECT_EQ(batch[0].shape_key, 16);
  EXPECT_EQ(batch[1].shape_key, 16);
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
