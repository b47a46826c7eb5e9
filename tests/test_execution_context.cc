// Runtime tests: end-to-end execution of small graphs through
// CompiledModel::Compile + ExecutionContext against hand-computed results,
// arena reuse safety, repeated invocation and profiling output, and the
// planner's Concat inputs written in place ("hosting", docs/PERFORMANCE.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "converter/convert.h"
#include "core/bitpack.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

TEST(ExecutionContext, SingleReluGraph) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(2, 2, 1);
  x = b.Relu(x);
  g.MarkOutput(x);

  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  Tensor in = exec.input(0);
  in.data<float>()[0] = -1.0f;
  in.data<float>()[1] = 2.0f;
  in.data<float>()[2] = -3.0f;
  in.data<float>()[3] = 4.0f;
  exec.Invoke();
  Tensor out = exec.output(0);
  EXPECT_EQ(out.data<float>()[0], 0.0f);
  EXPECT_EQ(out.data<float>()[1], 2.0f);
  EXPECT_EQ(out.data<float>()[2], 0.0f);
  EXPECT_EQ(out.data<float>()[3], 4.0f);
}

TEST(ExecutionContext, RepeatedInvocationsAreDeterministic) {
  Graph g;
  ModelBuilder b(g, 3);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 8, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  int y = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  y = b.BatchNorm(y);
  x = b.GlobalAvgPool(y);
  x = b.Dense(x, 10);
  g.MarkOutput(x);

  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  Rng rng(1);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
  exec.Invoke();
  std::vector<float> first(exec.output(0).data<float>(),
                           exec.output(0).data<float>() + 10);
  exec.Invoke();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(exec.output(0).data<float>()[i], first[i])
        << "arena reuse must not corrupt repeated runs";
  }
}

TEST(ExecutionContext, ShortcutGraphComputesAddCorrectly) {
  // y = relu(x); out = y + x -- exercises a value with two consumers and
  // overlapping lifetimes in the planner.
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(1, 1, 4);
  const int y = b.Relu(x);
  const int out = b.Add(y, x);
  g.MarkOutput(out);

  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  float* in = exec.input(0).data<float>();
  in[0] = -2.0f;
  in[1] = -0.5f;
  in[2] = 1.0f;
  in[3] = 3.0f;
  exec.Invoke();
  const float* o = exec.output(0).data<float>();
  EXPECT_FLOAT_EQ(o[0], -2.0f);  // relu(-2) + -2
  EXPECT_FLOAT_EQ(o[1], -0.5f);
  EXPECT_FLOAT_EQ(o[2], 2.0f);
  EXPECT_FLOAT_EQ(o[3], 6.0f);
}

TEST(ExecutionContext, ProfilingRecordsEveryNode) {
  Graph g;
  ModelBuilder b(g, 5);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 16, 3, 2, Padding::kSameZero);
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  g.MarkOutput(x);

  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionOptions opts;
  opts.enable_profiling = true;
  ExecutionContext exec(model, opts);
  exec.Invoke();
  ASSERT_EQ(exec.profile().size(), 3u);
  for (const auto& op : exec.profile()) {
    EXPECT_GE(op.seconds, 0.0);
    EXPECT_FALSE(op.name.empty());
  }
}

TEST(ExecutionContext, ArenaIsSharedAcrossDisjointValues) {
  // A deep chain should need far less arena memory than the sum of all
  // intermediate tensors.
  Graph g;
  ModelBuilder b(g, 6);
  int x = b.Input(32, 32, 16);
  std::size_t total_bytes = 0;
  for (int i = 0; i < 10; ++i) {
    x = b.Relu(x);
    total_bytes += Tensor::ByteSize(DataType::kFloat32, g.value(x).shape);
  }
  g.MarkOutput(x);
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  EXPECT_LT(model->arena_bytes(), total_bytes / 2)
      << "planner should reuse buffers along the chain";
}

TEST(ExecutionContext, MulChannelBroadcasts) {
  Graph g;
  ModelBuilder b(g, 8);
  int x = b.Input(2, 2, 2);
  const int gated = b.ChannelGate(x, /*reduction=*/1);
  g.MarkOutput(gated);
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  float* in = exec.input(0).data<float>();
  for (int i = 0; i < 8; ++i) in[i] = 1.0f;
  exec.Invoke();
  // Gate values are sigmoids in (0, 1): output strictly between 0 and 1, and
  // identical across spatial positions per channel.
  const float* o = exec.output(0).data<float>();
  for (int c = 0; c < 2; ++c) {
    EXPECT_GT(o[c], 0.0f);
    EXPECT_LT(o[c], 1.0f);
    for (int p = 1; p < 4; ++p) EXPECT_FLOAT_EQ(o[p * 2 + c], o[c]);
  }
}

TEST(ExecutionContext, MultipleGraphOutputs) {
  // A graph exposing both an intermediate and the final value as outputs.
  Graph g;
  ModelBuilder b(g, 12);
  int x = b.Input(4, 4, 8);
  const int mid = b.Relu(x);
  const int end = b.GlobalAvgPool(mid);
  g.MarkOutput(mid);
  g.MarkOutput(end);

  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  ASSERT_EQ(exec.num_outputs(), 2);
  Rng rng(2);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
  exec.Invoke();
  const Tensor mid_out = exec.output(0);
  const Tensor end_out = exec.output(1);
  EXPECT_EQ(mid_out.shape(), (Shape{1, 4, 4, 8}));
  EXPECT_EQ(end_out.shape(), (Shape{1, 8}));
  // The GAP output must be the mean of the (still-live) relu output.
  for (int c = 0; c < 8; ++c) {
    float sum = 0.0f;
    for (int p = 0; p < 16; ++p) sum += mid_out.data<float>()[p * 8 + c];
    EXPECT_NEAR(end_out.data<float>()[c], sum / 16.0f, 1e-5f) << c;
  }
}

TEST(ExecutionContext, BitpackedGraphOutput) {
  // A graph whose declared output is a bitpacked tensor.
  Graph g;
  ModelBuilder b(g, 13);
  int x = b.Input(4, 4, 40);
  OpAttrs q_attrs;
  const int q = g.AddNode(OpType::kLceQuantize, "q", {x}, q_attrs);
  g.MarkOutput(q);

  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  Rng rng(3);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
  exec.Invoke();
  const Tensor out = exec.output(0);
  EXPECT_EQ(out.dtype(), DataType::kBitpacked);
  EXPECT_EQ(out.storage_elements(), 16 * 2);
  // Spot-check sign agreement.
  Tensor unpacked(DataType::kFloat32, out.shape());
  UnpackTensor(out, unpacked);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    EXPECT_EQ(unpacked.data<float>()[i], SignValue(in.data<float>()[i]));
  }
}

TEST(ExecutionContext, GraphWithBitpackedChain) {
  // Manually-built inference-dialect graph: quantize -> bconv(bitpacked out)
  // -> bmaxpool -> dequantize.
  Graph g;
  ModelBuilder b(g, 9);
  int x = b.Input(8, 8, 32);
  OpAttrs q_attrs;
  const int q = g.AddNode(OpType::kLceQuantize, "q", {x}, q_attrs);

  Rng rng(10);
  Tensor w(DataType::kFloat32, Shape{32, 3, 3, 32});
  FillSigns(w, rng);
  const int w_id = g.AddConstant("w", std::move(w));
  OpAttrs bc_attrs;
  bc_attrs.conv.stride_h = bc_attrs.conv.stride_w = 1;
  bc_attrs.conv.padding = Padding::kSameOne;
  bc_attrs.bconv_output = BConvOutputType::kBitpacked;
  const int bc = g.AddNode(OpType::kLceBConv2d, "bconv", {q, w_id}, bc_attrs);

  OpAttrs mp_attrs;
  mp_attrs.pool.filter_h = mp_attrs.pool.filter_w = 2;
  mp_attrs.pool.stride_h = mp_attrs.pool.stride_w = 2;
  mp_attrs.pool.padding = Padding::kValid;
  const int mp = g.AddNode(OpType::kLceBMaxPool2d, "bmp", {bc}, mp_attrs);

  OpAttrs dq_attrs;
  const int dq = g.AddNode(OpType::kLceDequantize, "dq", {mp}, dq_attrs);
  g.MarkOutput(dq);

  std::shared_ptr<const CompiledModel> model;
  const Status compiled = CompiledModel::Compile(g, {}, &model);
  ASSERT_TRUE(compiled.ok()) << compiled.message();
  ExecutionContext exec(model);
  Rng rng2(11);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng2.Uniform();
  }
  exec.Invoke();
  const Tensor out = exec.output(0);
  EXPECT_EQ(out.shape(), (Shape{1, 4, 4, 32}));
  for (std::int64_t i = 0; i < out.num_elements(); ++i) {
    const float v = out.data<float>()[i];
    EXPECT_TRUE(v == 1.0f || v == -1.0f);
  }
}

// ---- Concat inputs written in place ----------------------------------------

// A converted DenseNet-style graph: a stem max pool, a block of bconvs of
// growth 32, a transition (max pool, ReLU, 1x1 conv with its batch norm)
// and a block of growth 64, each bconv in `pad`.
Graph DenseNetStyle(Padding pad) {
  Graph g;
  ModelBuilder b(g, 41);
  int x = b.Input(32, 32, 3);
  x = b.Conv(x, 16, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.MaxPool(x, 3, 2, Padding::kSameZero);
  for (const int growth : {32, 64}) {
    for (int layer = 0; layer < 3; ++layer) {
      int y = b.BinaryConv(x, growth, 3, 1, pad);
      y = b.BatchNorm(y);
      x = b.Concat({x, y});
    }
    if (growth == 32) {
      x = b.MaxPool(x, 2, 2, Padding::kValid);
      x = b.Relu(x);
      x = b.Conv(x, b.ChannelsOf(x) / 2, 1, 1, Padding::kValid);
      x = b.BatchNorm(x);
    }
  }
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  EXPECT_TRUE(Convert(g).ok());
  return g;
}

// The same graph with every Concat output also a graph output. Graph
// outputs are never hosts, so its plan writes no Concat input in place:
// the oracle for hosting.
Graph NoHostingTwin(const Graph& g) {
  Graph twin = CloneGraph(g);
  for (const int id : twin.TopologicalOrder()) {
    const Node& n = twin.node(id);
    if (n.type == OpType::kConcat) twin.MarkOutput(n.outputs[0]);
  }
  return twin;
}

std::shared_ptr<const CompiledModel> CompileOrDie(
    const Graph& g, int threads = 1,
    gemm::KernelProfile profile = gemm::KernelProfile::kSimd) {
  CompileOptions options;
  options.num_threads = threads;
  options.kernel_profile = profile;
  std::shared_ptr<const CompiledModel> model;
  const Status s = CompiledModel::Compile(g, options, &model);
  EXPECT_TRUE(s.ok()) << s.message();
  return model;
}

std::vector<std::uint8_t> Bytes(const Tensor& t) {
  const auto* p = static_cast<const std::uint8_t*>(t.raw_data());
  return std::vector<std::uint8_t>(p, p + t.byte_size());
}

// Output 0 of one Invoke over every lane of `model`, lane i's input drawn
// from seed first_seed + i.
std::vector<std::vector<std::uint8_t>> RunLanes(
    const std::shared_ptr<const CompiledModel>& model, int first_seed) {
  ExecutionContext exec(model);
  const int batch = model->signature().batch;
  for (int lane = 0; lane < batch; ++lane) {
    exec.set_io_lane(lane);
    Rng rng(first_seed + lane);
    Tensor in = exec.input(0);
    for (std::int64_t i = 0; i < in.num_elements(); ++i) {
      in.data<float>()[i] = rng.Uniform(-1.0f, 1.0f);
    }
  }
  exec.clear_io_lane();
  exec.Invoke();
  std::vector<std::vector<std::uint8_t>> out;
  for (int lane = 0; lane < batch; ++lane) {
    exec.set_io_lane(lane);
    out.push_back(Bytes(exec.output(0)));
  }
  return out;
}

std::shared_ptr<const CompiledModel> Batched(
    const std::shared_ptr<const CompiledModel>& root, int batch) {
  std::shared_ptr<const CompiledModel> model;
  const Status s = CompiledModel::Specialize(root, {batch, 0, 0}, &model);
  EXPECT_TRUE(s.ok()) << s.message();
  return model;
}

TEST(ConcatHosting, DenseNetStyleMatchesNoHostingTwinBitwise) {
  for (const Padding pad : {Padding::kSameOne, Padding::kSameZero}) {
    const Graph g = DenseNetStyle(pad);
    const Graph twin = NoHostingTwin(g);
    ASSERT_EQ(g.CountOps(OpType::kConcat), 6);
    for (const int threads : {1, 3}) {
      for (const gemm::KernelProfile profile :
           {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
        SCOPED_TRACE(::testing::Message()
                     << "pad " << static_cast<int>(pad) << " threads "
                     << threads << " profile " << static_cast<int>(profile));
        const auto hosted = CompileOrDie(g, threads, profile);
        const auto oracle = CompileOrDie(twin, threads, profile);
        // Every Concat input is written in place; the twin writes none.
        std::size_t concat_input_bytes = 0;
        for (const int id : g.TopologicalOrder()) {
          const Node& n = g.node(id);
          if (n.type != OpType::kConcat) continue;
          for (const int in : n.inputs) {
            concat_input_bytes += Tensor::ByteSize(g.value(in).dtype,
                                                   g.value(in).shape);
          }
        }
        EXPECT_EQ(hosted->hosted_bytes(), concat_input_bytes);
        EXPECT_EQ(oracle->hosted_bytes(), 0u);
        EXPECT_LT(hosted->arena_bytes(), oracle->arena_bytes());

        std::vector<std::vector<std::uint8_t>> single;
        for (int seed = 1; seed <= 3; ++seed) {
          const auto got = RunLanes(hosted, seed);
          ASSERT_EQ(got, RunLanes(oracle, seed)) << "seed " << seed;
          single.push_back(got[0]);
        }
        const auto lanes = RunLanes(Batched(hosted, 3), 1);
        EXPECT_EQ(lanes, RunLanes(Batched(oracle, 3), 1));
        EXPECT_EQ(lanes, single) << "each lane equals its batch-1 run";
      }
    }
  }
}

TEST(ConcatHosting, ObserverGetsDenseCopies) {
  const Graph g = DenseNetStyle(Padding::kSameZero);
  const Graph twin = NoHostingTwin(g);
  // Per node name: its output's bytes as the observer saw them.
  const auto observe = [](const Graph& graph) {
    std::map<std::string, std::vector<std::uint8_t>> seen;
    ExecutionOptions options;
    options.observer = [&](const Node& n, const Tensor& t) {
      EXPECT_TRUE(t.is_dense()) << n.name;
      seen[n.name] = Bytes(t);
    };
    ExecutionContext exec(CompileOrDie(graph), options);
    Rng rng(5);
    Tensor in = exec.input(0);
    for (std::int64_t i = 0; i < in.num_elements(); ++i) {
      in.data<float>()[i] = rng.Uniform(-1.0f, 1.0f);
    }
    exec.Invoke();
    return seen;
  };
  EXPECT_EQ(observe(g), observe(twin));
}

// One value's bytes in a context's arena: `rows` runs of `row_bytes`, each
// `stride_bytes` after the last, from `offset`.
struct Footprint {
  std::size_t offset;
  std::int64_t rows, row_bytes, stride_bytes;
  std::size_t end() const {
    return offset + static_cast<std::size_t>((rows - 1) * stride_bytes +
                                             row_bytes);
  }
};

Footprint FootprintOf(const CompiledModel& model, int id) {
  const Value& v = model.graph().value(id);
  const CompiledModel::ValuePlacement& p = model.placement(id);
  const Tensor dense = Tensor::View(v.dtype, v.shape, nullptr);
  const std::int64_t row = dense.row_stride();
  const std::int64_t elem = static_cast<std::int64_t>(DataTypeByteSize(v.dtype));
  return {p.offset, dense.storage_elements() / row, row * elem,
          (p.row_stride > 0 ? p.row_stride : row) * elem};
}

bool Disjoint(const Footprint& a, const Footprint& b) {
  if (a.stride_bytes == b.stride_bytes && a.rows == b.rows && a.rows > 1 &&
      a.stride_bytes > a.row_bytes) {
    // Two channel slices of one host: disjoint within each row.
    const std::size_t lo = std::min(a.offset, b.offset);
    const std::size_t hi = std::max(a.offset, b.offset);
    if (hi - lo < static_cast<std::size_t>(a.stride_bytes)) {
      const std::int64_t lo_bytes = lo == a.offset ? a.row_bytes : b.row_bytes;
      return hi >= lo + static_cast<std::size_t>(lo_bytes) &&
             hi + static_cast<std::size_t>(hi == a.offset ? a.row_bytes
                                                          : b.row_bytes) <=
                 lo + static_cast<std::size_t>(a.stride_bytes);
    }
  }
  return a.end() <= b.offset || b.end() <= a.offset;
}

// Whether `outer` hosts `inner`, directly or through nested hosts.
bool Hosts(const CompiledModel& model, int outer, int inner) {
  for (int h = model.placement(inner).host; h >= 0;
       h = model.placement(h).host) {
    if (h == outer) return true;
  }
  return false;
}

// Any two values whose lifetimes overlap occupy disjoint bytes, unless one
// hosts the other, whose channel slice then lies inside the host's rows.
// Lifetimes are recomputed here from the graph, not taken from the planner.
void ExpectPlanIsSound(const CompiledModel& model) {
  const Graph& g = model.graph();
  const std::vector<int> order = g.TopologicalOrder();
  const int steps = static_cast<int>(order.size());
  std::vector<int> step(g.nodes().size(), -1);
  for (int i = 0; i < steps; ++i) step[order[i]] = i;
  struct Life {
    int id, first, last;
  };
  std::vector<Life> lives;
  for (const auto& v : g.values()) {
    if (!v->alive || v->is_constant) continue;
    int first = v->producer >= 0 ? step[v->producer] : 0;
    int last = first;
    for (const int c : v->consumers) last = std::max(last, step[c]);
    const auto& outs = g.output_ids();
    if (std::find(outs.begin(), outs.end(), v->id) != outs.end()) {
      first = 0;
      last = steps;
    }
    lives.push_back({v->id, first, last});
  }
  int nested = 0;
  for (std::size_t i = 0; i < lives.size(); ++i) {
    for (std::size_t j = i + 1; j < lives.size(); ++j) {
      const Life& a = lives[i];
      const Life& b = lives[j];
      if (a.last < b.first || b.last < a.first) continue;
      const Footprint fa = FootprintOf(model, a.id);
      const Footprint fb = FootprintOf(model, b.id);
      if (Hosts(model, a.id, b.id) || Hosts(model, b.id, a.id)) {
        const bool a_outer = Hosts(model, a.id, b.id);
        const Footprint& outer = a_outer ? fa : fb;
        const Footprint& inner = a_outer ? fb : fa;
        EXPECT_EQ(inner.stride_bytes, outer.stride_bytes);
        EXPECT_GE(inner.offset, outer.offset);
        EXPECT_LE(inner.offset + inner.row_bytes,
                  outer.offset + outer.row_bytes);
        ++nested;
        continue;
      }
      EXPECT_TRUE(Disjoint(fa, fb))
          << g.value(a.id).name << " and " << g.value(b.id).name;
    }
  }
  if (model.hosted_bytes() > 0) {
    EXPECT_GT(nested, 0);
  }
}

TEST(ConcatHosting, OverlappingLifetimesOccupyDisjointBytes) {
  ExpectPlanIsSound(*CompileOrDie(DenseNetStyle(Padding::kSameOne)));
  const Graph densenet = [] {
    Graph g = BuildBinaryDenseNet28(96);
    EXPECT_TRUE(Convert(g).ok());
    return g;
  }();
  const auto model = CompileOrDie(densenet);
  EXPECT_GT(model->hosted_bytes(), 0u);
  ExpectPlanIsSound(*model);
  ExpectPlanIsSound(*Batched(model, 2));
  Graph melius = BuildMeliusNet22(96);
  ASSERT_TRUE(Convert(melius).ok());
  ExpectPlanIsSound(*CompileOrDie(melius));
}

// The hosted bytes are the Concat copies a request no longer makes: all
// of BinaryDenseNet28's 23, and none for QuickNet-L, which has no Concat.
TEST(ConcatHosting, HostedBytesCountEveryDenseNetCopy) {
  Graph densenet = BuildBinaryDenseNet28(96);
  ASSERT_TRUE(Convert(densenet).ok());
  ASSERT_EQ(densenet.CountOps(OpType::kConcat), 23);
  std::size_t concat_input_bytes = 0;
  for (const int id : densenet.TopologicalOrder()) {
    const Node& n = densenet.node(id);
    if (n.type != OpType::kConcat) continue;
    for (const int in : n.inputs) {
      const Value& v = densenet.value(in);
      concat_input_bytes += Tensor::ByteSize(v.dtype, v.shape);
    }
  }
  telemetry::MetricsRegistry::Global().Reset();
  const auto model = CompileOrDie(densenet);
  EXPECT_EQ(model->hosted_bytes(), concat_input_bytes);
  EXPECT_EQ(telemetry::MetricsRegistry::Global()
                .Gauge("planner.hosted_bytes")
                ->value(),
            static_cast<std::int64_t>(concat_input_bytes));

  Graph quicknet = BuildQuickNet(QuickNetLargeConfig(), 96);
  ASSERT_TRUE(Convert(quicknet).ok());
  EXPECT_EQ(CompileOrDie(quicknet)->hosted_bytes(), 0u);
}

// Two 1x1 float convolutions of one 8x8 input: a plain pair of strided
// writers whose other readers each case below chooses.
struct ConvPair {
  Graph g;
  ModelBuilder m{g, 43};
  int in = m.Input(8, 8, 4);
  int a = m.Conv(in, 8, 1, 1, Padding::kValid);
  int b = m.Conv(in, 8, 1, 1, Padding::kValid);
};

// Runs `g` and its no-hosting twin on one input; their outputs must agree.
void ExpectSameOutputsAsTwin(const Graph& g) {
  const Graph twin = NoHostingTwin(g);
  for (const int threads : {1, 3}) {
    const auto hosted = CompileOrDie(g, threads);
    const auto oracle = CompileOrDie(twin, threads);
    ExecutionContext x(hosted), y(oracle);
    for (ExecutionContext* exec : {&x, &y}) {
      Rng rng(9);
      Tensor in = exec->input(0);
      for (std::int64_t i = 0; i < in.num_elements(); ++i) {
        in.data<float>()[i] = rng.Uniform(-1.0f, 1.0f);
      }
      exec->Invoke();
    }
    for (int i = 0; i < x.num_outputs(); ++i) {
      EXPECT_EQ(Bytes(x.output(i)), Bytes(y.output(i))) << "output " << i;
    }
  }
}

TEST(ConcatHosting, HostsOnlyWhatTheContractAllows) {
  {
    // The baseline: both inputs written in place.
    ConvPair p;
    const int c = p.m.Concat({p.a, p.b});
    p.g.MarkOutput(p.m.Relu(c));
    const auto model = CompileOrDie(p.g);
    EXPECT_EQ(model->placement(p.a).host, c);
    EXPECT_EQ(model->placement(p.b).host, c);
    EXPECT_EQ(model->placement(p.b).offset,
              model->placement(c).offset + 8 * sizeof(float));
    EXPECT_EQ(model->placement(p.b).row_stride, 16);
    ExpectSameOutputsAsTwin(p.g);
  }
  {
    // The Concat output is a graph output: never a host, so a cancelled
    // request cannot have partly written it.
    ConvPair p;
    const int c = p.m.Concat({p.a, p.b});
    p.g.MarkOutput(c);
    EXPECT_EQ(CompileOrDie(p.g)->hosted_bytes(), 0u);
  }
  {
    // Concat({y, y}), the BinaryResNetE18 / ReActNet shortcut.
    ConvPair p;
    const int c = p.m.Concat({p.a, p.a});
    p.g.MarkOutput(p.m.Relu(c));
    p.g.MarkOutput(p.m.Relu(p.b));
    EXPECT_EQ(CompileOrDie(p.g)->hosted_bytes(), 0u);
    ExpectSameOutputsAsTwin(p.g);
  }
  {
    // A graph input is copied; the conv beside it is still written in place.
    ConvPair p;
    const int c = p.m.Concat({p.in, p.a});
    p.g.MarkOutput(p.m.Relu(c));
    p.g.MarkOutput(p.m.Relu(p.b));
    const auto model = CompileOrDie(p.g);
    EXPECT_EQ(model->placement(p.in).host, -1);
    EXPECT_EQ(model->placement(p.a).host, c);
    ExpectSameOutputsAsTwin(p.g);
  }
  {
    // An input also read by an Add or a MaxPool2D, which read dense rows.
    ConvPair p;
    const int c = p.m.Concat({p.a, p.b});
    p.g.MarkOutput(p.m.Relu(c));
    p.g.MarkOutput(p.m.Add(p.a, p.a));
    p.g.MarkOutput(p.m.MaxPool(p.b, 2, 2, Padding::kValid));
    EXPECT_EQ(CompileOrDie(p.g)->hosted_bytes(), 0u);
    ExpectSameOutputsAsTwin(p.g);
  }
  {
    // One value read by two Concats: hosted by the first, copied (through
    // its row stride) by the second.
    ConvPair p;
    const int c1 = p.m.Concat({p.a, p.b});
    const int d = p.m.Conv(p.in, 8, 1, 1, Padding::kValid);
    const int c2 = p.m.Concat({d, p.a});
    p.g.MarkOutput(p.m.Relu(c1));
    p.g.MarkOutput(p.m.Relu(c2));
    const auto model = CompileOrDie(p.g);
    EXPECT_EQ(model->placement(p.a).host, c1);
    EXPECT_EQ(model->placement(d).host, c2);
    ExpectPlanIsSound(*model);
    ExpectSameOutputsAsTwin(p.g);
  }
}

TEST(ExecutionContextDeathTest, IoIndexOutOfRangeAborts) {
  // input(i) / output(i) index the graph's I/O lists; an index past either
  // end must abort instead of reading off the end of the id vector.
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(2, 2, 1);
  x = b.Relu(x);
  g.MarkOutput(x);
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  EXPECT_DEATH(exec.input(1), "input\\(\\) index out of range");
  EXPECT_DEATH(exec.input(-1), "input\\(\\) index out of range");
  EXPECT_DEATH(exec.output(1), "output\\(\\) index out of range");
  EXPECT_DEATH(exec.output(-1), "output\\(\\) index out of range");
}

}  // namespace
}  // namespace lce
