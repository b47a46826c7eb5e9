// Runtime tests: end-to-end execution of small graphs through
// CompiledModel::Compile + ExecutionContext against hand-computed results,
// arena reuse safety, repeated invocation and profiling output.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"

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
