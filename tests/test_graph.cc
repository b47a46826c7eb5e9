// Graph IR tests: construction, shape inference, validation, topological
// order and the rewrite primitives the converter relies on.
#include <gtest/gtest.h>

#include "core/random.h"
#include "graph/ir.h"
#include "graph/validator.h"
#include "models/builder.h"

namespace lce {
namespace {

TEST(GraphIR, ConvShapeInference) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 8, 3, 2, Padding::kSameZero);
  EXPECT_EQ(g.value(x).shape, (Shape{1, 8, 8, 8}));
  EXPECT_EQ(g.value(x).dtype, DataType::kFloat32);
}

TEST(GraphIR, BinaryConvCreatesSignAndConv) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(8, 8, 32);
  x = b.BinaryConv(x, 64, 3, 1, Padding::kSameOne);
  EXPECT_EQ(g.value(x).shape, (Shape{1, 8, 8, 64}));
  EXPECT_EQ(g.CountOps(OpType::kFakeSign), 1);
  EXPECT_EQ(g.CountOps(OpType::kConv2D), 1);
}

TEST(GraphIR, SharedSignIsReused) {
  Graph g;
  ModelBuilder b(g);
  const int x = b.Input(8, 8, 32);
  b.BinaryConv(x, 16, 3, 1, Padding::kSameOne);
  b.BinaryConv(x, 16, 3, 1, Padding::kSameOne);
  EXPECT_EQ(g.CountOps(OpType::kFakeSign), 1)
      << "convs on the same input must share one FakeSign";
}

TEST(GraphIR, ValidatePassesOnWellFormedGraph) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(32, 32, 3);
  x = b.Conv(x, 16, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  const Status s = ValidateGraph(g, ResourceLimits::Unlimited());
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST(GraphIR, TopologicalOrderRespectsDependencies) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(8, 8, 4);
  const int a = b.Relu(x);
  const int c = b.Add(a, x);
  g.MarkOutput(c);
  const auto order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(g.node(order[0]).type, OpType::kRelu);
  EXPECT_EQ(g.node(order[1]).type, OpType::kAdd);
}

TEST(GraphIR, TopologicalOrderHandlesLateInsertedProducers) {
  // A rewrite can append a node that must execute before existing ones.
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(4, 4, 4);
  const int relu_out = b.Relu(x);   // node 0
  const int add_out = b.Add(relu_out, relu_out);  // node 1
  g.MarkOutput(add_out);
  // Insert a BatchNorm between input and relu, as a pass would.
  OpAttrs attrs;
  attrs.bn_scale.assign(4, 1.0f);
  attrs.bn_offset.assign(4, 0.0f);
  const int bn_out = g.AddNode(OpType::kBatchNorm, "late_bn", {x}, attrs);
  g.ReplaceInput(g.value(relu_out).producer, x, bn_out);
  ASSERT_TRUE(ValidateGraph(g, ResourceLimits::Unlimited()).ok());
  const auto order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(g.node(order[0]).name, "late_bn");
}

TEST(GraphIR, ReplaceAllUsesRewiresConsumersAndOutputs) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(4, 4, 4);
  const int old_v = b.Relu(x);
  const int consumer = b.Relu(old_v);
  g.MarkOutput(old_v);
  const int new_v = b.BatchNorm(x);
  g.ReplaceAllUses(old_v, new_v);
  // The consumer now reads new_v, and the graph output moved.
  EXPECT_EQ(g.node(g.value(consumer).producer).inputs[0], new_v);
  EXPECT_EQ(g.output_ids()[0], new_v);
  EXPECT_TRUE(g.value(old_v).consumers.empty());
}

TEST(GraphIR, RemoveNodeDetachesConsumers) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(4, 4, 4);
  const int y = b.Relu(x);
  const int node_id = g.value(y).producer;
  g.RemoveNode(node_id);
  EXPECT_FALSE(g.node(node_id).alive);
  EXPECT_FALSE(g.value(y).alive);
  // The input no longer lists the removed node as a consumer.
  for (int c : g.value(x).consumers) EXPECT_NE(c, node_id);
  EXPECT_EQ(g.LiveNodeCount(), 0);
}

TEST(GraphIR, ValidateCatchesDanglingOutput) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(4, 4, 4);
  const int y = b.Relu(x);
  g.MarkOutput(y);
  g.RemoveNode(g.value(y).producer);
  EXPECT_FALSE(ValidateGraph(g, ResourceLimits::Unlimited()).ok());
}

TEST(GraphIR, ConcatChannelArithmetic) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(4, 4, 10);
  const int y = b.Relu(x);
  const int z = b.Concat({x, y, x});
  EXPECT_EQ(g.value(z).shape, (Shape{1, 4, 4, 30}));
}

TEST(GraphIR, SliceBoundsChecked) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(4, 4, 10);
  const int s = b.Slice(x, 2, 5);
  EXPECT_EQ(g.value(s).shape, (Shape{1, 4, 4, 5}));
}

TEST(GraphIR, ConstantBytesCountsOnlyLiveConsumers) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(8, 8, 4);
  const int y = b.Conv(x, 8, 3, 1, Padding::kSameZero);
  const std::size_t with_conv = g.ConstantBytes();
  EXPECT_GT(with_conv, 0u);
  g.RemoveNode(g.value(y).producer);
  EXPECT_EQ(g.ConstantBytes(), 0u);
}

}  // namespace
}  // namespace lce
