// Structural assertions on the model zoo: operator counts, channel
// progressions and converted-graph op mixes that pin down each
// architecture's identity (so a builder regression cannot silently change
// which model we benchmark).
#include <gtest/gtest.h>

#include "converter/convert.h"
#include "converter/passes.h"
#include "graph/validator.h"
#include "models/builder.h"
#include "models/macs.h"
#include "models/zoo.h"

namespace lce {
namespace {

int CountBinarizedConvs(const Graph& g) {
  int n = 0;
  for (const auto& node : g.nodes()) {
    if (node->alive && node->type == OpType::kConv2D &&
        node->attrs.binarize_weights) {
      ++n;
    }
  }
  return n;
}

TEST(ZooStructure, QuickNetLayerCounts) {
  // N = (4,4,4,4) -> 16 binarized convs; N = (6,8,12,6) -> 32.
  EXPECT_EQ(CountBinarizedConvs(BuildQuickNet(QuickNetSmallConfig(), 64)), 16);
  EXPECT_EQ(CountBinarizedConvs(BuildQuickNet(QuickNetMediumConfig(), 64)), 16);
  EXPECT_EQ(CountBinarizedConvs(BuildQuickNet(QuickNetLargeConfig(), 64)), 32);
}

TEST(ZooStructure, QuickNetHasThreeTransitions) {
  Graph g = BuildQuickNet(QuickNetMediumConfig(), 64);
  // Each transition contributes one blur-pool depthwise conv; the stem
  // contributes one more depthwise conv.
  EXPECT_EQ(g.CountOps(OpType::kDepthwiseConv2D), 4);
  EXPECT_EQ(g.CountOps(OpType::kMaxPool2D), 3);  // blur-pool max components
}

TEST(ZooStructure, BiRealNetHasSixteenBinaryLayersAndSixteenShortcuts) {
  Graph g = BuildBiRealNet18(64);
  EXPECT_EQ(CountBinarizedConvs(g), 16);
  EXPECT_EQ(g.CountOps(OpType::kAdd), 16);  // per-layer shortcuts
  // Downsample shortcuts: 3 stages x (avgpool + 1x1 conv).
  EXPECT_EQ(g.CountOps(OpType::kAvgPool2D), 3);
}

TEST(ZooStructure, AlexNetsHaveSevenBinarizedLayers) {
  // 4 feature convs + 1 flatten-conv + 1 1x1 "FC" conv... : 6 binarized
  // convolutions; the 11x11 first conv and final classifier stay float.
  Graph g = BuildBinaryAlexNet(64);
  EXPECT_EQ(CountBinarizedConvs(g), 6);
  int float_convs = 0;
  for (const auto& n : g.nodes()) {
    if (n->alive && n->type == OpType::kConv2D && !n->attrs.binarize_weights) {
      ++float_convs;
    }
  }
  EXPECT_EQ(float_convs, 1);  // only the 11x11 stem
  EXPECT_EQ(g.CountOps(OpType::kFullyConnected), 1);
}

TEST(ZooStructure, DenseNetsConcatEveryLayer) {
  Graph g28 = BuildBinaryDenseNet28(64);
  EXPECT_EQ(g28.CountOps(OpType::kConcat), 6 + 6 + 6 + 5);
  EXPECT_EQ(CountBinarizedConvs(g28), 23);
  Graph g37 = BuildBinaryDenseNet37(64);
  EXPECT_EQ(g37.CountOps(OpType::kConcat), 6 + 8 + 12 + 6);
  EXPECT_EQ(CountBinarizedConvs(g37), 32);
}

TEST(ZooStructure, MeliusNetDenseImprovementPairs) {
  Graph g = BuildMeliusNet22(64);
  const int pairs = 4 + 5 + 4 + 4;
  EXPECT_EQ(CountBinarizedConvs(g), 2 * pairs);  // dense + improvement convs
  EXPECT_EQ(g.CountOps(OpType::kSlice), 2 * pairs);
  EXPECT_EQ(g.CountOps(OpType::kAdd), pairs);
  EXPECT_EQ(g.CountOps(OpType::kConcat), 2 * pairs);
}

TEST(ZooStructure, RealToBinaryGatesEveryBinaryConv) {
  Graph g = BuildRealToBinaryNet(64);
  EXPECT_EQ(CountBinarizedConvs(g), 16);
  EXPECT_EQ(g.CountOps(OpType::kMulChannel), 16);
  // Each gate has two FCs; plus the classifier.
  EXPECT_EQ(g.CountOps(OpType::kFullyConnected), 33);
}

TEST(ZooStructure, ConvertedQuickNetOpMix) {
  Graph g = BuildQuickNet(QuickNetMediumConfig(), 64);
  ConvertStats stats;
  ASSERT_TRUE(Convert(g, {}, &stats).ok());
  EXPECT_EQ(g.CountOps(OpType::kLceBConv2d), 16);
  // Shortcuts force float output everywhere: one quantize per binarized
  // layer (inputs come from Adds), none elided.
  EXPECT_EQ(g.CountOps(OpType::kLceQuantize), 16);
  EXPECT_EQ(stats.quantizes_elided, 0);
  EXPECT_EQ(g.CountOps(OpType::kBatchNorm), 0) << "all BNs must fuse";
  // Even the pre-GAP ReLU fuses (into the last shortcut Add).
  EXPECT_EQ(g.CountOps(OpType::kRelu), 0);
  bool add_with_relu = false;
  for (const auto& n : g.nodes()) {
    if (n->alive && n->type == OpType::kAdd &&
        n->attrs.activation == Activation::kRelu) {
      add_with_relu = true;
    }
  }
  EXPECT_TRUE(add_with_relu);
}

TEST(ZooStructure, ConvertedShortcutFreeResNetChainsBitpacked) {
  Graph g = BuildBinarizedResNet18(ShortcutMode::kNone, 64);
  ConvertStats stats;
  ASSERT_TRUE(Convert(g, {}, &stats).ok());
  // 16 binary layers chained: all but stage-crossing ones elide quantize.
  EXPECT_GE(stats.quantizes_elided, 12);
  int bitpacked_out = 0;
  for (const auto& n : g.nodes()) {
    if (n->alive && n->type == OpType::kLceBConv2d &&
        n->attrs.bconv_output == BConvOutputType::kBitpacked) {
      ++bitpacked_out;
    }
  }
  EXPECT_GE(bitpacked_out, 12);
}

TEST(ZooStructure, ChannelProgressionQuickNet) {
  Graph g = BuildQuickNet(QuickNetMediumConfig(), 224);
  // The four blocks must use filters (64,128,256,512) at spatial
  // (56,28,14,7).
  const int expected_c[4] = {64, 128, 256, 512};
  const int expected_hw[4] = {56, 28, 14, 7};
  int block = 0, seen = 0;
  for (const auto& n : g.nodes()) {
    if (!n->alive || n->type != OpType::kConv2D || !n->attrs.binarize_weights) {
      continue;
    }
    const int idx = seen / 4;  // 4 layers per block
    ASSERT_LT(idx, 4);
    EXPECT_EQ(n->attrs.conv.out_c, expected_c[idx]) << "layer " << seen;
    EXPECT_EQ(n->attrs.conv.in_h, expected_hw[idx]) << "layer " << seen;
    ++seen;
    block = idx;
  }
  EXPECT_EQ(block, 3);
  EXPECT_EQ(seen, 16);
}

TEST(ZooStructure, CancelLceQuantizeDequantizePass) {
  // Hand-built graph with a dequantize->quantize round trip between two
  // binarized convolutions; the converter must cancel it.
  Graph g;
  ModelBuilder b(g, 61);
  int x = b.Input(8, 8, 32);
  OpAttrs q_attrs;
  int v = g.AddNode(OpType::kLceQuantize, "q0", {x}, q_attrs);
  Rng rng(1);
  Tensor w(DataType::kFloat32, Shape{32, 3, 3, 32});
  FillSigns(w, rng);
  const int w_id = g.AddConstant("w", std::move(w));
  OpAttrs bc;
  bc.conv.stride_h = bc.conv.stride_w = 1;
  bc.conv.padding = Padding::kSameOne;
  bc.bconv_output = BConvOutputType::kBitpacked;
  v = g.AddNode(OpType::kLceBConv2d, "bconv0", {v, w_id}, bc);
  OpAttrs dq_attrs;
  v = g.AddNode(OpType::kLceDequantize, "dq", {v}, dq_attrs);
  v = g.AddNode(OpType::kLceQuantize, "q1", {v}, q_attrs);  // cancels
  Tensor w2(DataType::kFloat32, Shape{32, 3, 3, 32});
  FillSigns(w2, rng);
  const int w2_id = g.AddConstant("w2", std::move(w2));
  bc.bconv_output = BConvOutputType::kFloat;
  v = g.AddNode(OpType::kLceBConv2d, "bconv1", {v, w2_id}, bc);
  g.MarkOutput(v);
  ASSERT_TRUE(ValidateGraph(g, ResourceLimits::Unlimited()).ok());

  EXPECT_EQ(CancelLceQuantizeDequantize(g), 1);
  EliminateDeadNodes(g);
  ASSERT_TRUE(ValidateGraph(g, ResourceLimits::Unlimited()).ok());
  EXPECT_EQ(g.CountOps(OpType::kLceDequantize), 0);
  EXPECT_EQ(g.CountOps(OpType::kLceQuantize), 1);
}

TEST(ZooStructure, FloatResNet18Baseline) {
  Graph g = BuildFloatResNet18(64);
  EXPECT_EQ(CountBinarizedConvs(g), 0);
  const ModelStats stats = ComputeModelStats(g);
  EXPECT_EQ(stats.binary_macs, 0);
  EXPECT_GT(stats.float_macs, 0);
  // 17 weight-layer convs + 3 downsample shortcuts = 20 convolutions.
  EXPECT_EQ(g.CountOps(OpType::kConv2D), 20);
}

}  // namespace
}  // namespace lce
