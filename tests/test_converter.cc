// Converter tests: each pass must preserve semantics (the training graph and
// the converted graph compute the same function on random inputs), produce
// the expected operator structure, and bit-exactly match along fully
// bitpacked paths.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "converter/convert.h"
#include "converter/passes.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "graph/validator.h"
#include "models/builder.h"

namespace lce {
namespace {

std::vector<float> RunGraph(const Graph& g, const std::vector<float>& input) {
  std::shared_ptr<const CompiledModel> model;
  const Status s = CompiledModel::Compile(g, {}, &model);
  EXPECT_TRUE(s.ok()) << s.message();
  if (!s.ok()) return {};
  ExecutionContext exec(model);
  Tensor in = exec.input(0);
  EXPECT_EQ(static_cast<std::size_t>(in.num_elements()), input.size());
  std::copy(input.begin(), input.end(), in.data<float>());
  exec.Invoke();
  const Tensor out = exec.output(0);
  return std::vector<float>(out.data<float>(),
                            out.data<float>() + out.num_elements());
}

std::vector<float> RandomInput(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  const Shape& s = g.value(g.input_ids()[0]).shape;
  std::vector<float> in(s.num_elements());
  for (auto& v : in) v = rng.Uniform(-1.5f, 1.5f);
  return in;
}

void ExpectSameFunction(const Graph& a, const Graph& b, std::uint64_t seed,
                        float tol) {
  const auto input = RandomInput(a, seed);
  const auto ya = RunGraph(a, input);
  const auto yb = RunGraph(b, input);
  ASSERT_EQ(ya.size(), yb.size());
  for (std::size_t i = 0; i < ya.size(); ++i) {
    ASSERT_NEAR(ya[i], yb[i], tol) << "output " << i;
  }
}

// A QuickNet-style micro model exercising all rewrite patterns: fp stem with
// BN, binarized residual layers with ReLU+BN, maxpool before binarization,
// chained binarized convs, fp classifier.
Graph MicroModel(bool with_shortcut, Padding bin_pad) {
  Graph g;
  ModelBuilder b(g, 99);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  // Residual binarized layer.
  {
    int y = b.BinaryConv(x, 32, 3, 1, bin_pad);
    y = b.Relu(y);
    y = b.BatchNorm(y);
    x = with_shortcut ? b.Add(x, y) : y;
  }
  // MaxPool feeding a binarized conv (bmaxpool swap pattern).
  x = b.MaxPool(x, 2, 2, Padding::kValid);
  // Two chained binarized convs (quantize-elision pattern).
  x = b.BinaryConv(x, 64, 3, 1, bin_pad);
  x = b.BatchNorm(x);
  x = b.BinaryConv(x, 64, 3, 1, bin_pad);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  return g;
}

TEST(CloneGraph, ClonesComputeTheSameFunction) {
  Graph g = MicroModel(true, Padding::kSameOne);
  Graph clone = CloneGraph(g);
  ASSERT_TRUE(ValidateGraph(clone, ResourceLimits::Unlimited()).ok());
  ExpectSameFunction(g, clone, 1, 0.0f);
}

TEST(ConverterPasses, FuseBatchNormIntoFloatConv) {
  Graph g;
  ModelBuilder b(g, 4);
  int x = b.Input(8, 8, 3);
  x = b.Conv(x, 16, 3, 1, Padding::kSameZero);
  x = b.BatchNorm(x);
  g.MarkOutput(x);
  Graph converted = CloneGraph(g);
  EXPECT_EQ(FuseBatchNormIntoFloatConv(converted), 1);
  ASSERT_TRUE(ValidateGraph(converted, ResourceLimits::Unlimited()).ok());
  EXPECT_EQ(converted.CountOps(OpType::kBatchNorm), 0);
  ExpectSameFunction(g, converted, 2, 1e-4f);
}

TEST(ConverterPasses, BatchNormNotFusedWhenConvHasOtherUse) {
  Graph g;
  ModelBuilder b(g, 4);
  int x = b.Input(8, 8, 3);
  const int conv = b.Conv(x, 16, 3, 1, Padding::kSameZero);
  const int bn = b.BatchNorm(conv);
  const int add = b.Add(conv, bn);  // conv output used twice
  g.MarkOutput(add);
  EXPECT_EQ(FuseBatchNormIntoFloatConv(g), 0);
}

TEST(ConverterPasses, FuseActivation) {
  Graph g;
  ModelBuilder b(g, 5);
  int x = b.Input(8, 8, 3);
  x = b.Conv(x, 8, 3, 1, Padding::kSameZero);
  x = b.Relu(x);
  g.MarkOutput(x);
  Graph converted = CloneGraph(g);
  EXPECT_EQ(FuseActivationIntoFloatOps(converted), 1);
  EXPECT_EQ(converted.CountOps(OpType::kRelu), 0);
  ExpectSameFunction(g, converted, 3, 1e-4f);
}

TEST(ConverterPasses, LowerBinarizedConvs) {
  Graph g;
  ModelBuilder b(g, 6);
  int x = b.Input(8, 8, 32);
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  g.MarkOutput(x);
  Graph converted = CloneGraph(g);
  EXPECT_EQ(LowerBinarizedConvs(converted), 1);
  EliminateDeadNodes(converted);
  ASSERT_TRUE(ValidateGraph(converted, ResourceLimits::Unlimited()).ok());
  EXPECT_EQ(converted.CountOps(OpType::kLceQuantize), 1);
  EXPECT_EQ(converted.CountOps(OpType::kLceBConv2d), 1);
  EXPECT_EQ(converted.CountOps(OpType::kFakeSign), 0);
  EXPECT_EQ(converted.CountOps(OpType::kConv2D), 0);
  // Binary conv outputs are integer-valued: exact equality expected.
  ExpectSameFunction(g, converted, 4, 0.0f);
}

TEST(ConverterPasses, SharedSignLowersToSharedQuantize) {
  Graph g;
  ModelBuilder b(g, 7);
  const int x = b.Input(8, 8, 32);
  const int c1 = b.BinaryConv(x, 16, 3, 1, Padding::kSameOne);
  const int c2 = b.BinaryConv(x, 16, 3, 1, Padding::kSameOne);
  const int sum = b.Add(c1, c2);
  g.MarkOutput(sum);
  EXPECT_EQ(LowerBinarizedConvs(g), 2);
  EliminateDeadNodes(g);
  EXPECT_EQ(g.CountOps(OpType::kLceQuantize), 1)
      << "convs sharing a binarized input share one LceQuantize";
}

TEST(ConverterPasses, FuseBConvOutputTransform) {
  Graph g = MicroModel(false, Padding::kSameOne);
  LowerBinarizedConvs(g);
  const int fused = FuseBConvOutputTransform(g);
  EXPECT_GE(fused, 3);  // relu+bn on layer 1, bn on layers 2 and 3
  ASSERT_TRUE(ValidateGraph(g, ResourceLimits::Unlimited()).ok());
}

TEST(ConverterPasses, ElideQuantizeMakesBitpackedChain) {
  Graph g = MicroModel(false, Padding::kSameOne);
  Graph original = CloneGraph(g);
  ConvertStats stats;
  ASSERT_TRUE(Convert(g, {}, &stats).ok());
  EXPECT_GE(stats.quantizes_elided, 1);
  // At least one bconv writes bitpacked output directly.
  int bitpacked_out = 0;
  for (const auto& n : g.nodes()) {
    if (n->alive && n->type == OpType::kLceBConv2d &&
        n->attrs.bconv_output == BConvOutputType::kBitpacked) {
      ++bitpacked_out;
    }
  }
  EXPECT_GE(bitpacked_out, 1);
  ExpectSameFunction(original, g, 5, 1e-4f);
}

TEST(ConverterPasses, SwapMaxPoolSign) {
  Graph g = MicroModel(false, Padding::kSameOne);
  ConvertStats stats;
  ASSERT_TRUE(Convert(g, {}, &stats).ok());
  EXPECT_EQ(stats.maxpools_binarized, 1);
  EXPECT_EQ(g.CountOps(OpType::kLceBMaxPool2d), 1);
  EXPECT_EQ(g.CountOps(OpType::kMaxPool2D), 0);
}

class ConvertEndToEnd
    : public ::testing::TestWithParam<std::pair<bool, Padding>> {};

TEST_P(ConvertEndToEnd, PreservesSemantics) {
  const auto [with_shortcut, pad] = GetParam();
  Graph g = MicroModel(with_shortcut, pad);
  Graph converted = CloneGraph(g);
  ConvertStats stats;
  ASSERT_TRUE(Convert(converted, {}, &stats).ok());
  EXPECT_EQ(stats.bconvs_lowered, 3);
  EXPECT_EQ(converted.CountOps(OpType::kFakeSign), 0);
  // The final classifier is fp32, so allow tiny numerical differences from
  // the reassociated fused arithmetic.
  ExpectSameFunction(g, converted, 6 + static_cast<int>(pad), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ConvertEndToEnd,
    ::testing::Values(std::make_pair(true, Padding::kSameOne),
                      std::make_pair(false, Padding::kSameOne),
                      std::make_pair(true, Padding::kSameZero),
                      std::make_pair(false, Padding::kSameZero)));

TEST(Convert, DisabledOptimizationsStillCorrect) {
  Graph g = MicroModel(true, Padding::kSameOne);
  Graph converted = CloneGraph(g);
  ConvertOptions opts;
  opts.fuse_batch_norm = false;
  opts.fuse_bconv_output_transform = false;
  opts.swap_maxpool_sign = false;
  opts.elide_quantize = false;
  ASSERT_TRUE(Convert(converted, opts).ok());
  // Unfused: BatchNorm nodes survive, no binary maxpool, no bitpacked chain.
  EXPECT_GT(converted.CountOps(OpType::kBatchNorm), 0);
  EXPECT_EQ(converted.CountOps(OpType::kLceBMaxPool2d), 0);
  ExpectSameFunction(g, converted, 9, 1e-3f);
}

TEST(Convert, WeightCompressionShrinksModel) {
  Graph g;
  ModelBuilder b(g, 10);
  int x = b.Input(16, 16, 256);
  x = b.BinaryConv(x, 256, 3, 1, Padding::kSameOne);
  x = b.GlobalAvgPool(x);
  g.MarkOutput(x);
  const std::size_t before = g.ConstantBytes();
  ASSERT_TRUE(Convert(g).ok());
  const std::size_t after = g.ConstantBytes();
  EXPECT_EQ(before, after * 32) << "binary weights must shrink 32x";
}

TEST(Convert, BitExactOnFullyBinaryPath) {
  // quantize-elision path must be bit-exact: compare the bconv chain's
  // binarized outputs via a final dequantize.
  Graph g;
  ModelBuilder b(g, 11);
  int x = b.Input(8, 8, 64);
  x = b.BinaryConv(x, 64, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.BinaryConv(x, 64, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  g.MarkOutput(x);
  Graph converted = CloneGraph(g);
  ASSERT_TRUE(Convert(converted).ok());
  ExpectSameFunction(g, converted, 12, 1e-4f);
}

}  // namespace
}  // namespace lce
