// Post-training int8 quantization tests: the quantized graph must
// approximate the float graph within quantization error, chain int8
// activations between adjacent convolutions, and survive serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "converter/ptq.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "models/zoo.h"

namespace lce {
namespace {

std::vector<float> RunGraph(const Graph& g, std::uint64_t seed) {
  std::shared_ptr<const CompiledModel> model;
  const Status s = CompiledModel::Compile(g, {}, &model);
  EXPECT_TRUE(s.ok()) << s.message();
  if (!s.ok()) return {};
  ExecutionContext exec(model);
  Rng rng(seed);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform(-1.0f, 1.0f);
  }
  exec.Invoke();
  const Tensor out = exec.output(0);
  return std::vector<float>(out.data<float>(),
                            out.data<float>() + out.num_elements());
}

Graph SmallFloatModel() {
  Graph g;
  ModelBuilder b(g, 51);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 16, 3, 1, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero, Activation::kRelu);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  return g;
}

TEST(Ptq, QuantizedModelApproximatesFloat) {
  Graph g = SmallFloatModel();
  const auto reference = RunGraph(g, 77);

  PtqStats stats;
  ASSERT_TRUE(QuantizeModelInt8(g, {}, &stats).ok());
  EXPECT_EQ(stats.convs_quantized, 3);
  EXPECT_EQ(g.CountOps(OpType::kConv2D), 0);
  EXPECT_EQ(g.CountOps(OpType::kConv2DInt8), 3);

  const auto quantized = RunGraph(g, 77);
  ASSERT_EQ(reference.size(), quantized.size());
  double max_abs = 0.0, max_err = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(static_cast<double>(reference[i])));
    max_err = std::max(max_err,
                       std::abs(static_cast<double>(reference[i]) - quantized[i]));
  }
  EXPECT_LT(max_err, 0.1 * std::max(1.0, max_abs))
      << "int8 PTQ should be near-lossless";
}

TEST(Ptq, ChainedConvsPassInt8Directly) {
  // conv -> conv with no op in between: the dequantize/quantize pair must
  // cancel so the second conv consumes int8 directly.
  Graph g;
  ModelBuilder b(g, 52);
  int x = b.Input(8, 8, 4);
  x = b.Conv(x, 8, 3, 1, Padding::kSameZero);
  x = b.Conv(x, 8, 3, 1, Padding::kSameZero);
  x = b.GlobalAvgPool(x);
  g.MarkOutput(x);

  PtqStats stats;
  ASSERT_TRUE(QuantizeModelInt8(g, {}, &stats).ok());
  EXPECT_EQ(stats.convs_quantized, 2);
  EXPECT_EQ(stats.quantize_pairs_cancelled, 1);
  EXPECT_EQ(g.CountOps(OpType::kQuantizeInt8), 1);
  EXPECT_EQ(g.CountOps(OpType::kDequantizeInt8), 1)
      << "the intermediate dequantize has no uses left and is removed";
}

TEST(Ptq, SkipsBinarizedConvolutions) {
  Graph g;
  ModelBuilder b(g, 53);
  int x = b.Input(8, 8, 32);
  x = b.Conv(x, 32, 3, 1, Padding::kSameZero);   // quantizable
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);  // must stay binarized
  x = b.GlobalAvgPool(x);
  g.MarkOutput(x);

  PtqStats stats;
  ASSERT_TRUE(QuantizeModelInt8(g, {}, &stats).ok());
  EXPECT_EQ(stats.convs_quantized, 1);
  // The emulated binarized conv is untouched.
  int binarized = 0;
  for (const auto& n : g.nodes()) {
    if (n->alive && n->type == OpType::kConv2D && n->attrs.binarize_weights) {
      ++binarized;
    }
  }
  EXPECT_EQ(binarized, 1);
}

TEST(Ptq, PerChannelBeatsPerTensorOnSkewedWeights) {
  // A conv whose filters have wildly different magnitudes: per-tensor
  // quantization crushes the small filters, per-channel does not.
  auto build = [] {
    Graph g;
    ModelBuilder b(g, 54);
    int x = b.Input(8, 8, 8);
    x = b.Conv(x, 8, 3, 1, Padding::kSameZero);
    x = b.GlobalAvgPool(x);
    g.MarkOutput(x);
    // Rescale each output filter by a different power of 4.
    for (const auto& v : g.values()) {
      if (v->is_constant && v->shape.rank() == 4) {
        float* w = v->constant_data.data<float>();
        const std::int64_t per_filter = v->shape.num_elements() / 8;
        for (int n = 0; n < 8; ++n) {
          const float scale = std::pow(4.0f, static_cast<float>(n % 4));
          for (std::int64_t j = 0; j < per_filter; ++j) {
            w[n * per_filter + j] *= scale;
          }
        }
      }
    }
    return g;
  };

  auto max_error = [&](bool per_channel) {
    Graph g = build();
    const auto reference = RunGraph(g, 3);
    PtqOptions opts;
    opts.per_channel_weights = per_channel;
    EXPECT_TRUE(QuantizeModelInt8(g, opts).ok());
    const auto quantized = RunGraph(g, 3);
    double err = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      err = std::max(err, std::abs(static_cast<double>(reference[i]) -
                                   quantized[i]));
    }
    return err;
  };

  const double per_tensor_err = max_error(false);
  const double per_channel_err = max_error(true);
  EXPECT_LT(per_channel_err, per_tensor_err)
      << "per-channel quantization must be more accurate on skewed filters";
}

TEST(Ptq, QuantizedGraphSerializes) {
  Graph g = SmallFloatModel();
  ASSERT_TRUE(QuantizeModelInt8(g).ok());
  const auto before = RunGraph(g, 5);
  const auto bytes = SerializeGraph(g);
  Graph loaded;
  ASSERT_TRUE(DeserializeGraph(bytes.data(), bytes.size(), &loaded).ok());
  const auto after = RunGraph(loaded, 5);
  EXPECT_EQ(before, after);
}

TEST(Ptq, QuantizedModelShrinksConstants) {
  Graph g = BuildFloatResNet18(64);
  const std::size_t float_bytes = g.ConstantBytes();
  ASSERT_TRUE(QuantizeModelInt8(g).ok());
  // Weights go from 4 bytes to 1 byte; glue (BN vectors) stays float.
  EXPECT_LT(g.ConstantBytes(), float_bytes / 3);
}

TEST(Ptq, FloatResNet18EmitsNoFloatGlue) {
  Graph g = BuildFloatResNet18(64);
  PtqStats stats;
  ASSERT_TRUE(QuantizeModelInt8(g, {}, &stats).ok());
  // Every BatchNorm folds into its conv and every ReLU into its conv's
  // requant clamp or its residual Add.
  EXPECT_EQ(g.CountOps(OpType::kBatchNorm), 0);
  EXPECT_EQ(g.CountOps(OpType::kRelu), 0);
  // Each block's first conv feeds its second directly in int8 (8 pairs).
  // What remains quantizes the float inputs of the stem, of each block's
  // first conv and of the 3 downsample convs, and dequantizes the outputs
  // that feed the max pool and the residual adds.
  EXPECT_EQ(stats.quantize_pairs_cancelled, 8);
  EXPECT_EQ(g.CountOps(OpType::kQuantizeInt8), 12);
  EXPECT_EQ(g.CountOps(OpType::kDequantizeInt8), 12);
  for (const auto& n : g.nodes()) {
    if (!n->alive) continue;
    for (const int out : n->outputs) {
      bool used = std::find(g.output_ids().begin(), g.output_ids().end(),
                            out) != g.output_ids().end();
      for (const int c : g.value(out).consumers) used |= g.node(c).alive;
      EXPECT_TRUE(used) << n->name << " runs with no consumer";
    }
  }
}

TEST(Ptq, FloatResNet18EndToEnd) {
  Graph g = BuildFloatResNet18(64);
  const auto reference = RunGraph(g, 6);
  PtqStats stats;
  ASSERT_TRUE(QuantizeModelInt8(g, {}, &stats).ok());
  EXPECT_EQ(stats.convs_quantized, 20);  // 16 block convs + 3 shortcuts + stem
  const auto quantized = RunGraph(g, 6);
  // Softmax outputs: small divergence allowed.
  double max_err = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_err = std::max(max_err,
                       std::abs(static_cast<double>(reference[i]) - quantized[i]));
  }
  EXPECT_LT(max_err, 0.05);
}

}  // namespace
}  // namespace lce
