// Binarized fully-connected tests: kernel correctness against the float
// reference, converter lowering, and end-to-end binary-MLP equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/bitpack.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "kernels/bfully_connected.h"
#include "kernels/reference.h"
#include "models/builder.h"

namespace lce {
namespace {

class BfcShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BfcShapes, MatchesSignedFloatMatmul) {
  const auto [batch, in, out] = GetParam();
  Rng rng(batch + in * 3 + out * 7);
  Tensor x_f(DataType::kFloat32, Shape{batch, in});
  FillSigns(x_f, rng);
  Tensor x_b(DataType::kBitpacked, x_f.shape());
  BitpackTensor(x_f, x_b);
  std::vector<float> w(static_cast<std::size_t>(out) * in);
  for (auto& v : w) v = rng.Sign();

  BFullyConnectedAttrs attrs;
  attrs.in_features = in;
  attrs.out_features = out;
  BFullyConnected op(w.data(), attrs);
  Tensor y(DataType::kFloat32, Shape{batch, out});
  gemm::Context ctx(1);
  op.Run(x_b, y, ctx);

  for (int b = 0; b < batch; ++b) {
    for (int n = 0; n < out; ++n) {
      std::int32_t expected = 0;
      for (int k = 0; k < in; ++k) {
        expected += static_cast<std::int32_t>(
            x_f.data<float>()[b * in + k] * w[static_cast<std::size_t>(n) * in + k]);
      }
      ASSERT_EQ(y.data<float>()[b * out + n], static_cast<float>(expected))
          << "b=" << b << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BfcShapes,
    ::testing::Values(std::make_tuple(1, 32, 8), std::make_tuple(2, 100, 17),
                      std::make_tuple(3, 4096, 64),
                      std::make_tuple(5, 33, 129),
                      std::make_tuple(1, 9216, 4096)));

TEST(BFullyConnected, OutlivesItsWeightBuffer) {
  // The bitpacked-weights constructor reads the caller's buffer only while
  // it runs: scribble over the buffer and free it before Run, then match the
  // float reference (a 1x1 convolution over a 1x1 image) bit for bit.
  const int batch = 3, in = 100, out = 40;
  Rng rng(31);
  Tensor x_f(DataType::kFloat32, Shape{batch, in});
  FillSigns(x_f, rng);
  Tensor x_b(DataType::kBitpacked, x_f.shape());
  BitpackTensor(x_f, x_b);
  std::vector<float> w(static_cast<std::size_t>(out) * in);
  for (auto& v : w) v = rng.Sign();

  const std::size_t words =
      static_cast<std::size_t>(out) * BitpackedWords(in);
  auto packed = std::make_unique<TBitpacked[]>(words);
  BitpackMatrix(w.data(), out, in, packed.get());
  BFullyConnectedAttrs attrs;
  attrs.in_features = in;
  attrs.out_features = out;
  const BFullyConnected op(packed.get(), attrs);
  std::fill_n(packed.get(), words, ~TBitpacked{0});
  packed.reset();

  Tensor y(DataType::kFloat32, Shape{batch, out});
  gemm::Context ctx(1);
  op.Run(x_b, y, ctx);
  Conv2DGeometry geo;
  geo.batch = batch;
  geo.in_h = geo.in_w = 1;
  geo.in_c = in;
  geo.out_c = out;
  geo.filter_h = geo.filter_w = 1;
  geo.padding = Padding::kValid;
  std::vector<float> expected(static_cast<std::size_t>(batch) * out);
  RefConv2DFloat(x_f.data<float>(), w.data(), geo, /*pad_value=*/0.0f,
                 nullptr, nullptr, Activation::kNone, expected.data());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(y.data<float>()[i], expected[i]) << i;
  }
}

TEST(BFullyConnected, FusedTransform) {
  const int in = 64, out = 16;
  Rng rng(9);
  Tensor x_f(DataType::kFloat32, Shape{1, in});
  FillSigns(x_f, rng);
  Tensor x_b(DataType::kBitpacked, x_f.shape());
  BitpackTensor(x_f, x_b);
  std::vector<float> w(static_cast<std::size_t>(out) * in);
  for (auto& v : w) v = rng.Sign();
  std::vector<float> mult(out), bias(out);
  for (auto& v : mult) v = rng.Uniform(-0.2f, 0.2f);
  for (auto& v : bias) v = rng.Uniform(-1.0f, 1.0f);

  BFullyConnectedAttrs plain;
  plain.in_features = in;
  plain.out_features = out;
  BFullyConnected raw_op(w.data(), plain);
  Tensor raw(DataType::kFloat32, Shape{1, out});
  gemm::Context ctx(1);
  raw_op.Run(x_b, raw, ctx);

  BFullyConnectedAttrs fused = plain;
  fused.multiplier = mult;
  fused.bias = bias;
  BFullyConnected fused_op(w.data(), fused);
  Tensor y(DataType::kFloat32, Shape{1, out});
  fused_op.Run(x_b, y, ctx);
  for (int n = 0; n < out; ++n) {
    ASSERT_FLOAT_EQ(y.data<float>()[n],
                    raw.data<float>()[n] * mult[n] + bias[n]);
  }
}

TEST(BFullyConnected, ConverterLowersAndFusesBn) {
  Graph g;
  ModelBuilder b(g, 21);
  int x = b.Input(8, 8, 32);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero);
  x = b.GlobalAvgPool(x);              // [1, 32]
  x = b.BinaryDense(x, 64);            // emulated binarized FC
  x = b.BatchNorm(x);                  // fusable into the bfc transform
  x = b.Dense(x, 10);
  g.MarkOutput(x);

  Graph converted = CloneGraph(g);
  ConvertStats stats;
  ASSERT_TRUE(Convert(converted, {}, &stats).ok());
  EXPECT_EQ(stats.bfcs_lowered, 1);
  EXPECT_EQ(converted.CountOps(OpType::kLceBFullyConnected), 1);
  EXPECT_EQ(converted.CountOps(OpType::kFakeSign), 0);
  EXPECT_EQ(converted.CountOps(OpType::kBatchNorm), 0)
      << "BatchNorm must fuse into the bfc output transform";

  // Semantic equivalence (binarized FC arithmetic is exact).
  auto run = [](const Graph& graph) {
    std::shared_ptr<const CompiledModel> model;
    const Status s = CompiledModel::Compile(graph, {}, &model);
    EXPECT_TRUE(s.ok()) << s.message();
    if (!s.ok()) return std::vector<float>{};
    ExecutionContext exec(model);
    Rng rng(7);
    Tensor in = exec.input(0);
    for (std::int64_t i = 0; i < in.num_elements(); ++i) {
      in.data<float>()[i] = rng.Uniform();
    }
    exec.Invoke();
    const Tensor out = exec.output(0);
    return std::vector<float>(out.data<float>(),
                              out.data<float>() + out.num_elements());
  };
  const auto a = run(g);
  const auto c = run(converted);
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], c[i], 1e-4f) << i;
  }
}

TEST(BFullyConnected, SerializesThroughLcem) {
  Graph g;
  ModelBuilder b(g, 22);
  int x = b.Input(4, 4, 32);
  x = b.GlobalAvgPool(x);
  x = b.BinaryDense(x, 32);
  x = b.BatchNorm(x);
  g.MarkOutput(x);
  ASSERT_TRUE(Convert(g).ok());

  const auto bytes = SerializeGraph(g);
  Graph loaded;
  ASSERT_TRUE(DeserializeGraph(bytes.data(), bytes.size(), &loaded).ok());
  EXPECT_EQ(loaded.CountOps(OpType::kLceBFullyConnected), 1);
}

}  // namespace
}  // namespace lce
