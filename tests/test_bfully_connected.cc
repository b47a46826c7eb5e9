// Binarized fully-connected tests: the 1x1 BConv2D a binary fully
// connected layer runs as (FullyConnectedGeometry over rank-2 tensors)
// against the float reference, bitwise across threads and profiles;
// converter lowering; and end-to-end binary-MLP equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/bitpack.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "kernels/bconv2d.h"
#include "kernels/reference.h"
#include "models/builder.h"

namespace lce {
namespace {

// The attrs CompiledModel builds for an LceBFullyConnected node.
BConv2DAttrs FcAttrs(int batch, int in, int out) {
  BConv2DAttrs attrs;
  attrs.geo = FullyConnectedGeometry(batch, in, out);
  attrs.output_type = BConvOutputType::kFloat;
  return attrs;
}

// Runs `op` on the rank-2 bitpacked `x` at threads {1, 3} x both profiles,
// requires every run bitwise equal to the first, and returns that one.
std::vector<float> RunEverywhere(const BConv2D& op, const Tensor& x) {
  const int batch = static_cast<int>(x.shape().dim(0));
  const int out = op.attrs().geo.out_c;
  std::vector<float> first;
  for (const int threads : {1, 3}) {
    for (const auto profile :
         {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
      Tensor y(DataType::kFloat32, Shape{batch, out});
      gemm::Context ctx(threads, profile);
      op.Run(x, y, ctx);
      std::vector<float> got(y.data<float>(),
                             y.data<float>() + y.num_elements());
      if (first.empty()) {
        first = std::move(got);
        continue;
      }
      EXPECT_EQ(0, std::memcmp(got.data(), first.data(),
                               first.size() * sizeof(float)))
          << "threads=" << threads << " scalar="
          << (profile == gemm::KernelProfile::kScalar);
    }
  }
  return first;
}

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

  const BConv2D op(w.data(), FcAttrs(batch, in, out));
  const std::vector<float> y = RunEverywhere(op, x_b);

  for (int b = 0; b < batch; ++b) {
    for (int n = 0; n < out; ++n) {
      std::int32_t expected = 0;
      for (int k = 0; k < in; ++k) {
        expected += static_cast<std::int32_t>(
            x_f.data<float>()[b * in + k] * w[static_cast<std::size_t>(n) * in + k]);
      }
      ASSERT_EQ(y[static_cast<std::size_t>(b) * out + n],
                static_cast<float>(expected))
          << "b=" << b << " n=" << n;
    }
  }
}

// Batches 1-13 at one width cover every row count of an 8-row tile and a
// second, partial tile; 70 outputs end in a partial 32-channel tile.
std::vector<std::tuple<int, int, int>> BfcShapeList() {
  std::vector<std::tuple<int, int, int>> shapes = {
      {1, 32, 8}, {2, 100, 17}, {3, 4096, 64}, {5, 33, 129}, {1, 9216, 4096}};
  for (int batch = 1; batch <= 13; ++batch) shapes.emplace_back(batch, 150, 70);
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(Shapes, BfcShapes,
                         ::testing::ValuesIn(BfcShapeList()));

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
  const BConv2DAttrs attrs = FcAttrs(batch, in, out);
  const BConv2D op(packed.get(), attrs);
  std::fill_n(packed.get(), words, ~TBitpacked{0});
  packed.reset();

  const std::vector<float> y = RunEverywhere(op, x_b);
  std::vector<float> expected(static_cast<std::size_t>(batch) * out);
  RefConv2DFloat(x_f.data<float>(), w.data(), attrs.geo, /*pad_value=*/0.0f,
                 nullptr, nullptr, Activation::kNone, expected.data());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(y[i], expected[i]) << i;
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

  const BConv2DAttrs plain = FcAttrs(1, in, out);
  const std::vector<float> raw = RunEverywhere(BConv2D(w.data(), plain), x_b);

  BConv2DAttrs fused = plain;
  fused.multiplier = mult;
  fused.bias = bias;
  const std::vector<float> y = RunEverywhere(BConv2D(w.data(), fused), x_b);
  for (int n = 0; n < out; ++n) {
    ASSERT_FLOAT_EQ(y[n], raw[n] * mult[n] + bias[n]);
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
