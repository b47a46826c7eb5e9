// Cross-module property tests: randomized invariants that tie the kernels,
// converter and runtime together. These complement the per-module unit
// tests with the algebraic identities the whole design rests on.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/bitpack.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "graph/validator.h"
#include "kernels/bconv2d.h"
#include "kernels/bmaxpool.h"
#include "kernels/pooling.h"
#include "kernels/quantize_ops.h"
#include "models/builder.h"

namespace lce {
namespace {

std::vector<float> RunGraph(const Graph& g, std::uint64_t seed,
                            const CompileOptions& options = {}) {
  std::shared_ptr<const CompiledModel> model;
  const Status s = CompiledModel::Compile(g, options, &model);
  EXPECT_TRUE(s.ok()) << s.message();
  if (!s.ok()) return {};
  ExecutionContext exec(model);
  Rng rng(seed);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
  exec.Invoke();
  const Tensor out = exec.output(0);
  return std::vector<float>(out.data<float>(),
                            out.data<float>() + out.num_elements());
}

// --- Property: max(sign(X)) == sign(max(X)) at the kernel level -----------
// quantize(maxpool(x)) must equal bmaxpool(quantize(x)) for every geometry.

class MaxPoolSignSwap
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MaxPoolSignSwap, KernelsCommute) {
  const auto [hw, channels, stride] = GetParam();
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = hw;
  geo.channels = channels;
  geo.filter_h = geo.filter_w = 2;
  geo.stride_h = geo.stride_w = stride;
  geo.padding = Padding::kValid;

  Rng rng(hw * channels + stride);
  Tensor x(DataType::kFloat32, Shape{1, hw, hw, channels});
  FillUniform(x, rng);

  // Path 1: float maxpool, then quantize.
  Tensor pooled(DataType::kFloat32, Shape{1, geo.out_h(), geo.out_w(), channels});
  MaxPool2DFloat(x, geo, pooled);
  Tensor path1(DataType::kBitpacked, pooled.shape());
  LceQuantize(pooled, path1);

  // Path 2: quantize, then binary maxpool.
  Tensor packed(DataType::kBitpacked, x.shape());
  LceQuantize(x, packed);
  Tensor path2(DataType::kBitpacked, pooled.shape());
  LceBMaxPool2d(packed, geo, path2);

  const std::int64_t words = path1.storage_elements();
  for (std::int64_t i = 0; i < words; ++i) {
    ASSERT_EQ(path1.data<TBitpacked>()[i], path2.data<TBitpacked>()[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, MaxPoolSignSwap,
                         ::testing::Values(std::make_tuple(8, 32, 2),
                                           std::make_tuple(8, 40, 2),
                                           std::make_tuple(6, 64, 1),
                                           std::make_tuple(12, 7, 3)));

// --- Property: single-bit sensitivity of the binary dot product -----------
// Flipping exactly one activation bit changes every affected dot by +/-2.

TEST(BinaryDot, SingleBitFlipChangesDotByTwo) {
  const int bits = 200;
  Rng rng(4);
  std::vector<float> a(bits), w(bits);
  for (auto& v : a) v = rng.Sign();
  for (auto& v : w) v = rng.Sign();
  std::vector<TBitpacked> pa(BitpackedWords(bits)), pw(BitpackedWords(bits));
  BitpackRow(a.data(), bits, pa.data());
  BitpackRow(w.data(), bits, pw.data());
  const std::int32_t base = BinaryDotReference(pa.data(), pw.data(), bits);
  for (int flip : {0, 1, 31, 32, 100, 199}) {
    auto mutated = pa;
    mutated[flip / 32] ^= TBitpacked{1} << (flip % 32);
    const std::int32_t changed =
        BinaryDotReference(mutated.data(), pw.data(), bits);
    EXPECT_EQ(std::abs(changed - base), 2) << "bit " << flip;
  }
}

// --- Property: quantize/dequantize idempotence -----------------------------
// dequantize(quantize(x)) is a fixpoint of quantize∘dequantize.

TEST(QuantizeOps, DequantizeQuantizeIsIdempotent) {
  Rng rng(8);
  Tensor x(DataType::kFloat32, Shape{1, 4, 4, 50});
  FillUniform(x, rng);
  Tensor q1(DataType::kBitpacked, x.shape());
  LceQuantize(x, q1);
  Tensor d1(DataType::kFloat32, x.shape());
  LceDequantize(q1, d1);
  Tensor q2(DataType::kBitpacked, x.shape());
  LceQuantize(d1, q2);
  for (std::int64_t i = 0; i < q1.storage_elements(); ++i) {
    ASSERT_EQ(q1.data<TBitpacked>()[i], q2.data<TBitpacked>()[i]);
  }
}

// --- Property: batch decomposition -----------------------------------------
// A batch-2 binarized convolution equals two independent batch-1 runs.

TEST(BConv2D, BatchDecomposes) {
  Conv2DGeometry g;
  g.batch = 2;
  g.in_h = g.in_w = 6;
  g.in_c = 32;
  g.out_c = 16;
  g.filter_h = g.filter_w = 3;
  g.padding = Padding::kSameOne;

  Rng rng(10);
  Tensor in_f(DataType::kFloat32, Shape{2, 6, 6, 32});
  FillSigns(in_f, rng);
  Tensor in_b(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in_b);
  std::vector<float> w(static_cast<std::size_t>(16) * 9 * 32);
  for (auto& v : w) v = rng.Sign();

  BConv2DAttrs attrs;
  attrs.geo = g;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op2(w.data(), attrs);
  Tensor out2(DataType::kFloat32, Shape{2, 6, 6, 16});
  gemm::Context ctx(1);
  op2.Run(in_b, out2, ctx);

  attrs.geo.batch = 1;
  BConv2D op1(w.data(), attrs);
  const std::int64_t per_image_in = in_b.storage_elements() / 2;
  const std::int64_t per_image_out = out2.num_elements() / 2;
  for (int b = 0; b < 2; ++b) {
    Tensor in1 = Tensor::View(DataType::kBitpacked, Shape{1, 6, 6, 32},
                              in_b.data<TBitpacked>() + b * per_image_in);
    Tensor out1(DataType::kFloat32, Shape{1, 6, 6, 16});
    op1.Run(in1, out1, ctx);
    for (std::int64_t i = 0; i < per_image_out; ++i) {
      ASSERT_EQ(out1.data<float>()[i],
                out2.data<float>()[b * per_image_out + i])
          << "batch " << b << " element " << i;
    }
  }
}

// --- Property: converter idempotence ----------------------------------------
// Converting an already-converted graph changes nothing.

TEST(Converter, ConvertIsIdempotent) {
  Graph g;
  ModelBuilder b(g, 12);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  g.MarkOutput(x);

  ASSERT_TRUE(Convert(g).ok());
  const int ops_once = g.LiveNodeCount();
  const auto out_once = RunGraph(g, 3);

  ConvertStats stats;
  ASSERT_TRUE(Convert(g, {}, &stats).ok());
  EXPECT_EQ(g.LiveNodeCount(), ops_once);
  EXPECT_EQ(stats.bconvs_lowered, 0);
  EXPECT_EQ(stats.bconv_transforms_fused, 0);
  EXPECT_EQ(stats.quantizes_elided, 0);
  const auto out_twice = RunGraph(g, 3);
  EXPECT_EQ(out_once, out_twice);
}

// --- Property: random-graph conversion fuzz --------------------------------
// Random chains of layer types must convert and preserve semantics.

class RandomGraphFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphFuzz, ConversionPreservesSemantics) {
  const int seed = GetParam();
  Rng rng(seed);
  Graph g;
  ModelBuilder b(g, seed * 977);
  int x = b.Input(16, 16, 32);
  int channels = 32;
  for (int layer = 0; layer < 8; ++layer) {
    switch (rng.UniformInt(8)) {
      case 0: {
        const Padding pad =
            rng.UniformInt(2) == 0 ? Padding::kSameOne : Padding::kSameZero;
        x = b.BinaryConv(x, channels, 3, 1, pad);
        x = b.BatchNorm(x);
        break;
      }
      case 1: {
        int y = b.BinaryConv(x, channels, 3, 1, Padding::kSameOne);
        y = b.Relu(y);
        y = b.BatchNorm(y);
        x = b.Add(x, y);
        break;
      }
      case 2:
        x = b.Conv(x, channels, 1, 1, Padding::kValid);
        x = b.BatchNorm(x);
        break;
      case 3:
        x = b.Relu(x);
        break;
      case 4:
        if (b.HeightOf(x) >= 4) x = b.MaxPool(x, 2, 2, Padding::kValid);
        break;
      case 5:
        x = b.BatchNorm(x);
        break;
      case 6: {
        // DenseNet-style concat growth (kept bounded).
        if (channels <= 64) {
          int y = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
          y = b.BatchNorm(y);
          x = b.Concat({x, y});
          channels = b.ChannelsOf(x);
        }
        break;
      }
      case 7:
        x = b.RPRelu(x);
        break;
    }
  }
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 8);
  g.MarkOutput(x);
  ASSERT_TRUE(ValidateGraph(g, ResourceLimits::Unlimited()).ok());

  Graph converted = CloneGraph(g);
  ASSERT_TRUE(Convert(converted).ok());
  const auto ya = RunGraph(g, seed);
  const auto yb = RunGraph(converted, seed);
  ASSERT_EQ(ya.size(), yb.size());
  for (std::size_t i = 0; i < ya.size(); ++i) {
    ASSERT_NEAR(ya[i], yb[i], 1e-3f) << "seed " << seed << " output " << i;
  }

  // The planner writes Concat inputs in place in their Concat's output
  // (docs/PERFORMANCE.md). Graph outputs are never hosts, so the twin with
  // every Concat output marked as one hosts nothing; both must give the
  // same bits at every thread count and kernel profile.
  Graph twin = CloneGraph(converted);
  for (const int id : twin.TopologicalOrder()) {
    if (twin.node(id).type == OpType::kConcat) {
      twin.MarkOutput(twin.node(id).outputs[0]);
    }
  }
  for (const int threads : {1, 4}) {
    for (const gemm::KernelProfile profile :
         {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
      CompileOptions options;
      options.num_threads = threads;
      options.kernel_profile = profile;
      const auto hosted = RunGraph(converted, seed, options);
      const auto oracle = RunGraph(twin, seed, options);
      ASSERT_EQ(hosted.size(), oracle.size());
      ASSERT_EQ(std::memcmp(hosted.data(), oracle.data(),
                            hosted.size() * sizeof(float)),
                0)
          << "seed " << seed << " threads " << threads << " profile "
          << static_cast<int>(profile);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphFuzz, ::testing::Range(1, 41));

// --- Failure injection: serializer corruption fuzz --------------------------
// Randomly corrupting any byte must produce an error or a still-valid model
// -- never a crash or an out-of-bounds read.

TEST(SerializerFuzz, ByteCorruptionNeverCrashes) {
  Graph g;
  ModelBuilder b(g, 13);
  int x = b.Input(8, 8, 32);
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.GlobalAvgPool(x);
  g.MarkOutput(x);
  ASSERT_TRUE(Convert(g).ok());
  const auto bytes = SerializeGraph(g);

  Rng rng(99);
  int errors = 0, survived = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = bytes;
    const std::size_t pos = rng.UniformInt(corrupted.size());
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.UniformInt(255));
    Graph loaded;
    const Status s =
        DeserializeGraph(corrupted.data(), corrupted.size(), &loaded);
    if (s.ok()) {
      ++survived;  // corruption hit weight payload: still structurally valid
    } else {
      ++errors;
    }
  }
  EXPECT_EQ(errors + survived, 200);
  EXPECT_GT(errors, 0) << "structural corruption must be detected sometimes";
}

// --- Failure injection: truncation sweep ------------------------------------

TEST(SerializerFuzz, EveryTruncationPointIsSafe) {
  Graph g;
  ModelBuilder b(g, 14);
  int x = b.Input(4, 4, 32);
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  x = b.GlobalAvgPool(x);
  g.MarkOutput(x);
  ASSERT_TRUE(Convert(g).ok());
  const auto bytes = SerializeGraph(g);
  // Sweep a sample of truncation points including every early boundary.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 17) {
    Graph loaded;
    const Status s = DeserializeGraph(bytes.data(), cut, &loaded);
    EXPECT_FALSE(s.ok()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace lce
