// Serializer tests: LCEM round-trips (training and inference dialects),
// corrupt-input robustness, file I/O and the 32x model-size compression the
// converter's binary weight packing delivers.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"

namespace lce {
namespace {

Graph SmallModel() {
  Graph g;
  ModelBuilder b(g, 31);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.BinaryConv(x, 64, 3, 2, Padding::kSameOne);
  x = b.BatchNorm(x);
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  x = b.Softmax(x);
  g.MarkOutput(x);
  return g;
}

std::vector<float> RunGraph(const Graph& g, std::uint64_t seed) {
  std::shared_ptr<const CompiledModel> model;
  const Status s = CompiledModel::Compile(g, {}, &model);
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

TEST(Serializer, TrainingGraphRoundTrip) {
  Graph g = SmallModel();
  const auto bytes = SerializeGraph(g);
  Graph loaded;
  const Status s = DeserializeGraph(bytes.data(), bytes.size(), &loaded);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(loaded.LiveNodeCount(), g.LiveNodeCount());
  const auto before = RunGraph(g, 7);
  const auto after = RunGraph(loaded, 7);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << i;
  }
}

TEST(Serializer, ConvertedGraphRoundTrip) {
  Graph g = SmallModel();
  ASSERT_TRUE(Convert(g).ok());
  const auto bytes = SerializeGraph(g);
  Graph loaded;
  ASSERT_TRUE(DeserializeGraph(bytes.data(), bytes.size(), &loaded).ok());
  EXPECT_EQ(loaded.CountOps(OpType::kLceBConv2d),
            g.CountOps(OpType::kLceBConv2d));
  const auto before = RunGraph(g, 9);
  const auto after = RunGraph(loaded, 9);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << i;
  }
}

TEST(Serializer, ConversionShrinksSerializedModel) {
  Graph training = SmallModel();
  const std::size_t training_size = SerializeGraph(training).size();
  Graph inference = CloneGraph(training);
  ASSERT_TRUE(Convert(inference).ok());
  const std::size_t inference_size = SerializeGraph(inference).size();
  // The binarized weights dominate this model; expect a large shrink (not
  // exactly 32x because the fp stem/classifier stay float).
  EXPECT_LT(inference_size, training_size / 2);
}

TEST(Serializer, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = {'N', 'O', 'P', 'E', 1, 0, 0, 0};
  Graph g;
  const Status s = DeserializeGraph(bytes.data(), bytes.size(), &g);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(Serializer, RejectsTruncation) {
  Graph g = SmallModel();
  const auto bytes = SerializeGraph(g);
  // Truncate at many points; must error, never crash.
  for (std::size_t cut : {4ul, 9ul, 20ul, bytes.size() / 2, bytes.size() - 1}) {
    Graph loaded;
    const Status s = DeserializeGraph(bytes.data(), cut, &loaded);
    EXPECT_FALSE(s.ok()) << "cut at " << cut;
  }
}

TEST(Serializer, FileRoundTrip) {
  Graph g = SmallModel();
  ASSERT_TRUE(Convert(g).ok());
  const std::string path = ::testing::TempDir() + "/model.lcem";
  ASSERT_TRUE(SaveModel(g, path).ok());
  Graph loaded;
  ASSERT_TRUE(LoadModel(path, &loaded).ok());
  const auto a = RunGraph(g, 5);
  const auto b = RunGraph(loaded, 5);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST(Serializer, LoadMissingFileReturnsNotFound) {
  Graph g;
  const Status s = LoadModel("/nonexistent/model.lcem", &g);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  // The error must name the file and carry the OS-level reason.
  EXPECT_NE(s.message().find("/nonexistent/model.lcem"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("No such file"), std::string::npos)
      << s.message();
}

// ---- Hand-built invalid fixtures -------------------------------------------

// Minimal little-endian LCEM byte builder for crafting hostile files.
struct Bytes {
  std::vector<std::uint8_t> v;
  void U8(std::uint8_t x) { v.push_back(x); }
  void U32(std::uint32_t x) {
    for (int i = 0; i < 4; ++i) v.push_back((x >> (8 * i)) & 0xff);
  }
  void I64(std::int64_t x) {
    for (int i = 0; i < 8; ++i) v.push_back((x >> (8 * i)) & 0xff);
  }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    v.insert(v.end(), s.begin(), s.end());
  }
  void Header(std::uint32_t num_leading) {
    v.assign({'L', 'C', 'E', 'M'});
    U32(1);  // version
    U32(num_leading);
  }
  Status Load(Graph* g, const ResourceLimits& limits = {}) const {
    return DeserializeGraph(v.data(), v.size(), g, limits);
  }
};

TEST(Serializer, RejectsBadValueKind) {
  Bytes b;
  b.Header(1);
  b.U8(7);  // kind must be 0 or 1
  b.Str("x");
  b.U8(0);  // dtype
  b.U8(1);  // rank
  b.I64(4);
  Graph g;
  EXPECT_EQ(b.Load(&g).code(), StatusCode::kDataLoss);
}

TEST(Serializer, RejectsBadDTypeByte) {
  Bytes b;
  b.Header(1);
  b.U8(0);
  b.Str("x");
  b.U8(99);  // no such dtype
  b.U8(1);
  b.I64(4);
  Graph g;
  EXPECT_EQ(b.Load(&g).code(), StatusCode::kDataLoss);
}

TEST(Serializer, RejectsImplausibleDimensions) {
  for (std::int64_t dim : {std::int64_t{0}, std::int64_t{-5},
                           (std::int64_t{1} << 24) + 1,
                           std::numeric_limits<std::int64_t>::max()}) {
    Bytes b;
    b.Header(1);
    b.U8(0);
    b.Str("x");
    b.U8(0);  // float32
    b.U8(2);
    b.I64(1);
    b.I64(dim);
    Graph g;
    EXPECT_EQ(b.Load(&g).code(), StatusCode::kDataLoss) << dim;
  }
}

TEST(Serializer, RejectsBadOpTypeByte) {
  Bytes b;
  b.Header(0);
  b.U32(1);  // one node
  b.Str("n");
  b.U8(200);  // out-of-range op byte, rejected before attrs are trusted
  b.U32(0);   // n_inputs
  Graph g;
  EXPECT_EQ(b.Load(&g).code(), StatusCode::kDataLoss);
}

TEST(Serializer, EnforcesCountLimits) {
  {
    Bytes b;
    b.Header(0xffffff00u);  // absurd leading-value count
    Graph g;
    EXPECT_EQ(b.Load(&g).code(), StatusCode::kResourceExhausted);
  }
  {
    Bytes b;
    b.Header(0);
    b.U32(0xffffff00u);  // absurd node count
    Graph g;
    EXPECT_EQ(b.Load(&g).code(), StatusCode::kResourceExhausted);
  }
}

TEST(Serializer, EnforcesModelByteLimitOnConstants) {
  Graph g = SmallModel();
  const auto bytes = SerializeGraph(g);
  ResourceLimits limits;
  limits.max_model_bytes = 64;
  Graph loaded;
  const Status s =
      DeserializeGraph(bytes.data(), bytes.size(), &loaded, limits);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST(Serializer, ContractViolationIsInvalidArgument) {
  // A node that decodes but breaks its op's contract (here Add on bitpacked
  // operands) is a semantic error, not a malformed byte stream.
  Graph g;
  const int a = g.AddInput("a", DataType::kFloat32, Shape{1, 64});
  const int b = g.AddInput("b", DataType::kFloat32, Shape{1, 64});
  g.MarkOutput(g.AddNode(OpType::kAdd, "add", {a, b}, OpAttrs{}));
  g.SetValueType(a, DataType::kBitpacked);
  g.SetValueType(b, DataType::kBitpacked);
  const auto bytes = SerializeGraph(g);
  Graph loaded;
  const Status s = DeserializeGraph(bytes.data(), bytes.size(), &loaded);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.message();
}

TEST(Serializer, RejectsTrailingGarbage) {
  Graph g = SmallModel();
  auto bytes = SerializeGraph(g);
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
  Graph loaded;
  const Status s = DeserializeGraph(bytes.data(), bytes.size(), &loaded);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

// Deterministic single-bit-flip sweep: every mutation must either load
// cleanly (and then survive Compile + Invoke) or return a typed error --
// never crash. A miniature in-process version of tests/fuzz_serializer.cc.
TEST(Serializer, BitFlipsNeverCrash) {
  Graph g = SmallModel();
  ASSERT_TRUE(Convert(g).ok());
  const auto bytes = SerializeGraph(g);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (int iter = 0; iter < 400; ++iter) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    auto mutated = bytes;
    mutated[(lcg >> 16) % mutated.size()] ^= 1u << ((lcg >> 8) & 7);
    Graph loaded;
    const Status s = DeserializeGraph(mutated.data(), mutated.size(), &loaded);
    if (!s.ok()) continue;
    std::shared_ptr<const CompiledModel> model;
    if (!CompiledModel::Compile(loaded, {}, &model).ok()) continue;
    ExecutionContext exec(model);
    exec.Invoke();
  }
}

}  // namespace
}  // namespace lce
