// Model zoo tests: every model builds, validates, converts, serializes and
// runs end-to-end at reduced resolution; MAC/parameter accounting matches
// expectations; converted graphs agree with their training graphs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "graph/validator.h"
#include "models/macs.h"
#include "models/zoo.h"

namespace lce {
namespace {

constexpr int kTestHw = 64;  // reduced input resolution for fast tests

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

class ZooModelTest : public ::testing::TestWithParam<int> {};

TEST_P(ZooModelTest, BuildsValidatesAndConverts) {
  const ZooModel& m = AllZooModels()[GetParam()];
  Graph g = m.build(kTestHw);
  ASSERT_TRUE(ValidateGraph(g, ResourceLimits::Unlimited()).ok()) << m.name;
  ASSERT_GT(g.CountOps(OpType::kConv2D), 0);

  Graph converted = CloneGraph(g);
  ConvertStats stats;
  ASSERT_TRUE(Convert(converted, {}, &stats).ok()) << m.name;
  EXPECT_GT(stats.bconvs_lowered, 0) << m.name;
  EXPECT_EQ(converted.CountOps(OpType::kFakeSign), 0) << m.name;
  EXPECT_GT(converted.CountOps(OpType::kLceBConv2d), 0) << m.name;
}

TEST_P(ZooModelTest, ConvertedMatchesTrainingGraph) {
  const ZooModel& m = AllZooModels()[GetParam()];
  Graph g = m.build(kTestHw);
  Graph converted = CloneGraph(g);
  ASSERT_TRUE(Convert(converted).ok());

  const auto a = RunGraph(g, 1234);
  const auto b = RunGraph(converted, 1234);
  ASSERT_EQ(a.size(), b.size()) << m.name;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(a[i] - b[i])));
  }
  // Softmax outputs; fp glue reassociation allows small drift only.
  EXPECT_LT(max_diff, 1e-3) << m.name;
}

TEST_P(ZooModelTest, SerializesAndReloads) {
  const ZooModel& m = AllZooModels()[GetParam()];
  Graph g = m.build(kTestHw);
  ASSERT_TRUE(Convert(g).ok());
  const auto bytes = SerializeGraph(g);
  Graph loaded;
  ASSERT_TRUE(DeserializeGraph(bytes.data(), bytes.size(), &loaded).ok())
      << m.name;
  const auto a = RunGraph(g, 42);
  const auto b = RunGraph(loaded, 42);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST_P(ZooModelTest, BinaryMacsDominate) {
  const ZooModel& m = AllZooModels()[GetParam()];
  Graph g = m.build(kTestHw);
  const ModelStats stats = ComputeModelStats(g);
  EXPECT_GT(stats.binary_macs, 0) << m.name;
  EXPECT_GT(stats.float_macs, 0) << m.name;  // first/last layers stay fp
  EXPECT_GT(stats.binary_macs, stats.float_macs)
      << m.name << ": BNNs execute most MACs in binary";
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooModelTest,
    ::testing::Range(0, static_cast<int>(AllZooModels().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return AllZooModels()[info.param].name;
    });

TEST(ZooRegistry, TenModelsWithUniqueNamesAndAccuracies) {
  const auto& models = AllZooModels();
  EXPECT_EQ(models.size(), 14u);
  std::set<std::string> names;
  for (const auto& m : models) {
    names.insert(m.name);
    EXPECT_GT(m.top1_accuracy, 30.0f) << m.name;
    EXPECT_LT(m.top1_accuracy, 75.0f) << m.name;
    EXPECT_FALSE(m.family.empty());
  }
  EXPECT_EQ(names.size(), models.size());
}

TEST(QuickNet, Table3Configurations) {
  const auto s = QuickNetSmallConfig();
  const auto m = QuickNetMediumConfig();
  const auto l = QuickNetLargeConfig();
  EXPECT_EQ(s.filters[0], 32);
  EXPECT_EQ(m.filters[0], 64);
  EXPECT_EQ(l.layers[2], 12);
  EXPECT_FLOAT_EQ(s.eval_accuracy, 59.4f);
  EXPECT_FLOAT_EQ(m.eval_accuracy, 63.3f);
  EXPECT_FLOAT_EQ(l.eval_accuracy, 66.9f);
}

TEST(QuickNet, StemReducesSpatialBy4) {
  Graph g = BuildQuickNet(QuickNetMediumConfig(), 224);
  ASSERT_TRUE(ValidateGraph(g, ResourceLimits::Unlimited()).ok());
  // Find the first binarized conv and check its input spatial size is 56.
  for (const auto& n : g.nodes()) {
    if (n->type == OpType::kConv2D && n->attrs.binarize_weights) {
      EXPECT_EQ(n->attrs.conv.in_h, 56);
      EXPECT_EQ(n->attrs.conv.in_c, 64);
      break;
    }
  }
}

TEST(QuickNet, UsesOnePaddingEverywhereBinary) {
  Graph g = BuildQuickNet(QuickNetSmallConfig(), kTestHw);
  for (const auto& n : g.nodes()) {
    if (n->type == OpType::kConv2D && n->attrs.binarize_weights) {
      EXPECT_EQ(n->attrs.conv.padding, Padding::kSameOne);
    }
  }
}

TEST(QuickNet, LargerVariantsHaveMoreMacs) {
  const auto s = ComputeModelStats(BuildQuickNet(QuickNetSmallConfig(), kTestHw));
  const auto m = ComputeModelStats(BuildQuickNet(QuickNetMediumConfig(), kTestHw));
  const auto l = ComputeModelStats(BuildQuickNet(QuickNetLargeConfig(), kTestHw));
  EXPECT_LT(s.binary_macs, m.binary_macs);
  EXPECT_LT(m.binary_macs, l.binary_macs);
}

TEST(ShortcutAblation, VariantsDifferOnlyInGlue) {
  Graph a = BuildBinarizedResNet18(ShortcutMode::kAllBlocks, kTestHw);
  Graph b = BuildBinarizedResNet18(ShortcutMode::kRegularOnly, kTestHw);
  Graph c = BuildBinarizedResNet18(ShortcutMode::kNone, kTestHw);
  ASSERT_TRUE(ValidateGraph(a, ResourceLimits::Unlimited()).ok());
  ASSERT_TRUE(ValidateGraph(b, ResourceLimits::Unlimited()).ok());
  ASSERT_TRUE(ValidateGraph(c, ResourceLimits::Unlimited()).ok());
  const auto sa = ComputeModelStats(a);
  const auto sb = ComputeModelStats(b);
  const auto sc = ComputeModelStats(c);
  // Identical binary MACs; float MACs drop as shortcuts are removed
  // (the downsample pointwise convolutions disappear).
  EXPECT_EQ(sa.binary_macs, sb.binary_macs);
  EXPECT_EQ(sb.binary_macs, sc.binary_macs);
  EXPECT_GT(sa.float_macs, sb.float_macs);
  EXPECT_EQ(sb.float_macs, sc.float_macs);
  // Add-op counts: A has 16 shortcut adds, B has 13, C has none.
  EXPECT_EQ(a.CountOps(OpType::kAdd), 16);
  EXPECT_EQ(b.CountOps(OpType::kAdd), 13);
  EXPECT_EQ(c.CountOps(OpType::kAdd), 0);
}

TEST(ModelStats, EMacsUsesBinaryDiscount) {
  ModelStats s;
  s.binary_macs = 1500;
  s.float_macs = 100;
  EXPECT_DOUBLE_EQ(s.emacs(15.0), 200.0);
  EXPECT_NEAR(s.emacs(17.0), 100.0 + 1500.0 / 17.0, 1e-9);
}

TEST(ModelStats, QuickNetModelSizeIsSmallAfterConversion) {
  Graph g = BuildQuickNet(QuickNetMediumConfig(), 224);
  Graph converted = CloneGraph(g);
  ASSERT_TRUE(Convert(converted).ok());
  const auto before = ComputeModelStats(g);
  const auto after = ComputeModelStats(converted);
  // Identical MACs; strongly compressed storage.
  EXPECT_EQ(before.binary_macs, after.binary_macs);
  EXPECT_LT(after.model_bytes, before.model_bytes / 4);
  // QuickNet is ~13M params => ~4-5 MB converted (mostly binary weights).
  EXPECT_LT(after.model_bytes, 8u * 1024 * 1024);
}

}  // namespace
}  // namespace lce
