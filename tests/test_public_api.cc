// Smoke test of the public API through the umbrella header only: the
// train -> convert -> serialize -> load -> run workflow a downstream user
// follows (docs/TUTORIAL.md).
#include <gtest/gtest.h>

#include "lce.h"

namespace {

TEST(PublicApi, TutorialWorkflowEndToEnd) {
  using namespace lce;

  // 1. Build.
  Graph g;
  ModelBuilder b(g, 42);
  int x = b.Input(32, 32, 3);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  for (int i = 0; i < 2; ++i) {
    int y = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
    y = b.Relu(y);
    y = b.BatchNorm(y);
    x = b.Add(x, y);
  }
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  x = b.Softmax(x);
  g.MarkOutput(x);

  // 2. Convert.
  ConvertStats stats;
  ASSERT_TRUE(Convert(g, {}, &stats).ok());
  EXPECT_EQ(stats.bconvs_lowered, 2);

  // 3. Serialize round trip.
  const auto bytes = SerializeGraph(g);
  Graph loaded;
  ASSERT_TRUE(DeserializeGraph(bytes.data(), bytes.size(), &loaded).ok());

  // 4. Run.
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(loaded, {}, &model).ok());
  ExecutionContext exec(model);
  Rng rng(1);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
  exec.Invoke();
  const Tensor out = exec.output(0);
  float sum = 0.0f;
  for (int i = 0; i < 10; ++i) sum += out.data<float>()[i];
  EXPECT_NEAR(sum, 1.0f, 1e-5f) << "softmax output must normalize";

  // 5. Accounting and rendering entry points exist and behave.
  const ModelStats ms = ComputeModelStats(loaded);
  EXPECT_GT(ms.binary_macs, 0);
  EXPECT_FALSE(GraphSummary(loaded).empty());
  EXPECT_FALSE(GraphToDot(loaded).empty());
}

TEST(PublicApi, ZooAndCostModelReachable) {
  using namespace lce;
  EXPECT_EQ(AllZooModels().size(), 14u);
  Graph g = BuildQuickNet(QuickNetSmallConfig(), 64);
  EXPECT_TRUE(ValidateGraph(g, ResourceLimits::Unlimited()).ok());
}

}  // namespace
