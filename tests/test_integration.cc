// System-level integration tests: profiler consistency, kernel-profile and
// thread-count invariance of full models, end-to-end deployment round trips
// at realistic resolution.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/macs.h"
#include "models/zoo.h"
#include "profiling/bench_utils.h"
#include "profiling/model_profiler.h"

namespace lce {
namespace {

void FillInput(ExecutionContext& exec, std::uint64_t seed) {
  Rng rng(seed);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
}

std::vector<float> Output(ExecutionContext& exec) {
  const Tensor out = exec.output(0);
  return std::vector<float>(out.data<float>(),
                            out.data<float>() + out.num_elements());
}

TEST(Integration, ProfiledOpTimesSumToTotalWallTime) {
  Graph g = BuildQuickNet(QuickNetSmallConfig(), 96);
  ASSERT_TRUE(Convert(g).ok());
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionOptions opts;
  opts.enable_profiling = true;
  ExecutionContext exec(model, opts);
  FillInput(exec, 1);
  exec.Invoke();  // warmup

  const double t0 = profiling::NowSeconds();
  exec.Invoke();
  const double wall = profiling::NowSeconds() - t0;
  const double summed = profiling::TotalSeconds(exec.profile());
  // Per-op times must account for nearly all of the wall time.
  EXPECT_GT(summed, 0.8 * wall);
  EXPECT_LE(summed, wall * 1.02);
}

TEST(Integration, ScalarProfileMatchesSimdExactlyOnBinaryPath) {
  // The SIMD and scalar kernels are bit-identical on binarized math, so a
  // converted model must produce identical outputs under both profiles
  // (binary ops exactly; fp GEMM to tight tolerance).
  Graph g = BuildBinarizedResNet18(ShortcutMode::kNone, 64);
  ASSERT_TRUE(Convert(g).ok());

  std::vector<float> out_simd, out_scalar;
  for (auto profile :
       {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
    CompileOptions opts;
    opts.kernel_profile = profile;
    std::shared_ptr<const CompiledModel> model;
    ASSERT_TRUE(CompiledModel::Compile(g, opts, &model).ok());
    ExecutionContext exec(model);
    FillInput(exec, 5);
    exec.Invoke();
    (profile == gemm::KernelProfile::kSimd ? out_simd : out_scalar) =
        Output(exec);
  }
  ASSERT_EQ(out_simd.size(), out_scalar.size());
  for (std::size_t i = 0; i < out_simd.size(); ++i) {
    ASSERT_NEAR(out_simd[i], out_scalar[i], 1e-5f) << i;
  }
}

class ThreadInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ThreadInvariance, MultithreadedInferenceMatchesSingleThreaded) {
  const int threads = GetParam();
  Graph g = BuildQuickNet(QuickNetSmallConfig(), 64);
  ASSERT_TRUE(Convert(g).ok());

  std::vector<float> single, multi;
  {
    std::shared_ptr<const CompiledModel> model;
    ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
    ExecutionContext exec(model);
    FillInput(exec, 9);
    exec.Invoke();
    single = Output(exec);
  }
  {
    CompileOptions opts;
    opts.num_threads = threads;
    std::shared_ptr<const CompiledModel> model;
    ASSERT_TRUE(CompiledModel::Compile(g, opts, &model).ok());
    ExecutionContext exec(model);
    FillInput(exec, 9);
    exec.Invoke();
    multi = Output(exec);
  }
  ASSERT_EQ(single.size(), multi.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    // Binary accumulation is exact; fp GEMM sharding does not reorder
    // within-row accumulation, so results should be identical.
    ASSERT_EQ(single[i], multi[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadInvariance, ::testing::Values(2, 3, 4));

TEST(Integration, DeploymentRoundTripAtFullResolution) {
  // train -> convert -> serialize -> load -> run at 224x224, the exact
  // deployment path of the examples.
  Graph g = BuildQuickNet(QuickNetSmallConfig(), 224);
  ASSERT_TRUE(Convert(g).ok());
  const auto bytes = SerializeGraph(g);
  Graph loaded;
  ASSERT_TRUE(DeserializeGraph(bytes.data(), bytes.size(), &loaded).ok());

  std::shared_ptr<const CompiledModel> model_a, model_b;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model_a).ok());
  ASSERT_TRUE(CompiledModel::Compile(loaded, {}, &model_b).ok());
  ExecutionContext a(model_a), b(model_b);
  FillInput(a, 2);
  FillInput(b, 2);
  a.Invoke();
  b.Invoke();
  EXPECT_EQ(Output(a), Output(b));
}

TEST(Integration, QuickNetBinaryFractionDominatesProfile) {
  // The QuickNet design goal (Figure 5): most runtime in binary ops.
  Graph g = BuildQuickNet(QuickNetLargeConfig(), 224);
  ASSERT_TRUE(Convert(g).ok());
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionOptions opts;
  opts.enable_profiling = true;
  ExecutionContext exec(model, opts);
  FillInput(exec, 3);
  const auto prof = profiling::ProfileModel(exec, 3);
  double binary = 0.0, total = 0.0;
  for (const auto& op : prof) {
    total += op.seconds;
    if (op.is_binary_op) binary += op.seconds;
  }
  EXPECT_GT(binary / total, 0.5)
      << "QuickNet must spend most of its time in binary operators";
}

TEST(Integration, ArenaMuchSmallerThanSumOfActivations) {
  Graph g = BuildBinaryDenseNet28(224);
  ASSERT_TRUE(Convert(g).ok());
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  std::size_t sum = 0;
  for (const auto& v : g.values()) {
    if (v->alive && !v->is_constant) {
      sum += Tensor::ByteSize(v->dtype, v->shape);
    }
  }
  EXPECT_LT(model->arena_bytes(), sum / 3)
      << "lifetime-based planning must reuse activation memory";
}

TEST(Integration, AllZooModelsAgreeAcrossKernelProfiles) {
  // Every architecture, both kernel profiles: the SIMD and scalar binary
  // kernels are bit-identical and the float kernels agree to fp tolerance,
  // so final class probabilities must match closely.
  for (const auto& m : AllZooModels()) {
    Graph g = m.build(64);
    ASSERT_TRUE(Convert(g).ok()) << m.name;
    std::vector<float> out_simd, out_scalar;
    for (auto profile :
         {gemm::KernelProfile::kSimd, gemm::KernelProfile::kScalar}) {
      CompileOptions opts;
      opts.kernel_profile = profile;
      std::shared_ptr<const CompiledModel> model;
      ASSERT_TRUE(CompiledModel::Compile(g, opts, &model).ok()) << m.name;
      ExecutionContext exec(model);
      FillInput(exec, 21);
      exec.Invoke();
      (profile == gemm::KernelProfile::kSimd ? out_simd : out_scalar) =
          Output(exec);
    }
    ASSERT_EQ(out_simd.size(), out_scalar.size()) << m.name;
    for (std::size_t i = 0; i < out_simd.size(); ++i) {
      ASSERT_NEAR(out_simd[i], out_scalar[i], 1e-4f)
          << m.name << " output " << i;
    }
  }
}

TEST(Integration, ConcurrentModelsShareOneGraph) {
  // A converted Graph is read-only at inference time, so multiple models
  // compiled from it (each with its own packed weights, run on its own
  // context and arena) must be able to run concurrently against the same
  // graph and agree exactly.
  Graph g = BuildQuickNet(QuickNetSmallConfig(), 64);
  ASSERT_TRUE(Convert(g).ok());

  constexpr int kThreads = 4;
  std::vector<std::vector<float>> outputs(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, &outputs, t] {
      std::shared_ptr<const CompiledModel> model;
      ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
      ExecutionContext exec(model);
      FillInput(exec, 99);  // same seed: identical inputs
      for (int round = 0; round < 3; ++round) exec.Invoke();
      outputs[t] = Output(exec);
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(outputs[t], outputs[0]) << "thread " << t;
  }
}

TEST(Integration, ModelStatsConsistentAcrossDialects) {
  for (const auto& m : AllZooModels()) {
    Graph training = m.build(64);
    Graph inference = CloneGraph(training);
    ASSERT_TRUE(Convert(inference).ok());
    const auto a = ComputeModelStats(training);
    const auto b = ComputeModelStats(inference);
    EXPECT_EQ(a.binary_macs, b.binary_macs) << m.name;
    EXPECT_EQ(a.float_macs, b.float_macs) << m.name;
  }
}

}  // namespace
}  // namespace lce
