// Figure 5: stacked per-layer execution-latency breakdown for
// BinaryDenseNet28 (BDN), RealToBinaryNet (R2B) and QuickNet Large (QNL).
//
// Paper shape to reproduce: BDN and R2B spend a large fraction of runtime in
// non-binary operations -- most visibly the full-precision first layer --
// while QuickNet shrinks both the first layer and the full-precision glue.
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "models/zoo.h"
#include "profiling/model_profiler.h"

namespace {

using namespace lce;
using namespace lce::bench;

// Profiled Invokes per model, after one warm-up; each node's time is its
// median over them. On a shared 4-vCPU host, six consecutive runs at 3 or
// 30 Invokes spread a model's total by 29-57%; at 100 the shares agree to
// within about 3 points and the totals to 4-29%, the host's own drift, which
// 300 Invokes did not narrow (EXPERIMENTS.md, Figure 5).
constexpr int kProfiledInvokes = 100;

void BreakdownFor(const char* label, const std::function<Graph(int)>& build,
                  gemm::KernelProfile profile) {
  Graph g;
  auto exec = PrepareConverted(g, build, 224, profile, /*profiling=*/true);
  const auto prof = profiling::ProfileModel(*exec, kProfiledInvokes);
  const double total = profiling::TotalSeconds(prof);

  double binary = 0.0, first_layer = 0.0, other_fp = 0.0;
  bool seen_first_conv = false;
  for (const auto& op : prof) {
    if (op.is_binary_op) {
      binary += op.seconds;
    } else if (!seen_first_conv && op.type == OpType::kConv2D) {
      first_layer += op.seconds;
      seen_first_conv = true;
    } else {
      other_fp += op.seconds;
    }
  }
  std::printf("%-18s total %8.1f ms | first fp conv %5.1f%% | other fp %5.1f%%"
              " | binary ops %5.1f%%\n",
              label, total * 1e3, 100 * first_layer / total,
              100 * other_fp / total, 100 * binary / total);

  // The per-layer series of the figure (execution order, cumulative).
  std::printf("  per-layer series (op, ms, cumulative ms, kind):\n");
  double cum = 0.0;
  int idx = 0;
  for (const auto& op : prof) {
    cum += op.seconds;
    // Print the costliest entries only, to keep the output readable.
    if (op.seconds * 1e3 >= 0.5) {
      std::printf("   %3d %-16s %8.2f %9.2f  %s\n", idx,
                  std::string(OpTypeName(op.type)).c_str(), op.seconds * 1e3,
                  cum * 1e3, op.is_binary_op ? "binary" : "full-precision");
    }
    ++idx;
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto profile = ParseProfile(argc, argv);
  std::printf(
      "=== Figure 5: per-layer latency breakdown (profile=%s) ===\n\n",
      ProfileName(profile));
  BreakdownFor("BinaryDenseNet28",
               [](int hw) { return BuildBinaryDenseNet28(hw); }, profile);
  BreakdownFor("RealToBinaryNet",
               [](int hw) { return BuildRealToBinaryNet(hw); }, profile);
  BreakdownFor("QuickNetLarge",
               [](int hw) { return BuildQuickNet(QuickNetLargeConfig(), hw); },
               profile);
  std::printf(
      "Paper shape: BDN and R2B show a heavy first fp layer and significant\n"
      "fp glue; QuickNet improves both, spending most time in binary ops.\n");
  return 0;
}
