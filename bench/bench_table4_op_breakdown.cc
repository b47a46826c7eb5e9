// Table 4: latency cost of each operator in QuickNet as a proportion of
// overall latency (single threaded), with LceBConv2d split into the main
// accumulation loop and the output transformation.
//
// Paper (RPi 4B, single thread): LceQuantize 3.52%, accumulation loop
// 53.41%, output transformation 3.68%, fp Conv2D 20.15%, fp Add 9.55%,
// other fp 9.69%. Shape to reproduce: the accumulation loop dominates;
// the output transform and quantize ops are small; fp Conv2D and Add are
// the main full-precision contributors.
#include <cstdio>

#include "bench_common.h"
#include "models/zoo.h"
#include "profiling/model_profiler.h"

int main(int argc, char** argv) {
  using namespace lce;
  using namespace lce::bench;
  const auto profile = ParseProfile(argc, argv);

  Graph g;
  auto exec = PrepareConverted(
      g, [](int hw) { return BuildQuickNet(QuickNetMediumConfig(), hw); },
      224, profile, /*profiling=*/true);
  const auto prof = profiling::ProfileModel(*exec, 5);
  const auto rows = profiling::OperatorBreakdown(prof);

  std::printf(
      "=== Table 4: QuickNet operator latency breakdown (profile=%s, single "
      "thread) ===\n\n",
      ProfileName(profile));
  std::printf("%-38s %12s %10s\n", "Operator", "Latency (ms)", "Latency %");
  for (const auto& r : rows) {
    std::printf("%-38s %12.2f %9.2f%%\n", r.category.c_str(), r.seconds * 1e3,
                r.percent);
  }
  std::printf("Total: %.1f ms\n", profiling::TotalSeconds(prof) * 1e3);
  std::printf(
      "\nPaper (RPi 4B): LceQuantize 3.52%%, accumulation loop 53.41%%,\n"
      "output transformation 3.68%%, fp Conv2D 20.15%%, fp Add 9.55%%,\n"
      "all other fp 9.69%%.\n");
  return 0;
}
