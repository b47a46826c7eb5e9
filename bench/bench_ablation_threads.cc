// Ablation: multi-threaded inference scaling. Multi-threading is the
// capability the paper calls out as missing from DaBNN ("multi-threaded
// inference is not supported"); LCE inherits it from the Ruy-style
// context. We measure BGEMM-dominated convolutions and a full model across
// thread counts.
//
// Note: on a single-hardware-core host the expected result is *no* speedup
// (threads just add synchronization cost); on multi-core hosts the binary
// GEMM scales with cores. The harness reports whatever the machine gives.
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "models/zoo.h"

int main(int argc, char** argv) {
  using namespace lce;
  using namespace lce::bench;
  const auto profile = ParseProfile(argc, argv);

  std::printf("=== Ablation: thread scaling (profile=%s, hardware threads: "
              "%u) ===\n\n",
              ProfileName(profile), std::thread::hardware_concurrency());
  std::printf("%-22s %12s %12s %12s\n", "Workload", "1 thread", "2 threads",
              "4 threads");

  // Convolution-level scaling.
  for (const auto& [name, dims] : ResNet18Convs()) {
    double ms[3];
    int idx = 0;
    for (int threads : {1, 2, 4}) {
      gemm::Context ctx(threads, profile);
      ConvBench b = MakeBinaryConv(dims, ctx);
      ms[idx++] = 1e3 * profiling::MeasureMedianSeconds(b.run, 1, 5, 20, 0.02);
    }
    std::printf("bconv %-16s %10.3f %12.3f %12.3f\n", name.c_str(), ms[0],
                ms[1], ms[2]);
  }

  // Model-level scaling.
  {
    double ms[3];
    int idx = 0;
    for (int threads : {1, 2, 4}) {
      Graph g = BuildQuickNet(QuickNetMediumConfig(), 224);
      LCE_CHECK(Convert(g).ok());
      CompileOptions opts;
      opts.num_threads = threads;
      opts.kernel_profile = profile;
      const auto exec = PrepareContext(g, opts);
      ms[idx++] =
          1e3 * profiling::MeasureMedianSeconds([&] { exec->Invoke(); }, 1,
                                                5, 10, 0.1);
    }
    std::printf("%-22s %10.1f %12.1f %12.1f\n", "QuickNet 224x224", ms[0],
                ms[1], ms[2]);
  }
  return 0;
}
