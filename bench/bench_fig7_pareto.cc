// Figure 7 (and appendix Figure 13 with --profile=scalar): accuracy vs
// measured latency for the BNN model zoo.
//
// Paper shape to reproduce: BiRealNet, RealToBinaryNet and especially the
// QuickNet family define the accuracy/latency pareto front, while
// BinaryDenseNets and MeliusNet trade higher accuracy for distinctly worse
// latency, and the AlexNet-era models are dominated.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "models/macs.h"
#include "models/zoo.h"

int main(int argc, char** argv) {
  using namespace lce;
  using namespace lce::bench;
  const auto profile = ParseProfile(argc, argv);

  std::printf("=== Figure 7: accuracy vs latency for the model zoo "
              "(profile=%s) ===\n\n",
              ProfileName(profile));
  std::printf("%-18s %-10s %8s %12s %9s\n", "Model", "Family", "top-1",
              "latency-ms", "size-MB");

  struct Point {
    std::string name;
    float acc;
    double ms;
  };
  std::vector<Point> points;
  CsvWriter csv("fig7_pareto", "model,family,top1,latency_ms,size_mb");
  for (const auto& m : AllZooModels()) {
    Graph g;
    auto exec = PrepareConverted(g, m.build, 224, profile, false);
    const double latency = ModelLatency(*exec, 3);
    const ModelStats stats = ComputeModelStats(g);
    std::printf("%-18s %-10s %7.1f%% %12.1f %9.2f\n", m.name.c_str(),
                m.family.c_str(), m.top1_accuracy, latency * 1e3,
                stats.model_bytes / (1024.0 * 1024.0));
    char row[160];
    std::snprintf(row, sizeof(row), "%s,%s,%.1f,%.2f,%.2f", m.name.c_str(),
                  m.family.c_str(), m.top1_accuracy, latency * 1e3,
                  stats.model_bytes / (1024.0 * 1024.0));
    csv.Row(row);
    points.push_back({m.name, m.top1_accuracy, latency * 1e3});
  }

  // Report the measured pareto front (not dominated in both axes).
  std::printf("\nPareto front (no other model is both faster and more accurate):\n");
  for (const auto& p : points) {
    bool dominated = false;
    for (const auto& q : points) {
      if (q.ms < p.ms && q.acc > p.acc) dominated = true;
    }
    if (!dominated) std::printf("  %s\n", p.name.c_str());
  }
  std::printf(
      "\nPaper shape: QuickNets + BiRealNet + RealToBinaryNet on the front;\n"
      "BinaryDenseNet / MeliusNet accurate but slow; AlexNets dominated.\n");
  return 0;
}
