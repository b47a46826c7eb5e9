// Figure 10 (and appendix Figure 15 with --profile=scalar, which uses the
// appendix's 17x discount): eMACs vs measured latency for the model zoo,
// assuming 15 binary MACs are equivalent to one float MAC.
//
// Paper shape to reproduce: within a family (QuickNets, BinaryDenseNets)
// eMACs track latency well, but across architectures the relationship
// breaks down -- BinaryAlexNet is far slower than its eMAC count suggests.
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "models/macs.h"
#include "models/zoo.h"
#include "profiling/bench_utils.h"

int main(int argc, char** argv) {
  using namespace lce;
  using namespace lce::bench;
  const auto profile = ParseProfile(argc, argv);
  // Main text assumes 15 binary MACs per float MAC (Figure 10); the
  // appendix's RPi analysis uses 17 (Figure 15).
  const double discount =
      profile == gemm::KernelProfile::kSimd ? 15.0 : 17.0;

  std::printf(
      "=== Figure 10: eMACs (%.0f bMAC = 1 MAC) vs latency (profile=%s) "
      "===\n\n",
      discount, ProfileName(profile));
  std::printf("%-18s %-10s %10s %12s %14s\n", "Model", "Family", "eMMACs",
              "latency-ms", "ms per GeMAC");

  struct Point {
    std::string family;
    double log_emacs, log_ms;
  };
  std::vector<Point> points;
  CsvWriter csv("fig10_emacs_vs_latency", "model,family,emacs,latency_ms");
  for (const auto& m : AllZooModels()) {
    Graph g;
    auto exec = PrepareConverted(g, m.build, 224, profile, false);
    const ModelStats stats = ComputeModelStats(g);
    const double emacs = stats.emacs(discount);
    const double ms = 1e3 * ModelLatency(*exec, 3);
    std::printf("%-18s %-10s %10.1f %12.1f %14.2f\n", m.name.c_str(),
                m.family.c_str(), emacs / 1e6, ms, ms / (emacs / 1e9));
    char row[160];
    std::snprintf(row, sizeof(row), "%s,%s,%.0f,%.2f", m.name.c_str(),
                  m.family.c_str(), emacs, ms);
    csv.Row(row);
    points.push_back({m.family, std::log10(emacs), std::log10(ms)});
  }

  // Per-family and global log-log fits: within-family relationships should
  // be much tighter than the global one.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      families;
  std::vector<double> all_x, all_y;
  for (const auto& p : points) {
    families[p.family].first.push_back(p.log_emacs);
    families[p.family].second.push_back(p.log_ms);
    all_x.push_back(p.log_emacs);
    all_y.push_back(p.log_ms);
  }
  std::printf("\nLog-log fits (latency ~ eMACs):\n");
  for (const auto& [family, xy] : families) {
    if (xy.first.size() < 2) continue;
    // A meaningful slope needs eMAC spread within the family; families of
    // near-identical sizes (e.g. the two AlexNets) get no fit.
    const auto mm = profiling::Range(xy.first);
    if (mm.max - mm.min < 0.1) {  // < 1.26x spread in eMACs
      std::printf("  %-10s (insufficient eMAC spread for a fit)\n",
                  family.c_str());
      continue;
    }
    const auto fit = profiling::FitLeastSquares(xy.first, xy.second);
    std::printf("  %-10s slope %.2f  R^2 %.3f\n", family.c_str(), fit.slope,
                fit.r_squared);
  }
  const auto global = profiling::FitLeastSquares(all_x, all_y);
  std::printf("  %-10s slope %.2f  R^2 %.3f\n", "ALL", global.slope,
              global.r_squared);
  std::printf(
      "\nPaper shape: MACs are a reasonable proxy within a model family but\n"
      "not across architectures (e.g. BinaryAlexNet is ~2x slower than\n"
      "models with the same eMAC count).\n");
  return 0;
}
