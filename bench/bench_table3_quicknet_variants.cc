// Table 3: the three QuickNet variants -- layer/filter configurations,
// published ImageNet accuracies, plus this repo's measured statistics
// (MACs, parameters, converted model size, latency).
#include <cstdio>

#include "bench_common.h"
#include "models/macs.h"
#include "models/zoo.h"
#include "telemetry/run_report.h"

int main(int argc, char** argv) {
  using namespace lce;
  using namespace lce::bench;
  const auto profile = ParseProfile(argc, argv);
  const std::string json_path = ParseJsonPath(argc, argv);
  telemetry::RunReport report("bench_table3_quicknet_variants");
  report.AddMeta("profile", ProfileName(profile));
  report.AddMetaInt("input_hw", 224);

  std::printf("=== Table 3: QuickNet variants (profile=%s) ===\n\n",
              ProfileName(profile));
  std::printf("%-15s %-14s %-20s %6s %6s %9s %8s %9s %9s %10s\n", "Model", "N",
              "k", "train", "eval", "bin-MMAC", "fp-MMAC", "params-M",
              "size-MB", "latency-ms");

  for (const auto& cfg : {QuickNetSmallConfig(), QuickNetMediumConfig(),
                          QuickNetLargeConfig()}) {
    Graph training = BuildQuickNet(cfg, 224);
    const ModelStats stats = ComputeModelStats(training);

    Graph g;
    auto exec = PrepareConverted(
        g, [&cfg](int hw) { return BuildQuickNet(cfg, hw); }, 224, profile,
        /*profiling=*/false);
    const ModelStats converted_stats = ComputeModelStats(g);
    const double latency = ModelLatency(*exec, 3);
    report.AddResult(cfg.name + ".latency_ms", latency * 1e3);
    report.AddResult(cfg.name + ".binary_mmacs", stats.binary_macs / 1e6);
    report.AddResult(cfg.name + ".float_mmacs", stats.float_macs / 1e6);
    report.AddResult(cfg.name + ".params_m", stats.params / 1e6);
    report.AddResult(cfg.name + ".size_mb",
                     converted_stats.model_bytes / (1024.0 * 1024.0));

    char layers[32], filters[48];
    std::snprintf(layers, sizeof(layers), "(%d,%d,%d,%d)", cfg.layers[0],
                  cfg.layers[1], cfg.layers[2], cfg.layers[3]);
    std::snprintf(filters, sizeof(filters), "(%d,%d,%d,%d)", cfg.filters[0],
                  cfg.filters[1], cfg.filters[2], cfg.filters[3]);
    std::printf("%-15s %-14s %-20s %5.1f%% %5.1f%% %9.1f %8.1f %9.2f %9.2f %10.1f\n",
                cfg.name.c_str(), layers, filters, cfg.train_accuracy,
                cfg.eval_accuracy, stats.binary_macs / 1e6,
                stats.float_macs / 1e6, stats.params / 1e6,
                converted_stats.model_bytes / (1024.0 * 1024.0),
                latency * 1e3);
  }
  std::printf(
      "\nAccuracies are the paper's Table 3 (ImageNet training is out of\n"
      "scope here); MACs/params/size/latency are measured from this repo's\n"
      "implementation. Shape: latency and MACs grow Small < Medium < Large.\n");
  if (!json_path.empty()) {
    const Status st = report.WriteJson(json_path);
    if (st.ok()) {
      std::printf("[json] wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                   st.message().c_str());
      return 1;
    }
  }
  return 0;
}
