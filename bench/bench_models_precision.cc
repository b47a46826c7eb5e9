// Extension experiment: Figure 2 generalized to whole models. The same
// ResNet18 architecture in three precisions -- float32, int8 (post-training
// quantized, the TFLite-style baseline) and binarized (Bi-Real-style with
// shortcuts) -- measured end to end.
//
// Expected shape, following the paper's conv-level results: binary < int8 <
// float in latency, with the binarized model's gap limited by its fp first
// layer and glue (the Amdahl effect QuickNet was designed to attack).
#include <cstdio>

#include "bench_common.h"
#include "converter/ptq.h"
#include "models/macs.h"
#include "models/zoo.h"

namespace {

using namespace lce;
using namespace lce::bench;

struct Row {
  const char* name;
  double ms;
  std::size_t bytes;
};

Row Measure(const char* name, Graph& g, gemm::KernelProfile profile) {
  CompileOptions opts;
  opts.kernel_profile = profile;
  const auto exec = PrepareContext(g, opts);
  const double ms =
      1e3 * profiling::MeasureMedianSeconds([&] { exec->Invoke(); }, 1, 7,
                                            15, 0.2);
  return {name, ms, g.ConstantBytes()};
}

}  // namespace

int main(int argc, char** argv) {
  const auto profile = ParseProfile(argc, argv);
  std::printf("=== Extension: ResNet18 across precisions (224x224, "
              "profile=%s) ===\n\n",
              ProfileName(profile));

  Graph float_graph = BuildFloatResNet18(224);
  const Row f = Measure("float32", float_graph, profile);

  Graph int8_graph = BuildFloatResNet18(224);
  PtqStats ptq_stats;
  LCE_CHECK(QuantizeModelInt8(int8_graph, {}, &ptq_stats).ok());
  const Row q = Measure("int8 (PTQ)", int8_graph, profile);

  Graph binary_graph = BuildBinarizedResNet18(ShortcutMode::kAllBlocks, 224);
  LCE_CHECK(Convert(binary_graph).ok());
  const Row b = Measure("binary (Bi-Real style)", binary_graph, profile);

  std::printf("%-24s %12s %10s %12s\n", "Model", "latency-ms", "speedup",
              "weights-MB");
  for (const Row& r : {f, q, b}) {
    std::printf("%-24s %12.1f %9.1fx %12.2f\n", r.name, r.ms, f.ms / r.ms,
                r.bytes / (1024.0 * 1024.0));
  }
  std::printf("\n(int8 model: %d convolutions quantized, %d quantize pairs "
              "cancelled)\n",
              ptq_stats.convs_quantized, ptq_stats.quantize_pairs_cancelled);
  std::printf(
      "Shape: binary < int8 < float latency; the end-to-end binary speedup\n"
      "is smaller than the conv-level Figure 2 factors because the fp first\n"
      "layer and glue do not binarize (cf. Figure 5 / Table 4).\n");
  return 0;
}
