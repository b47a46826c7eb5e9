// Quickstart: the end-to-end LCE workflow from the paper's Figure 1.
//
//   1. Build a small binarized model in the *training dialect* (what Larq
//      would construct: float-emulated binarization).
//   2. Convert it to the *inference dialect* (true bitpacked operators,
//      fused batch norm, bitpacked layer chaining, 32x weight compression).
//   3. Compile both graphs and run inference on an ExecutionContext; the
//      converted model computes the same function as the training graph.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "converter/convert.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "models/macs.h"

using namespace lce;

int main() {
  // --- 1. Build a tiny BNN: fp stem, two binarized residual layers, fp
  // classifier head (the canonical BNN structure).
  Graph training;
  ModelBuilder b(training, /*seed=*/2021);
  int x = b.Input(32, 32, 3);
  x = b.Conv(x, 32, 3, 2, Padding::kSameZero);  // full-precision first layer
  x = b.BatchNorm(x);
  x = b.Relu(x);
  for (int layer = 0; layer < 2; ++layer) {
    int y = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
    y = b.Relu(y);
    y = b.BatchNorm(y);
    x = b.Add(x, y);  // full-precision shortcut
  }
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 10);
  x = b.Softmax(x);
  training.MarkOutput(x);
  std::printf("Training graph: %d ops, %.1f KiB of constants\n",
              training.LiveNodeCount(), training.ConstantBytes() / 1024.0);

  // --- 2. Convert.
  Graph inference = CloneGraph(training);
  ConvertStats stats;
  const Status status = Convert(inference, {}, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "conversion failed: %s\n", status.message().c_str());
    return 1;
  }
  std::printf(
      "Converted:      %d ops, %.1f KiB of constants\n"
      "  binarized convs lowered: %d\n"
      "  batch norms fused:       %d (float) + %d (binary output transform)\n"
      "  quantize ops elided:     %d\n",
      inference.LiveNodeCount(), inference.ConstantBytes() / 1024.0,
      stats.bconvs_lowered, stats.batch_norms_fused_into_float_conv,
      stats.bconv_transforms_fused, stats.quantizes_elided);

  // --- 3. Run both graphs on the same input.
  const auto run = [](const Graph& g, const char* label) {
    std::shared_ptr<const CompiledModel> model;
    const Status compiled = CompiledModel::Compile(g, {}, &model);
    LCE_CHECK(compiled.ok());
    ExecutionContext exec(model);
    Rng rng(7);
    Tensor in = exec.input(0);
    for (std::int64_t i = 0; i < in.num_elements(); ++i) {
      in.data<float>()[i] = rng.Uniform();
    }
    exec.Invoke();
    const Tensor out = exec.output(0);
    std::printf("%s class probabilities: ", label);
    for (int i = 0; i < 10; ++i) std::printf("%.3f ", out.data<float>()[i]);
    std::printf("\n");
    return std::vector<float>(out.data<float>(), out.data<float>() + 10);
  };
  const auto p_train = run(training, "training ");
  const auto p_infer = run(inference, "inference");

  float max_diff = 0.0f;
  for (int i = 0; i < 10; ++i) {
    max_diff = std::max(max_diff, std::abs(p_train[i] - p_infer[i]));
  }
  std::printf("max |difference| = %.2e  (binarized arithmetic is exact; any "
              "residue comes from fp glue reassociation)\n",
              max_diff);

  const ModelStats ms = ComputeModelStats(inference);
  std::printf("Model stats: %.1f M binary MACs, %.1f M float MACs, %lld "
              "parameters\n",
              ms.binary_macs / 1e6, ms.float_macs / 1e6,
              static_cast<long long>(ms.params));
  return max_diff < 1e-3f ? 0 : 1;
}
