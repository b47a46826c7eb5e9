// Image classification with QuickNet: runs the paper's state-of-the-art BNN
// on a synthetic 224x224 image and reports top-5 predictions and latency.
//
// (Weights are randomly initialized -- this demonstrates the deployment
// path and performance, not trained accuracy; see DESIGN.md.)
//
// Usage: ./build/examples/image_classification [small|medium|large]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "converter/convert.h"
#include "graph/compiled_model.h"
#include "models/zoo.h"
#include "profiling/bench_utils.h"

using namespace lce;

namespace {

// A deterministic procedural test image: RGB gradients with a circular
// highlight, normalized to roughly [-1, 1] as a preprocessing stage would.
void FillSyntheticImage(Tensor& input) {
  const int h = static_cast<int>(input.shape().dim(1));
  const int w = static_cast<int>(input.shape().dim(2));
  float* p = input.data<float>();
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const float dy = (y - h / 2.0f) / (h / 2.0f);
      const float dx = (x - w / 2.0f) / (w / 2.0f);
      const float r = std::sqrt(dx * dx + dy * dy);
      float* px = p + (static_cast<std::int64_t>(y) * w + x) * 3;
      px[0] = 2.0f * static_cast<float>(x) / w - 1.0f;   // horizontal ramp
      px[1] = 2.0f * static_cast<float>(y) / h - 1.0f;   // vertical ramp
      px[2] = r < 0.5f ? 1.0f - 2.0f * r : -0.3f;        // circular blob
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  QuickNetConfig cfg = QuickNetMediumConfig();
  if (argc > 1) {
    if (std::strcmp(argv[1], "small") == 0) cfg = QuickNetSmallConfig();
    if (std::strcmp(argv[1], "large") == 0) cfg = QuickNetLargeConfig();
  }
  std::printf("Building %s (published ImageNet top-1: %.1f%%)...\n",
              cfg.name.c_str(), cfg.eval_accuracy);

  Graph g = BuildQuickNet(cfg, 224);
  const Status status = Convert(g);
  LCE_CHECK(status.ok());

  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  std::printf("Arena: %.1f MiB, model constants: %.1f MiB\n",
              exec.arena_bytes() / (1024.0 * 1024.0),
              g.ConstantBytes() / (1024.0 * 1024.0));

  Tensor input = exec.input(0);
  FillSyntheticImage(input);

  // Warmup + timed runs.
  const double latency =
      profiling::MeasureMedianSeconds([&] { exec.Invoke(); }, 1, 5, 10, 0.2);
  std::printf("Inference latency: %.1f ms (single thread)\n", latency * 1e3);

  // Top-5 report.
  const Tensor out = exec.output(0);
  std::vector<int> idx(1000);
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + 5, idx.end(),
                    [&](int a, int b) {
                      return out.data<float>()[a] > out.data<float>()[b];
                    });
  std::printf("Top-5 classes (random weights -- structural demo):\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  class %4d: p = %.4f\n", idx[i],
                out.data<float>()[idx[i]]);
  }
  return 0;
}
