// Model conversion and deployment: the converter + serializer workflow.
//
//   train (emulated)  ->  convert (fuse/lower/pack)  ->  model.lcem on disk
//   -> reload in a "deployment process" -> bit-identical inference.
//
// Also demonstrates the ablation switches of ConvertOptions (used by the
// bench_ablation_* harnesses) and reports how each optimization changes the
// op mix and the model size.
//
// Usage: ./build/examples/convert_and_deploy [output.lcem]
#include <cstdio>
#include <string>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/zoo.h"

using namespace lce;

namespace {

void PrintOpMix(const char* label, const Graph& g) {
  std::printf("%-28s ops=%3d bconv=%2d quantize=%2d bn=%2d maxpool=%d "
              "bmaxpool=%d constants=%.2f MiB\n",
              label, g.LiveNodeCount(), g.CountOps(OpType::kLceBConv2d),
              g.CountOps(OpType::kLceQuantize), g.CountOps(OpType::kBatchNorm),
              g.CountOps(OpType::kMaxPool2D),
              g.CountOps(OpType::kLceBMaxPool2d),
              g.ConstantBytes() / (1024.0 * 1024.0));
}

std::vector<float> Run(const Graph& g) {
  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(g, {}, &model).ok());
  ExecutionContext exec(model);
  Rng rng(3);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
  exec.Invoke();
  const Tensor out = exec.output(0);
  return std::vector<float>(out.data<float>(),
                            out.data<float>() + out.num_elements());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/quicknet_small.lcem";

  Graph training = BuildQuickNet(QuickNetSmallConfig(), 224);
  PrintOpMix("training graph", training);

  // Full optimization pipeline.
  Graph optimized = CloneGraph(training);
  ConvertStats stats;
  LCE_CHECK(Convert(optimized, {}, &stats).ok());
  PrintOpMix("converted (all passes)", optimized);

  // Conversion with the graph optimizations disabled, for comparison: the
  // model is still correct but keeps fp glue ops and separate quantizes.
  Graph unoptimized = CloneGraph(training);
  ConvertOptions minimal;
  minimal.fuse_batch_norm = false;
  minimal.fuse_bconv_output_transform = false;
  minimal.swap_maxpool_sign = false;
  minimal.elide_quantize = false;
  LCE_CHECK(Convert(unoptimized, minimal).ok());
  PrintOpMix("converted (lowering only)", unoptimized);

  // Serialize the optimized model.
  LCE_CHECK(SaveModel(optimized, path).ok());
  std::printf("\nSaved %s\n", path.c_str());

  // "Deployment process": reload and verify bit-identical inference.
  Graph deployed;
  LCE_CHECK(LoadModel(path, &deployed).ok());
  const auto a = Run(optimized);
  const auto b = Run(deployed);
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  std::printf("Reloaded model max |difference| vs in-memory: %g %s\n",
              max_diff, max_diff == 0.0f ? "(bit-identical)" : "");
  return max_diff == 0.0f ? 0 : 1;
}
