// Latency-driven BNN design: the paper's section 5 workflow as code.
//
// The paper argues that "empirical performance should drive BNN
// architecture design" -- MACs are an unreliable proxy (section 5.3), so
// candidate blocks should be benchmarked on-device. This example sweeps a
// small design space of residual-block variants (the knobs QuickNet's
// design explored) and reports measured latency next to the eMAC estimate,
// making the proxy's failure visible.
//
// Usage: ./build/examples/design_space
#include <cstdio>
#include <string>
#include <vector>

#include "converter/convert.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "models/macs.h"
#include "profiling/bench_utils.h"

using namespace lce;

namespace {

struct Candidate {
  std::string name;
  int layers;        // binarized 3x3 layers in the block
  int channels;
  bool shortcut;     // full-precision residual connections
  bool wide_stem;    // 32- vs 16-filter first conv
};

Graph BuildCandidate(const Candidate& c) {
  Graph g;
  ModelBuilder b(g, 400 + c.layers + c.channels);
  int x = b.Input(96, 96, 3);
  x = b.Conv(x, c.wide_stem ? 32 : 16, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  x = b.Conv(x, c.channels, 1, 1, Padding::kValid);
  x = b.BatchNorm(x);
  for (int layer = 0; layer < c.layers; ++layer) {
    int y = b.BinaryConv(x, c.channels, 3, 1, Padding::kSameOne);
    y = b.Relu(y);
    y = b.BatchNorm(y);
    x = c.shortcut ? b.Add(x, y) : y;
  }
  x = b.GlobalAvgPool(x);
  x = b.Dense(x, 100);
  g.MarkOutput(x);
  return g;
}

}  // namespace

int main() {
  const std::vector<Candidate> candidates = {
      {"4x64 + shortcuts", 4, 64, true, false},
      {"4x64, no shortcuts", 4, 64, false, false},
      {"8x64 + shortcuts", 8, 64, true, false},
      {"4x128 + shortcuts", 4, 128, true, false},
      {"4x64 + shortcuts, wide stem", 4, 64, true, true},
  };

  std::printf("Latency-driven design sweep (96x96 input, single thread)\n\n");
  std::printf("%-30s %10s %10s %12s %14s\n", "Candidate", "eMMACs",
              "params-K", "latency-ms", "ms per GeMAC");
  for (const Candidate& c : candidates) {
    Graph g = BuildCandidate(c);
    const ModelStats stats = ComputeModelStats(g);
    LCE_CHECK(Convert(g).ok());
    std::shared_ptr<const CompiledModel> model;
    LCE_CHECK(CompiledModel::Compile(g, {}, &model).ok());
    ExecutionContext exec(model);
    Rng rng(1);
    Tensor in = exec.input(0);
    for (std::int64_t i = 0; i < in.num_elements(); ++i) {
      in.data<float>()[i] = rng.Uniform();
    }
    const double ms = 1e3 * profiling::MeasureMedianSeconds(
                                [&] { exec.Invoke(); }, 1, 7, 15, 0.1);
    const double emacs = stats.emacs(15.0);
    std::printf("%-30s %10.1f %10.1f %12.2f %14.2f\n", c.name.c_str(),
                emacs / 1e6, stats.params / 1e3, ms, ms / (emacs / 1e9));
  }
  std::printf(
      "\nIf eMACs were a faithful proxy, ms-per-GeMAC would be constant\n"
      "across candidates; the spread shows why the paper insists on\n"
      "measured latency (section 5.3).\n");
  return 0;
}
