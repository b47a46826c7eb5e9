// Figure 8 / Figure 9 (and appendix Figure 14 with --profile=scalar): the
// latency impact of full-precision shortcuts on a binarized ResNet18.
//
//  (A) shortcuts in every block, incl. the downsampling blocks' extra
//      full-precision pointwise convolution (Figure 9 right);
//  (B) shortcuts in regular blocks only;
//  (C) no shortcuts anywhere.
//
// Paper shape to reproduce: regular-block shortcuts cost little (B ~ C);
// the downsampling pointwise convolutions carry a substantial cost (A > B).
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "converter/convert.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "profiling/bench_utils.h"
#include "profiling/model_profiler.h"

namespace {

using namespace lce;
using namespace lce::bench;

// Block-level measurements, which is what the paper's Figure 8 actually
// plots: one binarized layer (a) without shortcut, (b) with a regular
// shortcut, (c) as a downsampling block with the fp pointwise-conv shortcut
// (the three diagrams of Figure 9).
std::unique_ptr<ExecutionContext> MakeBlock(int hw, int channels,
                                            bool shortcut, bool downsample,
                                            gemm::KernelProfile profile,
                                            std::unique_ptr<Graph>& storage) {
  storage = std::make_unique<Graph>();
  Graph& g = *storage;
  ModelBuilder b(g, 97 + channels + (shortcut ? 1 : 0) + (downsample ? 2 : 0));
  int x = b.Input(hw, hw, channels);
  const int out_c = downsample ? 2 * channels : channels;
  const int stride = downsample ? 2 : 1;
  int y = b.BinaryConv(x, out_c, 3, stride, Padding::kSameZero);
  y = b.BatchNorm(y);
  if (shortcut) {
    int sc = x;
    if (downsample) {
      sc = b.AvgPool(sc, 2, 2, Padding::kValid);
      sc = b.Conv(sc, out_c, 1, 1, Padding::kValid);
      sc = b.BatchNorm(sc);
    }
    y = b.Add(y, sc);
  }
  // A trailing binarized consumer so that, without a shortcut, the block
  // chains bitpacked (matching the figure's "input and output binary").
  y = b.BinaryConv(y, out_c, 3, 1, Padding::kSameZero);
  y = b.BatchNorm(y);
  g.MarkOutput(y);
  LCE_CHECK(Convert(g).ok());
  CompileOptions opts;
  opts.kernel_profile = profile;
  auto exec = PrepareContext(g, opts, {}, /*seed=*/5);
  exec->Invoke();  // warmup
  return exec;
}

// Measures the four block variants interleaved round-robin so host drift
// cancels; returns per-variant median seconds.
std::array<double, 4> BlockLatencies(int hw, int channels,
                                     gemm::KernelProfile profile) {
  std::unique_ptr<Graph> g[4];
  std::unique_ptr<ExecutionContext> exec[4];
  const bool config[4][2] = {
      {false, false}, {true, false}, {false, true}, {true, true}};
  for (int v = 0; v < 4; ++v) {
    exec[v] = MakeBlock(hw, channels, config[v][0], config[v][1], profile,
                        g[v]);
  }
  std::vector<double> samples[4];
  for (int round = 0; round < 25; ++round) {
    for (int v = 0; v < 4; ++v) {
      const double t0 = profiling::NowSeconds();
      exec[v]->Invoke();
      samples[v].push_back(profiling::NowSeconds() - t0);
    }
  }
  return {profiling::Median(samples[0]), profiling::Median(samples[1]),
          profiling::Median(samples[2]), profiling::Median(samples[3])};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lce;
  using namespace lce::bench;
  const auto profile = ParseProfile(argc, argv);

  std::printf("=== Figure 8: shortcut ablation on binarized ResNet18 "
              "(profile=%s) ===\n\n",
              ProfileName(profile));

  // --- Block-level comparison (the paper's Figure 8/9 unit of analysis).
  std::printf("Block-level (two binarized 3x3 layers, Figure 9 shapes):\n");
  std::printf("%-40s %12s %10s\n", "Block type", "latency-ms", "overhead");
  for (const auto& [hw, ch] : {std::pair{28, 128}, std::pair{14, 256}}) {
    const auto t = BlockLatencies(hw, ch, profile);
    const double none = t[0], regular = t[1], down_no_sc = t[2], down_sc = t[3];
    std::printf("  %dx%dx%d  no shortcut %27.3f %9s\n", hw, hw, ch,
                none * 1e3, "-");
    std::printf("  %dx%dx%d  regular shortcut %22.3f %+8.1f%%\n", hw, hw, ch,
                regular * 1e3, 100.0 * (regular - none) / none);
    std::printf("  %dx%dx%d  downsample, no shortcut %15.3f %9s\n", hw, hw,
                ch, down_no_sc * 1e3, "-");
    std::printf("  %dx%dx%d  downsample + fp pointwise sc %10.3f %+8.1f%%\n",
                hw, hw, ch, down_sc * 1e3,
                100.0 * (down_sc - down_no_sc) / down_no_sc);
  }
  std::printf("\nFull-model comparison:\n");
  std::printf("%-34s %12s %14s %14s\n", "Variant", "latency-ms", "fp Add ms",
              "fp Conv2D ms");

  const struct {
    const char* label;
    ShortcutMode mode;
  } variants[] = {
      {"(A) shortcuts everywhere", ShortcutMode::kAllBlocks},
      {"(B) regular blocks only", ShortcutMode::kRegularOnly},
      {"(C) no shortcuts", ShortcutMode::kNone},
  };

  // Interleave the three variants round-robin (host drift cancels).
  std::unique_ptr<Graph> graphs[3];
  std::unique_ptr<ExecutionContext> execs[3];
  std::vector<std::vector<lce::OpProfile>> profiles(3);
  for (int v = 0; v < 3; ++v) {
    auto& g = graphs[v];
    g = std::make_unique<Graph>(BuildBinarizedResNet18(variants[v].mode, 224));
    LCE_CHECK(Convert(*g).ok());
    CompileOptions opts;
    opts.kernel_profile = profile;
    ExecutionOptions exec_opts;
    exec_opts.enable_profiling = true;
    execs[v] = PrepareContext(*g, opts, exec_opts);
    execs[v]->Invoke();  // warmup
  }
  std::vector<double> totals[3];
  for (int round = 0; round < 11; ++round) {
    for (int v = 0; v < 3; ++v) {
      execs[v]->Invoke();
      totals[v].push_back(profiling::TotalSeconds(execs[v]->profile()));
      if (round == 5) profiles[v] = execs[v]->profile();  // sample breakdown
    }
  }
  double latency_a = 0.0, latency_b = 0.0, latency_c = 0.0;
  for (int v = 0; v < 3; ++v) {
    const double total = profiling::Median(totals[v]);
    double add_ms = 0.0, conv_ms = 0.0;
    for (const auto& op : profiles[v]) {
      if (op.type == OpType::kAdd) add_ms += op.seconds;
      if (op.type == OpType::kConv2D) conv_ms += op.seconds;
    }
    std::printf("%-34s %12.1f %14.2f %14.2f\n", variants[v].label,
                total * 1e3, add_ms * 1e3, conv_ms * 1e3);
    if (variants[v].mode == ShortcutMode::kAllBlocks) latency_a = total;
    if (variants[v].mode == ShortcutMode::kRegularOnly) latency_b = total;
    if (variants[v].mode == ShortcutMode::kNone) latency_c = total;
  }

  std::printf("\nRegular-block shortcut overhead (B vs C): +%.1f%%\n",
              100.0 * (latency_b - latency_c) / latency_c);
  std::printf("Downsample shortcut overhead    (A vs B): +%.1f%%\n",
              100.0 * (latency_a - latency_b) / latency_b);
  std::printf(
      "\nPaper shape: the regular-block impact is small; the downsampling\n"
      "blocks' extra fp pointwise convolution is the substantial cost.\n");
  return 0;
}
