// Figure 4: LCE's packed BGEMM versus reimplementations of the competing
// frameworks' kernel strategies (DaBNN-style direct kernel, TVM/Riptide-
// style generic codegen loop, BMXNet-style rank-1-update loop) on the
// Figure 2 convolutions. All strategies run on identical bitpacked
// im2col patches, so the comparison isolates the BGEMM design.
//
// Paper shape to reproduce: LCE fastest on every convolution; the generic
// TVM-style kernel and the unpacked BMXNet-style kernel trail the
// hand-blocked kernels. (Paper text also reports BiRealNet total latency:
// LCE 86.8 ms vs DaBNN 119.8 ms on a Raspberry Pi 4B.)
#include <cstdio>

#include "bench_common.h"
#include "bgemm_baselines.h"
#include "core/bitpack.h"
#include "gemm_drivers.h"
#include "im2col.h"
#include "models/zoo.h"
#include "telemetry/run_report.h"

namespace {

using namespace lce;
using namespace lce::bench;

struct Workload {
  int m = 0, n = 0, kw = 0, k_bits = 0;
  std::vector<TBitpacked> patches;  // im2col output [m][kw]
  std::vector<TBitpacked> weights;  // [n][kw]
  std::vector<std::int32_t> out;
};

Workload MakeWorkload(const ConvDims& d) {
  Conv2DGeometry g;
  g.in_h = g.in_w = d.hw;
  g.in_c = g.out_c = d.channels;
  g.filter_h = g.filter_w = d.kernel;
  g.padding = Padding::kSameOne;

  Rng rng(d.hw + d.channels);
  Tensor input_f(DataType::kFloat32, Shape{1, d.hw, d.hw, d.channels});
  FillSigns(input_f, rng);
  Tensor input_b(DataType::kBitpacked, input_f.shape());
  BitpackTensor(input_f, input_b);

  Workload w;
  w.m = static_cast<int>(Im2ColRows(g));
  w.n = d.channels;
  w.kw = Im2ColDepthBitpacked(g);
  w.k_bits = d.kernel * d.kernel * d.channels;
  w.patches.resize(static_cast<std::size_t>(w.m) * w.kw);
  Im2ColBitpacked(input_b.data<TBitpacked>(), g, w.patches.data());
  w.weights.resize(static_cast<std::size_t>(w.n) * w.kw);
  for (auto& v : w.weights) v = static_cast<TBitpacked>(rng.Next());
  w.out.resize(static_cast<std::size_t>(w.m) * w.n);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const auto profile = ParseProfile(argc, argv);
  const std::string json_path = ParseJsonPath(argc, argv);
  telemetry::RunReport report("bench_fig4_framework_comparison");
  report.AddMeta("profile", ProfileName(profile));
  gemm::Context ctx(1, profile);

  std::printf(
      "=== Figure 4: BGEMM strategy comparison on convs A-D (profile=%s) "
      "===\n\n",
      ProfileName(profile));
  std::printf("%-18s %12s %14s %14s %14s\n", "Convolution", "LCE (ms)",
              "DaBNN (ms)", "TVM (ms)", "BMXNet (ms)");

  for (const auto& [name, dims] : ResNet18Convs()) {
    Workload w = MakeWorkload(dims);
    gemm::PackedBinaryMatrix packed(w.weights.data(), w.n, w.kw);

    const double lce = profiling::MeasureMedianSeconds([&] {
      BGemm(w.patches.data(), w.m, packed, w.k_bits, w.out.data(), w.n, ctx);
    });
    const double dabnn = profiling::MeasureMedianSeconds([&] {
      DaBnnStyleBGemm(w.patches.data(), w.m, w.weights.data(), w.n, w.kw,
                      w.k_bits, w.out.data(), w.n);
    });
    const double tvm = profiling::MeasureMedianSeconds([&] {
      TvmStyleBGemm(w.patches.data(), w.m, w.weights.data(), w.n, w.kw,
                    w.k_bits, w.out.data(), w.n);
    });
    const double bmxnet = profiling::MeasureMedianSeconds([&] {
      BmxnetStyleBGemm(w.patches.data(), w.m, w.weights.data(), w.n, w.kw,
                       w.k_bits, w.out.data(), w.n);
    });
    std::printf("%-18s %12.3f %14.3f %14.3f %14.3f\n", name.c_str(),
                lce * 1e3, dabnn * 1e3, tvm * 1e3, bmxnet * 1e3);
    report.AddResult(name + ".lce_ms", lce * 1e3);
    report.AddResult(name + ".dabnn_ms", dabnn * 1e3);
    report.AddResult(name + ".tvm_ms", tvm * 1e3);
    report.AddResult(name + ".bmxnet_ms", bmxnet * 1e3);
  }

  // The paper's BiRealNet end-to-end comparison (text of section 4.2).
  std::printf("\nBiRealNet end-to-end latency with LCE (paper: 86.8 ms LCE vs"
              " 119.8 ms DaBNN on RPi 4B):\n");
  Graph g;
  auto exec = PrepareConverted(
      g, [](int hw) { return BuildBiRealNet18(hw); }, 224, profile,
      /*profiling=*/false);
  const double birealnet_ms = 1e3 * ModelLatency(*exec, 3);
  std::printf("  BiRealNet (224x224): %.1f ms\n", birealnet_ms);
  report.AddResult("birealnet_224.latency_ms", birealnet_ms);
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
