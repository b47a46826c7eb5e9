// Ablation (paper section 3.2): one-padding vs zero-padding binarized
// convolutions. Zero padding requires the extra correction step over the
// border outputs, so it must be measurably slower; the paper introduces
// one-padding (and trains QuickNet with it) for exactly this reason.
#include <cstdio>

#include "bench_common.h"
#include "core/bitpack.h"
#include "converter/convert.h"
#include "kernels/bconv2d.h"
#include "models/zoo.h"

namespace {

using namespace lce;
using namespace lce::bench;

double BConvLatency(const ConvDims& d, Padding pad, gemm::Context& ctx) {
  Conv2DGeometry g;
  g.in_h = g.in_w = d.hw;
  g.in_c = g.out_c = d.channels;
  g.filter_h = g.filter_w = d.kernel;
  g.padding = pad;
  Rng rng(d.hw + d.channels);
  Tensor input_f(DataType::kFloat32, Shape{1, d.hw, d.hw, d.channels});
  FillSigns(input_f, rng);
  Tensor input(DataType::kBitpacked, input_f.shape());
  BitpackTensor(input_f, input);
  std::vector<float> w(static_cast<std::size_t>(d.channels) * d.kernel *
                       d.kernel * d.channels);
  for (auto& v : w) v = rng.Sign();
  BConv2DAttrs attrs;
  attrs.geo = g;
  attrs.output_type = BConvOutputType::kFloat;
  BConv2D op(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, d.hw, d.hw, d.channels});
  return profiling::MeasureMedianSeconds([&] { op.Run(input, out, ctx); }, 2,
                                         15, 80, 0.15);
}

}  // namespace

int main(int argc, char** argv) {
  const auto profile = ParseProfile(argc, argv);
  gemm::Context ctx(1, profile);

  std::printf("=== Ablation: one-padding vs zero-padding binarized convs "
              "(profile=%s) ===\n\n",
              ProfileName(profile));
  std::printf("%-18s %14s %15s %12s\n", "Convolution", "one-pad (ms)",
              "zero-pad (ms)", "zero/one");
  for (const auto& [name, dims] : ResNet18Convs()) {
    const double one = BConvLatency(dims, Padding::kSameOne, ctx);
    const double zero = BConvLatency(dims, Padding::kSameZero, ctx);
    std::printf("%-18s %14.3f %15.3f %11.2fx\n", name.c_str(), one * 1e3,
                zero * 1e3, zero / one);
  }
  // Model-level: QuickNet trained with one- vs zero-padding (section 5.1:
  // "using one-padding rather than zero-padding is not an impediment to
  // training state-of-the-art BNNs" -- and it is faster).
  std::printf("\nQuickNet end-to-end by binary padding mode:\n");
  for (const Padding pad : {Padding::kSameOne, Padding::kSameZero}) {
    Graph g = BuildQuickNet(QuickNetMediumConfig(), 224, pad);
    LCE_CHECK(Convert(g).ok());
    CompileOptions opts;
    opts.kernel_profile = profile;
    const auto exec = PrepareContext(g, opts);
    const double ms = 1e3 * profiling::MeasureMedianSeconds(
                                [&] { exec->Invoke(); }, 1, 7, 15, 0.2);
    std::printf("  %-10s %8.1f ms\n", PaddingName(pad).data(), ms);
  }
  std::printf(
      "\nPaper: zero-padding 'requires an extra correction step and is\n"
      "therefore slower'; the relative cost is largest for small feature\n"
      "maps where the border is a larger fraction of the output.\n");
  return 0;
}
