// Google-benchmark micro-suite for the individual kernels: BGEMM vs the
// float/int8 GEMMs, bitpacking, the binary max pool and the bconv output
// transforms. Complements the table/figure harnesses with statistically
// robust per-kernel numbers (real time, iterations auto-tuned).
#include <benchmark/benchmark.h>

#include <iterator>
#include <vector>

#include "core/bitpack.h"
#include "core/random.h"
#include "gemm/float_gemm.h"
#include "gemm_drivers.h"
#include "im2col_baseline.h"
#include "kernels/bconv2d.h"
#include "kernels/bmaxpool.h"
#include "kernels/conv2d_float.h"
#include "kernels/quantize_ops.h"

namespace {

using namespace lce;

// GEMM dimensions modeled on conv C of Figure 2 (14x14x256x256, 3x3).
constexpr int kM = 196, kN = 256, kK = 2304;

void BM_BGemm(benchmark::State& state) {
  Rng rng(1);
  const int kw = BitpackedWords(kK);
  std::vector<TBitpacked> lhs(static_cast<std::size_t>(kM) * kw);
  std::vector<TBitpacked> rhs(static_cast<std::size_t>(kN) * kw);
  for (auto& v : lhs) v = static_cast<TBitpacked>(rng.Next());
  for (auto& v : rhs) v = static_cast<TBitpacked>(rng.Next());
  gemm::PackedBinaryMatrix packed(rhs.data(), kN, kw);
  std::vector<std::int32_t> out(static_cast<std::size_t>(kM) * kN);
  gemm::Context ctx(1);
  for (auto _ : state) {
    bench::BGemm(lhs.data(), kM, packed, kK, out.data(), kN, ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(kM) * kN * kK * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BGemm);

void BM_FloatGemm(benchmark::State& state) {
  Rng rng(2);
  std::vector<float> lhs(static_cast<std::size_t>(kM) * kK);
  std::vector<float> rhs(static_cast<std::size_t>(kN) * kK);
  for (auto& v : lhs) v = rng.Uniform();
  for (auto& v : rhs) v = rng.Uniform();
  gemm::PackedFloatMatrix packed(rhs.data(), kN, kK);
  std::vector<float> out(static_cast<std::size_t>(kM) * kN);
  gemm::Context ctx(1);
  // The plain GEMM is the float GEMM's 1x1 convolution case.
  const Conv2DGeometry geo = FullyConnectedGeometry(kM, kK, kN);
  for (auto _ : state) {
    gemm::FloatGemm(lhs.data(), geo, packed, nullptr, Activation::kNone,
                    out.data(), kN, ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(kM) * kN * kK * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FloatGemm);

// The zoo's float-convolution shapes (stems, a shortcut and a transition
// 1x1, the classifier) on Conv2DFloat at 1 thread, with bias and ReLU.
struct FloatConvShape {
  const char* name;
  Conv2DGeometry geo;
};

Conv2DGeometry ConvShape(int hw, int in_c, int out_c, int k, int stride) {
  Conv2DGeometry g;
  g.in_h = g.in_w = hw;
  g.in_c = in_c;
  g.out_c = out_c;
  g.filter_h = g.filter_w = k;
  g.stride_h = g.stride_w = stride;
  g.padding = Padding::kSameZero;
  return g;
}

const FloatConvShape kFloatConvShapes[] = {
    {"7x7/2 3->64 at 224", ConvShape(224, 3, 64, 7, 2)},
    {"3x3/2 3->16 at 224", ConvShape(224, 3, 16, 3, 2)},
    {"1x1 16->64 at 56", ConvShape(56, 16, 64, 1, 1)},
    {"1x1 448->224 at 28", ConvShape(28, 448, 224, 1, 1)},
    {"fc 512->1000 batch 1", FullyConnectedGeometry(1, 512, 1000)},
};

void BM_Conv2DFloat(benchmark::State& state) {
  const FloatConvShape& s = kFloatConvShapes[state.range(0)];
  const Conv2DGeometry& g = s.geo;
  Rng rng(8);
  Tensor in(DataType::kFloat32, Shape{g.batch, g.in_h, g.in_w, g.in_c});
  FillUniform(in, rng);
  std::vector<float> w(static_cast<std::size_t>(g.out_c) *
                       Im2ColDepthFloat(g));
  for (auto& v : w) v = rng.Uniform();
  Conv2DFloatAttrs attrs;
  attrs.geo = g;
  attrs.activation = Activation::kRelu;
  attrs.bias.assign(g.out_c, 0.1f);
  const Conv2DFloat op(w.data(), attrs);
  Tensor out(DataType::kFloat32,
             Shape{g.batch, g.out_h(), g.out_w(), g.out_c});
  gemm::Context ctx(1);
  for (auto _ : state) {
    op.Run(in, out, ctx);
    benchmark::DoNotOptimize(out.raw_data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(s.name);
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(g.macs()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Conv2DFloat)->DenseRange(0, std::size(kFloatConvShapes) - 1);

void BM_Int8Gemm(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::int8_t> lhs(static_cast<std::size_t>(kM) * kK);
  std::vector<std::int8_t> rhs(static_cast<std::size_t>(kN) * kK);
  for (auto& v : lhs) v = rng.Int8();
  for (auto& v : rhs) v = rng.Int8();
  gemm::PackedInt8DotPanels packed(rhs.data(), kN, kK);
  std::vector<std::int32_t> out(static_cast<std::size_t>(kM) * kN);
  gemm::Context ctx(1);
  for (auto _ : state) {
    bench::Int8Gemm(lhs.data(), kM, packed, out.data(), kN, ctx);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(kM) * kN * kK * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Int8Gemm);

void BM_LceQuantize(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  Tensor in(DataType::kFloat32, Shape{1, n, n, 256});
  FillUniform(in, rng);
  Tensor out(DataType::kBitpacked, in.shape());
  for (auto _ : state) {
    LceQuantize(in, out);
    benchmark::DoNotOptimize(out.raw_data());
  }
  state.SetBytesProcessed(state.iterations() * in.byte_size());
}
BENCHMARK(BM_LceQuantize)->Arg(14)->Arg(56);

void BM_LceBMaxPool(benchmark::State& state) {
  Rng rng(5);
  Tensor in(DataType::kBitpacked, Shape{1, 56, 56, 256});
  FillBitpacked(in, rng);
  Pool2DGeometry geo;
  geo.in_h = geo.in_w = 56;
  geo.channels = 256;
  geo.filter_h = geo.filter_w = 2;
  geo.stride_h = geo.stride_w = 2;
  geo.padding = Padding::kValid;
  Tensor out(DataType::kBitpacked, Shape{1, 28, 28, 256});
  for (auto _ : state) {
    LceBMaxPool2d(in, geo, out);
    benchmark::DoNotOptimize(out.raw_data());
  }
}
BENCHMARK(BM_LceBMaxPool);

void BM_BConv2D(benchmark::State& state) {
  const bool bitpacked_out = state.range(0) != 0;
  Conv2DGeometry g;
  g.in_h = g.in_w = 14;
  g.in_c = g.out_c = 256;
  g.filter_h = g.filter_w = 3;
  g.padding = Padding::kSameOne;
  Rng rng(6);
  Tensor in_f(DataType::kFloat32, Shape{1, 14, 14, 256});
  FillSigns(in_f, rng);
  Tensor in(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in);
  std::vector<float> w(static_cast<std::size_t>(256) * 9 * 256);
  for (auto& v : w) v = rng.Sign();
  BConv2DAttrs attrs;
  attrs.geo = g;
  attrs.multiplier.assign(256, 0.02f);
  attrs.bias.assign(256, 0.1f);
  attrs.output_type =
      bitpacked_out ? BConvOutputType::kBitpacked : BConvOutputType::kFloat;
  BConv2D op(w.data(), attrs);
  Tensor out(bitpacked_out ? DataType::kBitpacked : DataType::kFloat32,
             Shape{1, 14, 14, 256});
  gemm::Context ctx(1);
  for (auto _ : state) {
    op.Run(in, out, ctx);
    benchmark::DoNotOptimize(out.raw_data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(g.macs()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BConv2D)->Arg(0)->Arg(1);

// Execution-mode comparison on a QuickNet-S shape (28x28x128, 3x3).
// Mode 0 = the full-image im2col + BGEMM baseline (bench/im2col_baseline.h),
// 1 = the production fused row-tile pipeline. The second argument is the
// thread count, showing the fused pipeline's row-tile sharding.
void BM_BConv2DExecMode(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Conv2DGeometry g;
  g.in_h = g.in_w = 28;
  g.in_c = g.out_c = 128;
  g.filter_h = g.filter_w = 3;
  g.padding = Padding::kSameOne;
  Rng rng(7);
  Tensor in_f(DataType::kFloat32, Shape{1, 28, 28, 128});
  FillSigns(in_f, rng);
  Tensor in(DataType::kBitpacked, in_f.shape());
  BitpackTensor(in_f, in);
  std::vector<float> w(static_cast<std::size_t>(128) * 9 * 128);
  for (auto& v : w) v = rng.Sign();
  BConv2DAttrs attrs;
  attrs.geo = g;
  attrs.output_type = BConvOutputType::kFloat;
  const bench::Im2ColBConv2D im2col(w.data(), attrs);
  const BConv2D fused(w.data(), attrs);
  Tensor out(DataType::kFloat32, Shape{1, 28, 28, 128});
  gemm::Context ctx(threads);
  for (auto _ : state) {
    if (mode == 0) {
      im2col.Run(in, out, ctx);
    } else {
      fused.Run(in, out, ctx);
    }
    benchmark::DoNotOptimize(out.raw_data());
  }
  state.counters["GMAC/s"] = benchmark::Counter(
      static_cast<double>(g.macs()) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BConv2DExecMode)
    ->ArgNames({"mode", "threads"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 4});

}  // namespace

BENCHMARK_MAIN();
