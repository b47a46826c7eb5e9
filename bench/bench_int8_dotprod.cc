// Int8 micro-kernel tier microbenchmark: QuickNet-stage int8
// convolutions swept over the selectable tiers (gemm/int8_isa.h).
//
// All tiers run the same fused row-tile pipeline on the same prepared
// kernels and weight panels. The scalar tier is the baseline because every
// build has it. Samples are interleaved round-robin across tiers so drift
// on a shared host hits every tier equally; per-tier medians are reported.
//
// The committed BENCH_int8_dotprod.json at the repo root is this report
// (Release, --json=...); the perf-smoke CI job re-runs it and asserts the
// selected tier is the best compiled-in one.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gemm/int8_isa.h"
#include "kernels/conv2d_int8.h"
#include "telemetry/run_report.h"

namespace {

using namespace lce;
using namespace lce::bench;

// Scalar baseline first: speedups below are relative to tiers[0].
std::vector<gemm::Int8Tier> SweptTiers() {
  std::vector<gemm::Int8Tier> tiers = {gemm::Int8Tier::kScalar};
  for (gemm::Int8Tier t :
       {gemm::Int8Tier::kAvx2Dot, gemm::Int8Tier::kNeonDot,
        gemm::Int8Tier::kVnni}) {
    if (gemm::Int8TierAvailable(t)) tiers.push_back(t);
  }
  return tiers;
}

struct Int8Stage {
  int hw, in_c, out_c;
};

// QuickNet's full-precision int8 stages (same shapes and quantization the
// ablation bench uses, so the numbers line up across reports).
constexpr Int8Stage kStages[] = {{56, 32, 64}, {28, 64, 64}, {14, 128, 128}};

Conv2DInt8Attrs StageAttrs(const Int8Stage& c) {
  Conv2DGeometry g;
  g.in_h = g.in_w = c.hw;
  g.in_c = c.in_c;
  g.out_c = c.out_c;
  g.filter_h = g.filter_w = 3;
  g.padding = Padding::kSameZero;
  Conv2DInt8Attrs attrs;
  attrs.geo = g;
  attrs.input_quant = {0.02f, 3};
  attrs.weight_quant = {0.005f, 0};
  attrs.output_quant = {0.05f, -4};
  return attrs;
}

// Interleaved round-robin medians over `runs` thunks.
std::vector<double> InterleavedMedians(
    const std::vector<std::function<void()>>& runs) {
  constexpr int kWarmup = 2, kSamples = 31;
  std::vector<std::vector<double>> samples(runs.size());
  for (auto& s : samples) s.reserve(kSamples);
  for (int i = 0; i < kWarmup; ++i) {
    for (const auto& r : runs) r();
  }
  for (int s = 0; s < kSamples; ++s) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const double t0 = profiling::NowSeconds();
      runs[i]();
      const double t1 = profiling::NowSeconds();
      samples[i].push_back(t1 - t0);
    }
  }
  std::vector<double> medians(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    medians[i] = profiling::Median(std::move(samples[i]));
  }
  return medians;
}

}  // namespace

int main(int argc, char** argv) {
  const auto profile = ParseProfile(argc, argv);
  const std::string json_path = ParseJsonPath(argc, argv);
  const int threads =
      std::atoi(ParseStringFlag(argc, argv, "--threads=", "1").c_str());
  gemm::Context ctx(threads > 0 ? threads : 1, profile);

  telemetry::RunReport report("bench_int8_dotprod");
  report.AddMeta("profile", ProfileName(profile));
  report.AddMetaInt("threads", threads > 0 ? threads : 1);
  report.AddMeta("int8_tier_selected",
                 gemm::Int8TierName(gemm::SelectInt8Tier()));
  report.AddMeta("int8_tier_best", gemm::Int8TierName(gemm::BestInt8Tier()));

  const std::vector<gemm::Int8Tier> tiers = SweptTiers();

  std::printf("=== Int8 micro-kernel tier sweep (QuickNet int8 stages) "
              "===\n\n");
  std::printf("  %-18s", "shape");
  for (gemm::Int8Tier t : tiers) {
    std::printf(" %12s", gemm::Int8TierName(t));
  }
  std::printf(" %14s\n", "best-speedup");

  double log_best_speedup = 0.0;
  int n_shapes = 0;
  for (const Int8Stage& c : kStages) {
    Rng rng(c.hw + c.in_c);
    Tensor in(DataType::kInt8, Shape{1, c.hw, c.hw, c.in_c});
    FillInt8(in, rng);
    std::vector<std::int8_t> w(static_cast<std::size_t>(c.out_c) * 9 *
                               c.in_c);
    for (auto& v : w) v = rng.Int8(-127, 127);
    const Conv2DInt8Attrs attrs = StageAttrs(c);
    Conv2DInt8 op(w.data(), attrs);
    Tensor out(DataType::kInt8,
               Shape{1, attrs.geo.out_h(), attrs.geo.out_w(), c.out_c});

    std::vector<std::function<void()>> runs;
    for (gemm::Int8Tier t : tiers) {
      runs.push_back([&, t] {
        gemm::SetInt8TierOverrideForTest(static_cast<int>(t));
        op.Run(in, out, ctx);
      });
    }
    const std::vector<double> ms = InterleavedMedians(runs);
    gemm::SetInt8TierOverrideForTest(0);

    char shape[64];
    std::snprintf(shape, sizeof(shape), "%dx%dx%d-%d", c.hw, c.hw, c.in_c,
                  c.out_c);
    std::printf("  %-18s", shape);
    double best_ms = ms[0];
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      std::printf(" %10.3fms", ms[i] * 1e3);
      report.AddResult(std::string("int8_dotprod.") +
                           gemm::Int8TierName(tiers[i]) + "_ms." + shape,
                       ms[i] * 1e3);
      if (i > 0) {
        report.AddResult(std::string("int8_dotprod.") +
                             gemm::Int8TierName(tiers[i]) +
                             "_vs_scalar." + shape,
                         ms[i] > 0 ? ms[0] / ms[i] : 0.0);
      }
      if (ms[i] < best_ms) best_ms = ms[i];
    }
    const double best_speedup = best_ms > 0 ? ms[0] / best_ms : 0.0;
    std::printf(" %13.2fx\n", best_speedup);
    report.AddResult(std::string("int8_dotprod.best_vs_scalar.") + shape,
                     best_speedup);
    if (best_speedup > 0) {
      log_best_speedup += std::log(best_speedup);
      ++n_shapes;
    }
  }
  const double geomean =
      n_shapes > 0 ? std::exp(log_best_speedup / n_shapes) : 0.0;
  std::printf("\n  geomean best-tier vs scalar: %.2fx\n\n", geomean);
  report.AddResult("int8_dotprod.geomean_best_vs_scalar", geomean);

  if (!json_path.empty()) {
    const Status s = report.WriteJson(json_path);
    if (s.ok()) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                   s.message().c_str());
      return 1;
    }
  }
  return 0;
}
