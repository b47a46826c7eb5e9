// Profiling utility tests: statistics, weighted means, regression and the
// Table 4 operator-breakdown aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "profiling/bench_utils.h"
#include "profiling/model_profiler.h"
#include "telemetry/metrics.h"

namespace lce::profiling {
namespace {

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

TEST(Stats, MeanAndWeightedMean) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  // Weighted mean biased toward the heavy element.
  EXPECT_DOUBLE_EQ(WeightedMean({10.0, 20.0}, {1.0, 3.0}), 17.5);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 5.5);
  EXPECT_NEAR(Percentile(xs, 0.9), 9.1, 1e-9);
  EXPECT_DOUBLE_EQ(Percentile({42.0}, 0.99), 42.0);
}

TEST(Stats, PercentileEdgeCases) {
  // Single element: every quantile is that element.
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(Percentile({7.5}, 1.0), 7.5);
  // Two elements: endpoints exact, midpoint interpolated, order-agnostic.
  EXPECT_DOUBLE_EQ(Percentile({10.0, 20.0}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({20.0, 10.0}, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(Percentile({20.0, 10.0}, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(Percentile({10.0, 20.0}, 0.25), 12.5);
}

// Property test (shared contract with telemetry::HistogramSnapshot, see
// test_telemetry.cc): on random latency-shaped data, the log-bucketed
// histogram's interpolated quantiles track the exact Percentile() of the
// same samples within one bucket's relative error (<= 12.5%).
TEST(Stats, PercentileMatchesHistogramQuantilesWithinBucketError) {
  std::mt19937_64 rng(4242);
  std::lognormal_distribution<double> latency(11.0, 1.2);
  telemetry::Histogram hist("bench_utils.property_ns");
  std::vector<double> xs;
  for (int i = 0; i < 30000; ++i) {
    const auto v = static_cast<std::int64_t>(latency(rng));
    hist.Record(v);
    xs.push_back(static_cast<double>(v));
  }
  const auto snap = hist.TakeSnapshot();
  for (double q : {0.0, 0.05, 0.5, 0.9, 0.99, 1.0}) {
    const double exact = Percentile(xs, q);
    const double est = snap.Quantile(q);
    EXPECT_LE(std::abs(est - exact), 0.125 * exact + 1.0)
        << "q=" << q << " exact=" << exact << " hist=" << est;
  }
}

TEST(Stats, Range) {
  const auto mm = Range({3.0, -1.0, 7.0, 2.0});
  EXPECT_DOUBLE_EQ(mm.min, -1.0);
  EXPECT_DOUBLE_EQ(mm.max, 7.0);
}

TEST(Regression, RecoversExactLine) {
  // y = 2 + 3x.
  std::vector<double> x{0, 1, 2, 3, 4}, y;
  for (double v : x) y.push_back(2.0 + 3.0 * v);
  const auto fit = FitLeastSquares(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Regression, LogLogPowerLaw) {
  // latency = c * macs^1 -> slope 1 in log-log space (Figure 3's linear
  // MACs-latency relationship).
  std::vector<double> log_macs, log_lat;
  for (double macs : {1e6, 4e6, 1e7, 5e7, 2e8}) {
    log_macs.push_back(std::log(macs));
    log_lat.push_back(std::log(3e-9 * macs));
  }
  const auto fit = FitLeastSquares(log_macs, log_lat);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
}

TEST(Regression, NoisyFitStillHasHighR2) {
  std::vector<double> x, y;
  std::uint64_t state = 9;
  for (int i = 0; i < 50; ++i) {
    state = state * 6364136223846793005ULL + 1;
    const double noise = static_cast<double>(state >> 40) / (1 << 24) - 0.5;
    x.push_back(i);
    y.push_back(5.0 + 2.0 * i + noise);
  }
  const auto fit = FitLeastSquares(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Measure, MedianSecondsIsPositiveAndOrdersWork) {
  volatile double sink = 0;
  const double fast = MeasureMedianSeconds(
      [&] {
        double local = 0;
        for (int i = 0; i < 100; ++i) local += i;
        sink = local;
      },
      1, 3, 10, 0.0);
  const double slow = MeasureMedianSeconds(
      [&] {
        double local = 0;
        for (int i = 0; i < 200000; ++i) local += i;
        sink = local;
      },
      1, 3, 10, 0.0);
  EXPECT_GT(fast, 0.0);
  EXPECT_GT(slow, fast);
}

TEST(OperatorBreakdown, CategorizesAndSumsTo100Percent) {
  std::vector<lce::OpProfile> profile(4);
  profile[0].type = lce::OpType::kLceQuantize;
  profile[0].seconds = 0.1;
  profile[1].type = lce::OpType::kLceBConv2d;
  profile[1].seconds = 0.6;
  profile[1].bconv.transform = 0.1;
  profile[2].type = lce::OpType::kConv2D;
  profile[2].seconds = 0.2;
  profile[3].type = lce::OpType::kAdd;
  profile[3].seconds = 0.1;

  const auto rows = OperatorBreakdown(profile);
  double total_pct = 0.0;
  double accum_pct = -1.0, transform_pct = -1.0;
  for (const auto& r : rows) {
    total_pct += r.percent;
    if (r.category == "LceBConv2d (accumulation loop)") accum_pct = r.percent;
    if (r.category == "LceBConv2d (output transformation)") {
      transform_pct = r.percent;
    }
  }
  EXPECT_NEAR(total_pct, 100.0, 1e-9);
  EXPECT_NEAR(accum_pct, 50.0, 1e-9);
  EXPECT_NEAR(transform_pct, 10.0, 1e-9);
}

TEST(OperatorBreakdown, RowsSortedBySeconds) {
  std::vector<lce::OpProfile> profile(2);
  profile[0].type = lce::OpType::kAdd;
  profile[0].seconds = 0.9;
  profile[1].type = lce::OpType::kConv2D;
  profile[1].seconds = 0.1;
  const auto rows = OperatorBreakdown(profile);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].category, "Full precision Add");
}

// Three timed Invokes of a two-node graph, the first an outlier in every
// field (a cold first run): each field of each node is its own median, so
// the Table 4 accumulation loop is a median total minus a median transform.
TEST(MedianProfile, TakesEachFieldsMedianPerNode) {
  const auto run = [](double conv, double bconv, double gemm,
                      double transform) {
    std::vector<lce::OpProfile> p(2);
    p[0].name = "stem";
    p[0].type = lce::OpType::kConv2D;
    p[0].seconds = conv;
    p[1].name = "bconv";
    p[1].type = lce::OpType::kLceBConv2d;
    p[1].is_binary_op = true;
    p[1].seconds = bconv;
    p[1].bconv.gemm = gemm;
    p[1].bconv.transform = transform;
    return p;
  };
  const auto prof = MedianProfile({run(9.0, 20.0, 12.0, 8.0),
                                   run(1.0, 3.0, 2.0, 0.5),
                                   run(1.2, 3.2, 2.2, 0.7)});
  ASSERT_EQ(prof.size(), 2u);
  EXPECT_EQ(prof[1].name, "bconv");
  EXPECT_EQ(prof[1].type, lce::OpType::kLceBConv2d);
  EXPECT_TRUE(prof[1].is_binary_op);
  EXPECT_DOUBLE_EQ(prof[0].seconds, 1.2);
  EXPECT_DOUBLE_EQ(prof[1].seconds, 3.2);
  EXPECT_DOUBLE_EQ(prof[1].bconv.gemm, 2.2);
  EXPECT_DOUBLE_EQ(prof[1].bconv.transform, 0.7);

  double accum = -1.0, transform = -1.0;
  for (const auto& r : OperatorBreakdown(prof)) {
    if (r.category == "LceBConv2d (accumulation loop)") accum = r.seconds;
    if (r.category == "LceBConv2d (output transformation)") {
      transform = r.seconds;
    }
  }
  EXPECT_DOUBLE_EQ(accum, 3.2 - 0.7);
  EXPECT_DOUBLE_EQ(transform, 0.7);
}

}  // namespace
}  // namespace lce::profiling
