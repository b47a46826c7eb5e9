#include "profiling/model_profiler.h"

#include <algorithm>
#include <map>

#include "core/macros.h"
#include "profiling/bench_utils.h"

namespace lce::profiling {

std::vector<OpBreakdownRow> OperatorBreakdown(
    const std::vector<lce::OpProfile>& profile) {
  std::map<std::string, double> buckets;
  double total = 0.0;
  for (const auto& op : profile) {
    total += op.seconds;
    switch (op.type) {
      case lce::OpType::kLceQuantize:
      case lce::OpType::kLceDequantize:
        buckets["LceQuantize"] += op.seconds;
        break;
      case lce::OpType::kLceBConv2d: {
        // Split the bconv into its accumulation loop (im2col + BGEMM) and
        // output transform; attribute any residual (allocation, checks) to
        // the accumulation loop.
        const double transform = op.bconv.transform;
        buckets["LceBConv2d (accumulation loop)"] += op.seconds - transform;
        buckets["LceBConv2d (output transformation)"] += transform;
        break;
      }
      case lce::OpType::kLceBMaxPool2d:
        buckets["LceBMaxPool2d"] += op.seconds;
        break;
      case lce::OpType::kLceBFullyConnected:
        buckets["LceBFullyConnected"] += op.seconds;
        break;
      case lce::OpType::kConv2D:
        buckets["Full precision Conv2D"] += op.seconds;
        break;
      case lce::OpType::kAdd:
        buckets["Full precision Add"] += op.seconds;
        break;
      default:
        buckets["All other full precision"] += op.seconds;
        break;
    }
  }
  std::vector<OpBreakdownRow> rows;
  for (const auto& [category, seconds] : buckets) {
    rows.push_back({category, seconds,
                    total > 0 ? 100.0 * seconds / total : 0.0});
  }
  std::sort(rows.begin(), rows.end(),
            [](const OpBreakdownRow& a, const OpBreakdownRow& b) {
              return a.seconds > b.seconds;
            });
  return rows;
}

double TotalSeconds(const std::vector<lce::OpProfile>& profile) {
  double t = 0.0;
  for (const auto& op : profile) t += op.seconds;
  return t;
}

std::vector<LayerLatency> PerLayerLatency(
    const std::vector<lce::OpProfile>& profile) {
  std::vector<LayerLatency> out;
  out.reserve(profile.size());
  for (const auto& op : profile) {
    out.push_back({op.name, std::string(lce::OpTypeName(op.type)), op.seconds,
                   op.is_binary_op});
  }
  return out;
}

std::vector<lce::OpProfile> MedianProfile(
    const std::vector<std::vector<lce::OpProfile>>& runs) {
  LCE_CHECK(!runs.empty());
  std::vector<lce::OpProfile> out = runs.front();
  for (const auto& run : runs) LCE_CHECK_EQ(run.size(), out.size());
  std::vector<double> samples(runs.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto median = [&](auto field) {
      for (std::size_t r = 0; r < runs.size(); ++r) {
        samples[r] = field(runs[r][i]);
      }
      return Median(samples);
    };
    out[i].seconds = median([](const lce::OpProfile& p) { return p.seconds; });
    out[i].bconv.im2col =
        median([](const lce::OpProfile& p) { return p.bconv.im2col; });
    out[i].bconv.gemm =
        median([](const lce::OpProfile& p) { return p.bconv.gemm; });
    out[i].bconv.transform =
        median([](const lce::OpProfile& p) { return p.bconv.transform; });
  }
  return out;
}

std::vector<lce::OpProfile> ProfileModel(lce::ExecutionContext& exec,
                                         int iters) {
  LCE_CHECK_GT(iters, 0);
  exec.Invoke();  // warmup, discarded
  std::vector<std::vector<lce::OpProfile>> runs;
  runs.reserve(iters);
  for (int it = 0; it < iters; ++it) {
    exec.Invoke();
    runs.push_back(exec.profile());
  }
  return MedianProfile(runs);
}

}  // namespace lce::profiling
