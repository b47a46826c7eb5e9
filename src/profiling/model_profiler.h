// Aggregations over ExecutionContext per-op profiles for the paper's
// model-level analyses: the Table 4 operator breakdown and the Figure 5
// per-layer latency series.
#ifndef LCE_PROFILING_MODEL_PROFILER_H_
#define LCE_PROFILING_MODEL_PROFILER_H_

#include <string>
#include <vector>

#include "graph/compiled_model.h"

namespace lce::profiling {

// Table 4 categories. LceBConv2d is split into the accumulation loop
// (im2col + BGEMM) and the output transform, exactly as the paper reports.
struct OpBreakdownRow {
  std::string category;
  double seconds = 0.0;
  double percent = 0.0;
};

std::vector<OpBreakdownRow> OperatorBreakdown(
    const std::vector<lce::OpProfile>& profile);

double TotalSeconds(const std::vector<lce::OpProfile>& profile);

// Figure 5 series: cumulative latency per executed op, with a binary /
// full-precision tag, in execution order.
struct LayerLatency {
  std::string name;
  std::string op;
  double seconds = 0.0;
  bool is_binary = false;
};

std::vector<LayerLatency> PerLayerLatency(
    const std::vector<lce::OpProfile>& profile);

// Per-node medians over `runs`, each one Invoke's profile of the same
// graph (ExecutionContext::profile()): a node's seconds and each field of
// its bconv stage split are the medians of that node's samples, so
// OperatorBreakdown subtracts a median output transform from a median
// total. Requires at least one run.
std::vector<lce::OpProfile> MedianProfile(
    const std::vector<std::vector<lce::OpProfile>>& runs);

// Runs `iters` profiled inferences on `exec` (which must have been built
// with ExecutionOptions::enable_profiling) after one discarded warm-up and
// returns their MedianProfile (robust against scheduler noise).
std::vector<lce::OpProfile> ProfileModel(lce::ExecutionContext& exec,
                                         int iters);

}  // namespace lce::profiling

#endif  // LCE_PROFILING_MODEL_PROFILER_H_
