// Shared helpers for the benchmark harnesses in bench/. Each binary
// regenerates one table or figure of the paper (see DESIGN.md's experiment
// index). Every binary accepts `--profile=scalar` to run the portable
// kernels instead of the SIMD ones -- the stand-in for the paper's second
// benchmark device (Raspberry Pi 4B appendix results).
#ifndef LCE_BENCH_BENCH_COMMON_H_
#define LCE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "converter/convert.h"
#include "core/random.h"
#include "core/tensor.h"
#include "gemm/context.h"
#include "graph/compiled_model.h"
#include "kernels/bconv2d.h"
#include "kernels/conv2d_float.h"
#include "kernels/conv2d_int8.h"
#include "profiling/bench_utils.h"

namespace lce::bench {

inline gemm::KernelProfile ParseProfile(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profile=scalar") == 0) {
      return gemm::KernelProfile::kScalar;
    }
  }
  return gemm::KernelProfile::kSimd;
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// Value of a `--key=value` flag, or `def` when absent.
inline std::string ParseStringFlag(int argc, char** argv, const char* prefix,
                                   const std::string& def = "") {
  const std::size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
  }
  return def;
}

// Path given by `--json=<path>`, or "" when the flag is absent. Benches
// that support it write a telemetry::RunReport (machine-readable run
// report: latency stats + metrics snapshot) to this path.
inline std::string ParseJsonPath(int argc, char** argv) {
  return ParseStringFlag(argc, argv, "--json=");
}

inline const char* ProfileName(gemm::KernelProfile p) {
  return p == gemm::KernelProfile::kSimd ? "simd" : "scalar";
}

// A benchmarkable convolution: closure plus workload metadata.
struct ConvBench {
  std::string name;
  std::int64_t macs = 0;
  std::function<void()> run;
  // Keep-alive for operands/kernels captured by `run`.
  std::shared_ptr<void> state;
};

// Square convolutions with equal in/out channels, stride 1, SAME padding --
// the shape family used in Figures 2/3/4.
struct ConvDims {
  int hw;
  int channels;
  int kernel;
  int stride = 1;
  std::int64_t macs() const {
    const int out = (hw + stride - 1) / stride;
    return static_cast<std::int64_t>(out) * out * kernel * kernel *
           static_cast<std::int64_t>(channels) * channels;
  }
};

// The four ResNet18 convolutions of Figure 2 (A-D).
inline std::vector<std::pair<std::string, ConvDims>> ResNet18Convs() {
  return {{"A 56x56x64x64", {56, 64, 3}},
          {"B 28x28x128x128", {28, 128, 3}},
          {"C 14x14x256x256", {14, 256, 3}},
          {"D 7x7x256x256", {7, 256, 3}}};
}

ConvBench MakeFloatConv(const ConvDims& d, gemm::Context& ctx);
ConvBench MakeInt8Conv(const ConvDims& d, gemm::Context& ctx);
ConvBench MakeBinaryConv(const ConvDims& d, gemm::Context& ctx);

// One measured convolution of the Figure 3 / Table 2 sweep.
struct SweepRow {
  ConvDims dims;
  double float_ms = 0.0;
  double int8_ms = 0.0;
  double binary_ms = 0.0;
};

// The paper's sweep grid (Figure 3): channels {32,64,96,128,160,256},
// spatial {8,16,32,64}, kernels {3,5}, stride 1, equal in/out channels.
// Convolutions above `max_macs` are skipped (pass INT64_MAX via --full to
// run the complete grid; the largest float cells take hundreds of ms each).
std::vector<SweepRow> RunConvSweep(gemm::Context& ctx, std::int64_t max_macs);

// Compiles `graph` (which must outlive the context) and returns an
// execution context on it, ready to Invoke(), whose input 0 holds Uniform()
// draws from Rng(seed).
std::unique_ptr<ExecutionContext> PrepareContext(
    const Graph& graph, CompileOptions options,
    ExecutionOptions exec_options = {}, std::uint64_t seed = 1);

// Builds a zoo training graph into `graph_storage`, converts it and returns
// PrepareContext on it.
std::unique_ptr<ExecutionContext> PrepareConverted(
    Graph& graph_storage, const std::function<Graph(int)>& build, int hw,
    gemm::KernelProfile profile, bool profiling);

// Median latency of exec.Invoke() in seconds.
double ModelLatency(ExecutionContext& exec, int reps = 5);

// Writes rows to results/<name>.csv (creating results/ if needed) so the
// figures can be re-plotted from machine-readable data. Prints the path.
// Fails soft: benches still print their tables if the filesystem is
// read-only. When the LCE_BENCH_JSON environment variable is set (any
// value), the same table is mirrored to results/<name>.json as
// {"name", "columns": [...], "rows": [[...]]} -- scripts/
// run_all_experiments.sh sets it so every bench run leaves JSON behind.
class CsvWriter {
 public:
  // header: comma-separated column names.
  CsvWriter(const std::string& name, const std::string& header);
  ~CsvWriter();
  // Appends one comma-separated row.
  void Row(const std::string& row);
  bool ok() const { return file_ != nullptr; }

 private:
  std::FILE* file_ = nullptr;
  std::string name_;
  std::string path_;
  bool mirror_json_ = false;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lce::bench

#endif  // LCE_BENCH_BENCH_COMMON_H_
