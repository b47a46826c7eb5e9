// Shared declarations of the end-to-end + per-layer benchmark (README.md).
//
// The binary has two modes, each run as its own process by run.py:
//   e2e_bench reference --workload W --seed N --dir D
//       builds the workload's model, writes D/model.lcem and the expected
//       outputs for the seeded inputs (scalar kernels, 1 thread, batch 1,
//       a fresh compile per resolution) to D/reference.bin;
//   e2e_bench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       times set-up and the workload's load pattern against that model,
//       compares every completed output with the reference, and writes
//       D/result.json (plus D/trace.json and D/layers.json when traced).
#ifndef LCE_BENCH_E2E_E2E_H_
#define LCE_BENCH_E2E_E2E_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/compiled_model.h"
#include "graph/ir.h"
#include "serving/server.h"
#include "telemetry/tracer.h"

namespace lce::e2e {

// ---- Workloads -------------------------------------------------------------

enum class LoadPattern {
  kClosed,  // one caller drives an ExecutionContext back to back
  kLadder,  // steps of more and more closed-loop clients on a serving::Server
};

struct Workload {
  std::string name;
  LoadPattern pattern = LoadPattern::kClosed;
  int intra_op_threads = 1;
  // Square input resolutions; the first is the compiled root, the rest are
  // shape buckets sharing its packed weights.
  std::vector<int> resolutions;
  // Ladder only. Each request's resolution is drawn uniformly from `mix`,
  // so a resolution listed twice gets twice the traffic. `clients` lists
  // the client count of each step (the run is split evenly over them);
  // latencies are reported from the reference_clients step, and the p95
  // limit decides which steps count towards the throughput.
  std::vector<int> mix;
  double deadline_ms = 0.0;
  std::vector<int> clients;
  int reference_clients = 0;
  double slo_p95_ms = 0.0;
  // Builds the deployable (converted / quantized) graph at resolutions[0].
  Graph (*build)() = nullptr;
};

const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);

// Serving configuration of the ladder.
serving::ServerOptions ServingOptions(const Workload& w);

// ---- Seeded inputs and the reference ---------------------------------------

inline constexpr int kInputsPerResolution = 16;

// The seeded inputs of one resolution: kInputsPerResolution images of
// [1, hw, hw, channels] floats, identical for a given (seed, hw).
std::vector<std::vector<float>> MakeInputs(std::uint64_t seed, int hw,
                                           int channels);

// Expected output bytes, indexed [resolution][input].
struct Reference {
  std::map<int, std::vector<std::vector<std::uint8_t>>> outputs;
  std::map<int, std::vector<std::vector<float>>> inputs;
};

// Writes D/model.lcem and D/reference.bin. Returns a process exit code.
int EmitReference(const Workload& w, std::uint64_t seed, const std::string& dir);
// Loads D/reference.bin and regenerates the inputs it was computed from.
Status LoadReference(const Workload& w, std::uint64_t seed, int channels,
                     const std::string& dir, Reference* ref);

// ---- Per-request records ---------------------------------------------------

// One request's timeline, preallocated before the timed phase so the load
// generator never allocates for its own bookkeeping. Executor threads write
// the completion fields inside the request's done callback; the generator
// reads them only after Request::Wait(), which orders the two.
struct Sample {
  std::uint64_t sent_ns = 0;          // input write began / Submit() called
  std::uint64_t submit_begin_ns = 0;  // Submit() entered and returned (serving)
  std::uint64_t submit_end_ns = 0;
  std::uint64_t io_ns = 0;            // input write + output read
  std::uint64_t done_ns = 0;          // output read finished
  std::int64_t queue_wait_ns = 0;
  std::int64_t exec_ns = 0;
  std::int64_t id = 0;                // request id the spans carry
  int hw = 0;
  int input = 0;
  bool ok = false;
  bool mismatch = false;
  const float* input_data = nullptr;  // serving; the closed loop indexes inputs
  const std::vector<std::uint8_t>* expected = nullptr;
};

// Per-op-class accounting from ExecutionContext::profile(), filled in the
// traced run. One Invoke of a batch-N variant counts once; per-request
// figures divide by completed requests.
enum OpClass {
  kOpBConv2d,
  kOpConv2d,
  kOpConv2dInt8,
  kOpQuantize,
  kOpElementwise,
  kOpPool,
  kOpFc,
  kOpOther,
  kNumOpClasses,
};
const char* OpClassName(int c);
OpClass ClassifyOp(OpType t);

// Work done by one Invoke of a compiled model, from its graph geometry.
struct ModelWork {
  double macs[kNumOpClasses] = {};
  // Bytes of every non-constant node input plus every node output: the
  // activation traffic one Invoke reads and writes, computed from tensor
  // sizes (not measured).
  double activation_bytes = 0.0;
};
ModelWork ComputeWork(const Graph& g);

class ProfileAccumulator {
 public:
  void Add(const ExecutionContext& ctx);
  double seconds[kNumOpClasses] = {};
  double macs[kNumOpClasses] = {};
  double bconv_im2col_s = 0.0, bconv_gemm_s = 0.0, bconv_transform_s = 0.0;
  double activation_bytes = 0.0;

 private:
  std::mutex mu_;
  std::map<const CompiledModel*, ModelWork> work_;
};

// ---- Load generation --------------------------------------------------------

// Copies one seeded input into input 0, and compares output 0 byte for byte.
void WriteInput(ExecutionContext& ctx, const std::vector<float>& input);
bool OutputIs(ExecutionContext& ctx, const std::vector<std::uint8_t>& expected);

struct LoadEnv {
  const Workload* workload = nullptr;
  const Reference* reference = nullptr;
  serving::Server* server = nullptr;  // ladder
  ExecutionContext* context = nullptr;  // closed loop
  ProfileAccumulator* profile = nullptr;  // traced run only
  bool trace = false;
};

// Closed loop for `seconds`; request ids continue from *next_id.
std::vector<Sample> RunClosedLoop(const LoadEnv& env, double seconds,
                                  std::int64_t* next_id);

// `clients` closed-loop clients for `seconds`: each sends its next request
// when the previous one completes. Resolutions and inputs are drawn from
// `rng_seed`.
std::vector<Sample> RunClients(const LoadEnv& env, int clients, double seconds,
                               std::uint64_t rng_seed);

// ---- Trace analysis -------------------------------------------------------

// Names of the spans the benchmark records around each layer call.
inline constexpr const char* kSpanDeserialize = "bench/deserialize";
inline constexpr const char* kSpanCompile = "bench/compile";
inline constexpr const char* kSpanServerInit = "bench/server_init";
inline constexpr const char* kSpanRequest = "bench/request";
inline constexpr const char* kSpanSubmit = "bench/submit";
inline constexpr const char* kSpanInvoke = "bench/invoke";
inline constexpr const char* kSpanReset = "bench/reset";
inline constexpr const char* kSpanIo = "bench/io";

using TraceEvents = std::vector<telemetry::Tracer::CollectedEvent>;

struct TraceSummary {
  std::int64_t requests = 0;      // bench/request trees analysed
  double request_ms = 0.0;        // mean bench/request duration
  std::vector<double> invoke_ms;  // interpreter/invoke durations
  // Median over ParallelFor calls of (slowest - fastest) / slowest shard;
  // 0 when every call ran a single shard.
  double shard_imbalance_pct = 0.0;
  // Per request means, keyed by span name ("node/<name>" for the per-node
  // spans) and, for the node spans, by op class.
  struct Row {
    double self_ms = 0.0;
    double total_ms = 0.0;
    double count = 0.0;
  };
  std::map<std::string, Row> by_span;
  std::map<std::string, Row> by_op_class;
};

// Builds one span tree per bench/request -- the spans that carry its "req"
// id plus every span its executing thread recorded while serving it --
// and takes each span's self time: its duration minus the part covered by
// its children.
TraceSummary AnalyzeTrace(const TraceEvents& events, const Graph& root_graph);

Status WriteLayersJson(const TraceSummary& summary, const std::string& workload,
                       const std::string& path);

// Chrome trace-event JSON: set-up spans as process 1, the traced run as
// process 2 (each with its own thread ids).
Status WriteChromeTrace(const TraceEvents& setup, const TraceEvents& run,
                        const std::string& path);

}  // namespace lce::e2e

#endif  // LCE_BENCH_E2E_E2E_H_
