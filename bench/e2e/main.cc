// End-to-end + per-layer benchmark binary (README.md). For each workload
// run, run.py invokes it once to emit the model and the reference outputs,
// once to time the load, and several times to time set-up in a fresh
// process.
//
//   e2e_bench reference --workload W --seed N --dir D
//   e2e_bench run --workload W --seed N --seconds S --trace 0|1 --dir D
//   e2e_bench setup --workload W --seed N --trace 0|1 --dir D
#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <tuple>

#include "converter/serializer.h"
#include "core/thread_pool.h"
#include "e2e.h"
#include "profiling/bench_utils.h"
#include "telemetry/clock.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce::e2e {
namespace {

using profiling::Median;
using profiling::Percentile;
using telemetry::NowNanos;

constexpr double kMiB = 1024.0 * 1024.0;

double Ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::int64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Counter(name)->value();
}

std::int64_t GaugeValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Gauge(name)->value();
}

// ---- Metric output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = -1;  // sample count behind a percentile, if any
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::int64_t samples = -1) {
    items_.push_back({std::move(name), value, std::move(unit), samples});
  }

  // One "workload metric value unit [(n=...)]" line per metric.
  void Print(const std::string& workload) const {
    for (const Metric& m : items_) {
      std::printf("%s %s %.6g %s", workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples >= 0) std::printf(" (n=%lld)", static_cast<long long>(m.samples));
      std::printf("\n");
    }
  }

  // Non-finite values become null, which run.py rejects.
  std::string ToJson() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Metric& m = items_[i];
      if (std::isfinite(m.value)) {
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      } else {
        std::snprintf(buf, sizeof(buf), "null");
      }
      out += (i ? ", \"" : "\"") + telemetry::JsonEscape(m.name) +
             "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"";
      if (m.samples >= 0) out += ", \"samples\": " + std::to_string(m.samples);
      out += "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> items_;
};

// ---- Process observation ----------------------------------------------------

std::int64_t ReadVmRssKiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

// Ids of this process's threads, ascending (the main thread first).
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return tids;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') tids.push_back(static_cast<pid_t>(std::atol(e->d_name)));
  }
  closedir(d);
  std::sort(tids.begin(), tids.end());
  return tids;
}

// Samples VmRSS and the thread count every 100 ms while alive and keeps
// the largest of each. While the
// process has fewer other threads than CPUs, it also moves them round the
// CPUs at that pace: at step k the j-th thread runs on CPU (k + j) mod n,
// so no two share a CPU. On a shared host a single CPU can run 40% slower
// than the rest for seconds at a time (other tenants on the same cores),
// and the scheduler leaves a busy thread where it started, so a 1-thread
// run's latency depended on the CPU it was placed on. Moving round gives
// every CPU an equal share of every run (README.md, "Run-to-run spread").
class ProcessSampler {
 public:
  ProcessSampler() : thread_([this] { Loop(); }) {}
  ~ProcessSampler() { Stop(); }
  ProcessSampler(const ProcessSampler&) = delete;
  ProcessSampler& operator=(const ProcessSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  // Read after Stop().
  double max_rss_mib() const { return max_rss_mib_; }
  int max_threads() const { return max_threads_; }

 private:
  void Loop() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
      }
    }
    const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t step = 0; !stop_; ++step) {
      max_rss_mib_ = std::max(max_rss_mib_, static_cast<double>(ReadVmRssKiB()) / 1024.0);
      const std::vector<pid_t> tids = ThreadIds();
      max_threads_ = std::max(max_threads_, static_cast<int>(tids.size()));
      // With a thread on every CPU, moving them round changes nothing.
      const bool spare_cpu = tids.size() - 1 < cpus.size();
      std::size_t j = step;
      for (const pid_t tid : tids) {
        if (tid == self || !spare_cpu) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[j++ % cpus.size()], &one);
        sched_setaffinity(tid, sizeof(one), &one);  // fails only for an exited thread
      }
      cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return stop_; });
    }
    // Threads created later inherit their creator's CPUs.
    for (const pid_t tid : ThreadIds()) sched_setaffinity(tid, sizeof(allowed), &allowed);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double max_rss_mib_ = 0.0;
  int max_threads_ = 0;
  std::thread thread_;  // last: starts after the state it uses
};

// ---- Set-up ------------------------------------------------------------------

// One set-up's objects; members are destroyed in reverse order, so the
// server and context go before the model, and the model before its graph.
struct Stack {
  std::unique_ptr<Graph> graph;
  std::shared_ptr<const CompiledModel> model;
  std::unique_ptr<serving::Server> server;
  std::unique_ptr<ExecutionContext> context;

  void Reset() {
    context.reset();
    server.reset();
    model.reset();
    graph.reset();
  }
};

struct SetupTimes {
  double deserialize_ms = 0, compile_ms = 0, runtime_ms = 0, first_ms = 0,
         total_s = 0;
  bool first_ok = false;
};

// Deserialize, compile, build the runtime (the Server with every bucket and
// batch variant, or the closed loop's ExecutionContext) and complete one
// request at the root resolution.
SetupTimes SetUp(const Workload& w, const std::string& bytes,
                 const Reference& ref, bool trace, Stack* stack) {
  stack->Reset();
  SetupTimes t;
  const int hw = w.resolutions.front();
  const std::vector<float>& input = ref.inputs.at(hw).front();
  const std::vector<std::uint8_t>& expected = ref.outputs.at(hw).front();

  const std::uint64_t t0 = NowNanos();
  stack->graph = std::make_unique<Graph>();
  LCE_CHECK(DeserializeGraph(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                             bytes.size(), stack->graph.get())
                .ok());
  const std::uint64_t t1 = NowNanos();
  CompileOptions copts;
  copts.num_threads = w.intra_op_threads;
  copts.model_name = w.name;
  copts.enable_node_histograms = trace;
  LCE_CHECK(CompiledModel::Compile(*stack->graph, copts, &stack->model).ok());
  const std::uint64_t t2 = NowNanos();
  ExecutionOptions eopts;
  eopts.enable_profiling = trace;
  if (w.pattern == LoadPattern::kClosed) {
    stack->context = std::make_unique<ExecutionContext>(stack->model, eopts);
  } else {
    serving::ServerOptions sopts = ServingOptions(w);
    sopts.execution = eopts;
    stack->server = std::make_unique<serving::Server>(stack->model, sopts);
  }
  const std::uint64_t t3 = NowNanos();
  if (stack->context != nullptr) {
    WriteInput(*stack->context, input);
    t.first_ok = stack->context->Invoke(nullptr).ok() && OutputIs(*stack->context, expected);
  } else {
    const Status st = stack->server->Infer(
        hw, [&](ExecutionContext& ctx) { WriteInput(ctx, input); },
        [&](ExecutionContext& ctx) { t.first_ok = OutputIs(ctx, expected); });
    t.first_ok = t.first_ok && st.ok();
  }
  const std::uint64_t t4 = NowNanos();
  if (trace) {
    auto& tracer = telemetry::Tracer::Global();
    tracer.RecordComplete(kSpanDeserialize, "bench", t0, t1);
    tracer.RecordComplete(kSpanCompile, "bench", t1, t2);
    tracer.RecordComplete(kSpanServerInit, "bench", t2, t3);
    tracer.RecordComplete(kSpanRequest, "bench", t3, t4);
  }
  t.deserialize_ms = Ms(t1 - t0);
  t.compile_ms = Ms(t2 - t1);
  t.runtime_ms = Ms(t3 - t2);
  t.first_ms = Ms(t4 - t3);
  t.total_s = static_cast<double>(t4 - t0) * 1e-9;
  return t;
}

// ---- Summaries -------------------------------------------------------------

// End-to-end latency of each sample in ms, from the input write or Submit()
// to the output read. A request that failed or was refused missed every
// latency limit; it counts at the deadline (or, for the closed loop, which
// has none, at 10 s).
std::vector<double> LatenciesMs(const Workload& w, const std::vector<Sample>& ss) {
  const double miss_ms = w.deadline_ms > 0 ? w.deadline_ms : 10'000.0;
  std::vector<double> v;
  v.reserve(ss.size());
  for (const Sample& s : ss) v.push_back(s.ok ? Ms(s.done_ns - s.sent_ns) : miss_ms);
  return v;
}

std::int64_t CountFailed(const std::vector<Sample>& ss) {
  return std::count_if(ss.begin(), ss.end(), [](const Sample& s) { return !s.ok; });
}

std::int64_t CountMismatches(const std::vector<Sample>& ss) {
  return std::count_if(ss.begin(), ss.end(),
                       [](const Sample& s) { return s.mismatch; });
}

// Completed requests per second over [first send, last done].
double CompletedPerSecond(const std::vector<Sample>& ss) {
  if (ss.empty()) return 0.0;
  std::uint64_t last = 0;
  for (const Sample& s : ss) last = std::max(last, s.done_ns);
  const double span = static_cast<double>(last - ss.front().sent_ns) * 1e-9;
  return Ratio(static_cast<double>(ss.size() - CountFailed(ss)), span);
}

// One step of a workload's load pattern and the requests it sent.
struct Step {
  int clients = 0;  // ladder steps
  std::vector<Sample> samples;
};

// Runs the workload's whole load pattern for `seconds`.
std::vector<Step> RunSchedule(const Workload& w, const LoadEnv& env, double seconds,
                              std::uint64_t seed, std::int64_t* next_id) {
  if (w.pattern == LoadPattern::kClosed) return {{0, RunClosedLoop(env, seconds, next_id)}};
  std::vector<Step> steps;
  for (const int c : w.clients) {
    steps.push_back({c, RunClients(env, c, seconds / static_cast<double>(w.clients.size()),
                                   seed + static_cast<std::uint64_t>(c))});
  }
  return steps;
}

// The step whose latencies are reported: the ladder's reference step, or
// the only one.
const Step& ReferenceStep(const Workload& w, const std::vector<Step>& steps) {
  for (const Step& s : steps) {
    if (s.clients == w.reference_clients) return s;
  }
  return steps.front();
}

// Ladder: the highest throughput of a step whose p95 (failures counting as
// misses) meets the SLO; the first step's if none does.
double ThroughputUnderSlo(const Workload& w, const std::vector<Step>& steps) {
  double best = CompletedPerSecond(steps.front().samples);
  for (const Step& s : steps) {
    if (Percentile(LatenciesMs(w, s.samples), 0.95) <= w.slo_p95_ms) {
      best = std::max(best, CompletedPerSecond(s.samples));
    }
  }
  return best;
}

// ---- Microbenchmarks from outside the program ------------------------------

// Median ExecutionContext::Reset() in microseconds, averaged over the
// model's shape buckets (the ladder draws them all).
double ResetMicros(const std::shared_ptr<const CompiledModel>& root) {
  std::vector<double> per_bucket;
  for (const int hw : root->ShapeBucketResolutions()) {
    std::shared_ptr<const CompiledModel> bucket;
    LCE_CHECK(CompiledModel::GetOrCompileShapeBucket(root, hw, &bucket).ok());
    ExecutionContext ctx(bucket);
    std::vector<double> us;
    for (int i = 0; i < 30; ++i) {
      const std::uint64_t t0 = NowNanos();
      ctx.Reset();
      const std::uint64_t t1 = NowNanos();
      us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      telemetry::Tracer::Global().RecordCompleteWithArg(kSpanReset, "bench", t0, t1,
                                                        "hw", hw);
    }
    per_bucket.push_back(Median(us));
  }
  double sum = 0;
  for (const double v : per_bucket) sum += v;
  return Ratio(sum, static_cast<double>(per_bucket.size()));
}

// Median cost of a ParallelFor over four empty shards on the shared
// 4-thread pool, in microseconds.
double ParallelForMicros() {
  const std::shared_ptr<ThreadPool> pool = ThreadPool::Shared(4);
  std::vector<double> us;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t t0 = NowNanos();
    pool->ParallelFor(4, [](std::int64_t, std::int64_t) {});
    us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
  }
  return Median(us);
}

// The traced run's instrumentation cost: batch-1 Invoke at the root
// resolution on a plain compile with the tracer off, against the traced
// run's own model (node histograms, per-op profiling) with the tracer on.
// The two alternate, so host noise hits both alike; the result is the
// median over pairs of the slowdown, in percent.
double TraceOverheadPct(const Workload& w, const Stack& stack, const Reference& ref) {
  CompileOptions plain_opts;
  plain_opts.num_threads = w.intra_op_threads;
  std::shared_ptr<const CompiledModel> plain_model;
  LCE_CHECK(CompiledModel::Compile(*stack.graph, plain_opts, &plain_model).ok());
  ExecutionContext plain(plain_model);
  ExecutionOptions traced_opts;
  traced_opts.enable_profiling = true;
  ExecutionContext traced(stack.model, traced_opts);
  const std::vector<float>& input = ref.inputs.at(w.resolutions.front()).front();
  WriteInput(plain, input);
  WriteInput(traced, input);
  auto& tracer = telemetry::Tracer::Global();
  const auto time_ns = [&](ExecutionContext& ctx, bool tracing) {
    if (tracing) {
      tracer.Enable();
    } else {
      tracer.Disable();
    }
    const std::uint64_t t0 = NowNanos();
    LCE_CHECK(ctx.Invoke(nullptr).ok());
    return static_cast<double>(NowNanos() - t0);
  };
  std::vector<double> pct;
  for (int i = 0; i < 20; ++i) {
    double off = 0, on = 0;
    if (i % 2 == 0) {
      off = time_ns(plain, false);
      on = time_ns(traced, true);
    } else {
      on = time_ns(traced, true);
      off = time_ns(plain, false);
    }
    pct.push_back(100.0 * (on / off - 1.0));
  }
  tracer.Disable();
  return Median(pct);
}

// ---- The timed run -------------------------------------------------------

struct Args {
  std::string mode, workload, dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Program counters read before and after the traced run.
struct Counters {
  std::int64_t binary_macs, pf_calls, bconv_fused, bconv_interior, int8_fused,
      int8_interior, pool_reused, pool_created, pool_evicted, dropped;
  serving::ServerStats stats;

  static Counters Take(const serving::Server* server) {
    Counters c{CounterValue("bgemm.binary_macs"),
               CounterValue("threadpool.parallel_for_calls"),
               CounterValue("bconv2d.fused_tiles"),
               CounterValue("bconv2d.interior_tiles"),
               CounterValue("conv2d_int8.fused_tiles"),
               CounterValue("conv2d_int8.interior_tiles"),
               CounterValue("serving.pool.reused_total"),
               CounterValue("serving.pool.created_total"),
               CounterValue("serving.pool.evicted_total"),
               CounterValue("tracer.dropped_spans"),
               {}};
    if (server != nullptr) c.stats = server->StatsSnapshot();
    return c;
  }
};

// Reads D/model.lcem and D/reference.bin. Returns false after printing why.
bool LoadInputs(const Args& args, const Workload& w, std::string* bytes,
                Reference* ref) {
  std::ifstream in(args.dir + "/model.lcem", std::ios::binary);
  bytes->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  Graph g;
  if (bytes->empty() ||
      !DeserializeGraph(reinterpret_cast<const std::uint8_t*>(bytes->data()),
                        bytes->size(), &g)
           .ok()) {
    std::fprintf(stderr, "no readable model at %s/model.lcem\n", args.dir.c_str());
    return false;
  }
  const int channels = static_cast<int>(g.value(g.input_ids()[0]).shape.dim(3));
  const Status st = LoadReference(w, args.seed, channels, args.dir, ref);
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.message().c_str());
  return st.ok();
}

// The per-layer report of the traced run. Metrics every workload measures
// come first; those of layers only some workloads run follow them.
void AddLayerMetrics(const Stack& stack, const std::string& bytes,
                     const std::vector<Sample>& traced, const ProfileAccumulator& profile,
                     const Counters& before, const Counters& after,
                     const TraceSummary& ts, Report* report) {
  const bool serving = stack.server != nullptr;
  const double done = static_cast<double>(traced.size() - CountFailed(traced));
  const auto per_req = [&](double total) { return Ratio(total, done); };
  const auto delta = [&](std::int64_t Counters::*field) {
    return static_cast<double>(after.*field - before.*field);
  };

  report->Add("converter.model_mib", static_cast<double>(bytes.size()) / kMiB, "MiB");
  report->Add("graph.invoke_p50_ms", Percentile(ts.invoke_ms, 0.5), "ms",
              static_cast<std::int64_t>(ts.invoke_ms.size()));
  report->Add("graph.invoke_p99_ms", Percentile(ts.invoke_ms, 0.99), "ms",
              static_cast<std::int64_t>(ts.invoke_ms.size()));
  double io_ns = 0;
  for (const Sample& s : traced) io_ns += s.ok ? static_cast<double>(s.io_ns) : 0.0;
  report->Add("graph.io_us", per_req(io_ns) * 1e-3, "us");
  report->Add("graph.arena_mib", static_cast<double>(stack.model->arena_bytes()) / kMiB,
              "MiB");
  report->Add("graph.packed_weight_mib",
              static_cast<double>(stack.model->packed_weight_bytes()) / kMiB, "MiB");
  std::size_t high_water = 0;
  for (const int hw : stack.model->ShapeBucketResolutions()) {
    std::shared_ptr<const CompiledModel> bucket;
    LCE_CHECK(CompiledModel::GetOrCompileShapeBucket(stack.model, hw, &bucket).ok());
    high_water = std::max(high_water, bucket->arena_bytes());
  }
  report->Add("graph.bucket_arena_high_water_mib", static_cast<double>(high_water) / kMiB,
              "MiB");

  const double conv_s = profile.seconds[kOpBConv2d] + profile.seconds[kOpConv2d] +
                        profile.seconds[kOpConv2dInt8];
  report->Add("kernels.conv_ms", per_req(conv_s) * 1e3, "ms");
  for (const int c : {kOpQuantize, kOpElementwise, kOpPool, kOpFc, kOpOther}) {
    report->Add(std::string("kernels.") + OpClassName(c) + "_ms",
                per_req(profile.seconds[c]) * 1e3, "ms");
  }
  for (const int c : {kOpBConv2d, kOpConv2d, kOpConv2dInt8}) {
    report->Add(std::string("kernels.") + OpClassName(c) + ".gmac_s",
                Ratio(profile.macs[c], profile.seconds[c]) * 1e-9, "GMAC/s");
  }
  report->Add("kernels.activation_mib", per_req(profile.activation_bytes) / kMiB, "MiB");
  report->Add("kernels.bconv2d.interior_ratio",
              Ratio(delta(&Counters::bconv_interior), delta(&Counters::bconv_fused)),
              "ratio");
  report->Add("kernels.conv2d_int8.interior_ratio",
              Ratio(delta(&Counters::int8_interior), delta(&Counters::int8_fused)), "ratio");
  report->Add("gemm.binary_gmac_per_request", per_req(delta(&Counters::binary_macs)) * 1e-9,
              "GMAC");
  double scratch = 0;
  for (int slot = 0; slot < gemm::Context::kNumScratchSlots; ++slot) {
    scratch += static_cast<double>(
        GaugeValue(("gemm.scratch_bytes.slot" + std::to_string(slot)).c_str()));
  }
  report->Add("gemm.scratch_mib", scratch / kMiB, "MiB");
  report->Add("core.parallel_for_calls_per_request", per_req(delta(&Counters::pf_calls)),
              "count");
  report->Add("core.shard_imbalance_pct", ts.shard_imbalance_pct, "%");
  report->Add("core.parallel_for_us", ParallelForMicros(), "us");
  report->Add("telemetry.dropped_spans", delta(&Counters::dropped), "count");
  report->Add("telemetry.unattributed_pct",
              100.0 * Ratio(ts.by_span.count(kSpanRequest) ? ts.by_span.at(kSpanRequest).self_ms
                                                           : 0.0,
                            ts.request_ms),
              "%", ts.requests);

  // Op classes this workload's model has.
  for (const int c : {kOpBConv2d, kOpConv2d, kOpConv2dInt8}) {
    if (profile.macs[c] == 0) continue;
    report->Add(std::string("kernels.") + OpClassName(c) + "_ms",
                per_req(profile.seconds[c]) * 1e3, "ms");
  }
  if (profile.macs[kOpBConv2d] > 0) {
    report->Add("kernels.bconv2d.im2col_ms", per_req(profile.bconv_im2col_s) * 1e3, "ms");
    report->Add("kernels.bconv2d.gemm_ms", per_req(profile.bconv_gemm_s) * 1e3, "ms");
    report->Add("kernels.bconv2d.transform_ms", per_req(profile.bconv_transform_s) * 1e3,
                "ms");
  }
  if (!serving) return;
  std::vector<double> qwait, exec, submit;
  for (const Sample& s : traced) {
    submit.push_back(static_cast<double>(s.submit_end_ns - s.submit_begin_ns) * 1e-3);
    if (!s.ok) continue;
    qwait.push_back(Ms(static_cast<std::uint64_t>(s.queue_wait_ns)));
    exec.push_back(Ms(static_cast<std::uint64_t>(s.exec_ns)));
  }
  if (!qwait.empty()) {
    const auto n = static_cast<std::int64_t>(qwait.size());
    report->Add("serving.queue_wait_p50_ms", Percentile(qwait, 0.5), "ms", n);
    report->Add("serving.queue_wait_p99_ms", Percentile(qwait, 0.99), "ms", n);
    report->Add("serving.exec_p50_ms", Percentile(exec, 0.5), "ms", n);
    report->Add("serving.exec_p99_ms", Percentile(exec, 0.99), "ms", n);
  }
  report->Add("serving.submit_p99_us", Percentile(submit, 0.99), "us",
              static_cast<std::int64_t>(submit.size()));
  const serving::ServerStats& s0 = before.stats;
  const serving::ServerStats& s1 = after.stats;
  const auto submitted = static_cast<double>(s1.submitted - s0.submitted);
  report->Add("serving.batch_occupancy",
              Ratio(static_cast<double>(s1.admitted - s0.admitted),
                    static_cast<double>(s1.batches_executed - s0.batches_executed)),
              "lanes");
  const double reused = delta(&Counters::pool_reused);
  report->Add("serving.pool_hit_ratio",
              Ratio(reused, reused + delta(&Counters::pool_created)), "ratio");
  report->Add("serving.pool_evictions_per_1k", per_req(delta(&Counters::pool_evicted)) * 1e3,
              "count");
  report->Add("serving.shed_ratio", Ratio(static_cast<double>(s1.shed - s0.shed), submitted),
              "ratio");
  report->Add("serving.expired_ratio",
              Ratio(static_cast<double>(s1.expired_in_queue - s0.expired_in_queue), submitted),
              "ratio");
  report->Add("serving.deadline_ratio",
              Ratio(static_cast<double>(s1.deadline_exceeded - s0.deadline_exceeded),
                    submitted),
              "ratio");
}

int Run(const Args& args, const Workload& w) {
  std::string bytes;
  Reference ref;
  if (!LoadInputs(args, w, &bytes, &ref)) return 2;
  auto& tracer = telemetry::Tracer::Global();
  if (args.trace) tracer.Enable();

  // This set-up builds the objects that serve the run. setup_s is not
  // taken from it: run.py times set-up in fresh processes (mode "setup").
  Stack stack;
  std::int64_t mismatches = SetUp(w, bytes, ref, args.trace, &stack).first_ok ? 0 : 1;
  // Hand set-up's freed temporaries back to the OS, so rss_mib counts what
  // the run holds rather than how set-up fragmented the heap.
  malloc_trim(0);
  TraceEvents setup_events;
  if (args.trace) {
    setup_events = tracer.Collect();
    tracer.Clear();
  }

  LoadEnv env;
  env.workload = &w;
  env.reference = &ref;
  env.server = stack.server.get();
  env.context = stack.context.get();
  env.trace = args.trace;
  const bool closed = w.pattern == LoadPattern::kClosed;
  std::int64_t next_id = 1;
  const auto run = [&](double seconds, std::uint64_t stream) {
    std::vector<Step> steps =
        RunSchedule(w, env, seconds, args.seed * 1000003ull + stream, &next_id);
    std::vector<Sample> all;
    for (const Step& st : steps) all.insert(all.end(), st.samples.begin(), st.samples.end());
    return std::make_pair(std::move(steps), std::move(all));
  };

  // Warm-up: caches, lazily sized scratch, pooled contexts. In the traced
  // run it also counts spans per request to size the trace buffers.
  const double warm_s = std::min(1.0, 0.1 * args.seconds);
  const std::vector<Sample> warm = run(warm_s, 7).second;
  mismatches += CountMismatches(warm);
  std::size_t spans_per_request = 0;
  if (args.trace) {
    std::map<int, std::size_t> per_thread;
    for (const auto& ce : tracer.Collect()) ++per_thread[ce.tid];
    for (const auto& [tid, n] : per_thread) {
      spans_per_request =
          std::max(spans_per_request, n / std::max<std::size_t>(warm.size(), 1));
    }
    tracer.Disable();
    tracer.Clear();
  }

  // Main thread, sampler, intra-op workers, and for serving the executors
  // (each with an inline 1-thread pool). The generator is the main thread.
  const int expected_threads =
      2 + (w.intra_op_threads - 1) + (closed ? 0 : ServingOptions(w).max_inflight);
  ProcessSampler sampler;
  Report report;
  std::vector<Sample> measured;  // every request of the timed phase
  std::vector<std::string> invalid;

  if (!args.trace) {
    std::vector<Step> steps;
    std::tie(steps, measured) = run(args.seconds, 1);
    sampler.Stop();
    const std::vector<Sample>& reference = ReferenceStep(w, steps).samples;
    const std::vector<double> lat = LatenciesMs(w, reference);
    const auto n = static_cast<std::int64_t>(lat.size());
    report.Add("latency_p50_ms", Percentile(lat, 0.5), "ms", n);
    report.Add("latency_p99_ms", Percentile(lat, 0.99), "ms", n);
    report.Add("throughput_qps",
               steps.size() > 1 ? ThroughputUnderSlo(w, steps) : CompletedPerSecond(reference),
               "req/s");
    report.Add("rss_mib", sampler.max_rss_mib(), "MiB");
    for (const Step& st : steps) {
      if (st.clients == 0) continue;
      const std::string c = ".c" + std::to_string(st.clients);
      const auto sn = static_cast<std::int64_t>(st.samples.size());
      report.Add("serving.step_qps" + c, CompletedPerSecond(st.samples), "req/s", sn);
      report.Add("serving.step_p95_ms" + c, Percentile(LatenciesMs(w, st.samples), 0.95), "ms",
                 sn);
    }
  } else {
    const double overhead_pct = TraceOverheadPct(w, stack, ref);
    tracer.Clear();
    const double expected_requests = static_cast<double>(warm.size()) / warm_s * args.seconds;
    tracer.Enable(static_cast<std::size_t>(static_cast<double>(spans_per_request) *
                                           expected_requests * 1.5) +
                  8192);
    ProfileAccumulator profile;
    env.profile = &profile;
    const Counters before = Counters::Take(env.server);
    measured = run(args.seconds, 1).second;
    const Counters after = Counters::Take(env.server);
    sampler.Stop();
    const double reset_us = ResetMicros(stack.model);  // records bench/reset spans
    tracer.Disable();
    const TraceEvents run_events = tracer.Collect();
    const TraceSummary ts = AnalyzeTrace(run_events, *stack.graph);

    report.Add("graph.reset_us", reset_us, "us");
    AddLayerMetrics(stack, bytes, measured, profile, before, after, ts, &report);
    report.Add("telemetry.trace_overhead_pct", overhead_pct, "%");
    if (after.dropped > before.dropped) invalid.push_back("the tracer dropped spans");

    const Status ws = WriteLayersJson(ts, w.name, args.dir + "/layers.json");
    const Status wt = WriteChromeTrace(setup_events, run_events, args.dir + "/trace.json");
    if (!ws.ok() || !wt.ok()) {
      std::fprintf(stderr, "trace output failed: %s %s\n", ws.message().c_str(),
                   wt.message().c_str());
      return 2;
    }
  }
  mismatches += CountMismatches(measured);
  const std::int64_t failed_requests = CountFailed(measured);
  report.Add("output_mismatches", static_cast<double>(mismatches), "count");
  report.Add("error_ratio",
             Ratio(static_cast<double>(failed_requests), static_cast<double>(measured.size())),
             "ratio", static_cast<std::int64_t>(measured.size()));
  report.Add("threads", sampler.max_threads(), "count");

  if (sampler.max_threads() != expected_threads) {
    invalid.push_back("thread budget: saw " + std::to_string(sampler.max_threads()) +
                      " threads, expected " + std::to_string(expected_threads));
  }

  report.Print(w.name);
  std::string reasons = "[";
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    reasons += (i ? ", \"" : "\"") + telemetry::JsonEscape(invalid[i]) + "\"";
  }
  reasons += "]";
  std::ofstream out(args.dir + "/result.json");
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"valid\": " << (invalid.empty() ? "true" : "false")
      << ", \"invalid_reasons\": " << reasons
      << ", \"correct\": " << (mismatches == 0 ? "true" : "false")
      << ", \"attempted\": " << measured.size()
      << ", \"failed\": " << failed_requests + mismatches
      << ", \"metrics\": " << report.ToJson() << "}\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s/result.json\n", args.dir.c_str());
    return 2;
  }
  for (const std::string& r : invalid) std::fprintf(stderr, "invalid run: %s\n", r.c_str());
  return invalid.empty() ? 0 : 3;
}

// One set-up in this fresh process, as a user starting a process pays it
// (cold heap, first page faults), printed as one JSON line. Set-ups
// repeated inside one process all share its CPU placement and heap
// history, so run.py takes the median over several processes instead.
int SetupOnce(const Args& args, const Workload& w) {
  std::string bytes;
  Reference ref;
  if (!LoadInputs(args, w, &bytes, &ref)) return 2;
  Stack stack;
  const SetupTimes t = SetUp(w, bytes, ref, args.trace, &stack);
  std::printf(
      "{\"ok\": %s, \"total_s\": %.9f, \"deserialize_ms\": %.6f, \"compile_ms\": %.6f, "
      "\"runtime_ms\": %.6f, \"first_ms\": %.6f}\n",
      t.first_ok ? "true" : "false", t.total_s, t.deserialize_ms, t.compile_ms, t.runtime_ms,
      t.first_ms);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return (a->mode == "reference" || a->mode == "run" || a->mode == "setup") &&
         !a->workload.empty() &&
         !a->dir.empty() && a->seconds > 0;
}

}  // namespace
}  // namespace lce::e2e

int main(int argc, char** argv) {
  using namespace lce::e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench reference|run|setup --workload W --seed N --dir D "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.mode == "reference") return EmitReference(*w, args.seed, args.dir);
  return args.mode == "setup" ? SetupOnce(args, *w) : Run(args, *w);
}
