// Capture a Chrome/Perfetto trace and a metrics snapshot for any zoo model
// -- the observability companion to profile_model (which prints the Figure 5
// / Table 4 tables from the same clock). Runs the converter and a few
// inference repetitions with the telemetry tracer enabled, then writes:
//
//   * a Chrome trace-event JSON (open in chrome://tracing or
//     https://ui.perfetto.dev) with nested spans for converter passes,
//     compile phases, every executed node, BConv2d/BGEMM stages and
//     ParallelFor shards on their worker-thread tracks;
//   * optionally a metrics-registry snapshot (--metrics=) and a
//     machine-readable run report (--json=).
//
// Usage:
//   ./build/examples/trace_model [Model|model.lcem] [--threads=N] [--reps=N]
//       [--out=trace.json] [--metrics=metrics.json] [--json=report.json]
//       [--check] [--list]
//
// Model names are matched case-insensitively, ignoring '_'/'-', with
// shorthands for the QuickNet variants (quicknet_s / quicknet_m /
// quicknet_l). With LCE_TRACE=<path> set, the trace additionally lands at
// <path> on exit like for any other binary.
//
// --check validates the emitted JSON syntactically and verifies that every
// executed node produced a span; it exits non-zero otherwise (used by CI).
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>

#include "converter/convert.h"
#include "converter/serializer.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/macs.h"
#include "models/zoo.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"
#include "telemetry/tracer.h"

using namespace lce;

namespace {

// Lowercases and strips '_'/'-' so "quicknet_s", "QuickNet-S" and
// "quicknets" all compare equal.
std::string Normalize(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '_' || c == '-') continue;
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

const ZooModel* FindModel(const std::string& raw) {
  std::string want = Normalize(raw);
  // Shorthands for the QuickNet size variants (the medium model's zoo name
  // is plain "QuickNet").
  if (want == "quicknets" || want == "quicknetsmall") want = "quicknetsmall";
  if (want == "quicknetm" || want == "quicknetmedium") want = "quicknet";
  if (want == "quicknetl" || want == "quicknetlarge") want = "quicknetlarge";
  for (const auto& m : AllZooModels()) {
    if (Normalize(m.name) == want) return &m;
  }
  return nullptr;
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot reopen %s\n", path.c_str());
    std::exit(1);
  }
  std::string data;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_name = "QuickNetSmall";
  // Default to >1 thread so ParallelFor shards land on multiple tracks.
  int threads = std::max(
      2, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  int reps = 3;
  const char* env_trace = std::getenv("LCE_TRACE");
  std::string out_path = env_trace != nullptr ? env_trace : "trace.json";
  std::string metrics_path;
  std::string report_path;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const auto& m : AllZooModels()) std::printf("%s\n", m.name.c_str());
      return 0;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      report_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    } else {
      model_name = argv[i];
    }
  }
  if (threads < 1) threads = 1;
  if (reps < 1) reps = 1;

  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  tracer.Enable();

  Graph g;
  std::string resolved_name = model_name;
  if (model_name.size() > 5 &&
      model_name.substr(model_name.size() - 5) == ".lcem") {
    const Status s = LoadModel(model_name, &g);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", model_name.c_str(),
                   s.message().c_str());
      return 1;
    }
  } else {
    const ZooModel* model = FindModel(model_name);
    if (model == nullptr) {
      std::fprintf(stderr, "unknown model '%s' (use --list)\n",
                   model_name.c_str());
      return 1;
    }
    resolved_name = model->name;
    g = model->build(224);
    const Status converted = Convert(g);
    if (!converted.ok()) {
      std::fprintf(stderr, "conversion failed: %s\n",
                   converted.message().c_str());
      return 1;
    }
  }
  std::printf("Tracing %s, %d thread(s), %d rep(s)...\n",
              resolved_name.c_str(), threads, reps);

  CompileOptions opts;
  opts.num_threads = threads;
  std::shared_ptr<const CompiledModel> model;
  const Status compiled = CompiledModel::Compile(g, opts, &model);
  if (!compiled.ok()) {
    std::fprintf(stderr, "Compile failed: %s\n", compiled.message().c_str());
    return 1;
  }
  ExecutionOptions exec_opts;
  // Per-node spans share the profiler's clock.
  exec_opts.enable_profiling = true;
  ExecutionContext exec(model, exec_opts);
  Rng rng(1);
  Tensor in = exec.input(0);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }

  telemetry::RunReport report("trace_model");
  report.AddMeta("model", resolved_name);
  report.AddMetaInt("threads", threads);
  report.AddMetaInt("reps", reps);
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = telemetry::NowNanos();
    exec.Invoke();
    report.AddLatencySeconds(
        static_cast<double>(telemetry::NowNanos() - t0) * 1e-9);
  }

  const Status wrote = tracer.WriteChromeTrace(out_path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", out_path.c_str(),
                 wrote.message().c_str());
    return 1;
  }
  std::printf("[trace] wrote %s (%zu spans, %llu dropped)\n", out_path.c_str(),
              tracer.recorded_events(),
              static_cast<unsigned long long>(tracer.dropped_events()));

  auto& registry = telemetry::MetricsRegistry::Global();
  if (!metrics_path.empty()) {
    const Status mw = registry.WriteJson(metrics_path);
    if (!mw.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", metrics_path.c_str(),
                   mw.message().c_str());
      return 1;
    }
    std::printf("[metrics] wrote %s\n", metrics_path.c_str());
  }
  if (!report_path.empty()) {
    const Status rw = report.WriteJson(report_path);
    if (!rw.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", report_path.c_str(),
                   rw.message().c_str());
      return 1;
    }
    std::printf("[report] wrote %s\n", report_path.c_str());
  }

  // Headline metrics (full snapshot via --metrics= / LCE_METRICS).
  const std::int64_t packed = registry.Gauge("weights.packed_binary_bytes")->value();
  const std::int64_t arena = registry.Gauge("interpreter.arena_bytes")->value();
  const std::int64_t macs = registry.Counter("bgemm.binary_macs")->value();
  std::printf(
      "arena %.2f MiB | packed binary weights %.2f MiB (32x vs float) | "
      "%.1f M binary MACs/run\n",
      arena / (1024.0 * 1024.0), packed / (1024.0 * 1024.0),
      static_cast<double>(macs) / reps / 1e6);

  if (!check) return 0;

  // --check: the trace must be valid JSON and contain a span for every
  // executed node, with ParallelFor shards on >= 2 tracks when threaded.
  int failures = 0;
  std::string error;
  const std::string trace_text = ReadFileOrDie(out_path);
  if (!telemetry::ValidateJsonSyntax(trace_text, &error)) {
    std::fprintf(stderr, "[check] %s is not valid JSON: %s\n",
                 out_path.c_str(), error.c_str());
    ++failures;
  }
  const auto events = tracer.Collect();
  std::set<std::string> node_spans;
  std::set<int> shard_tids;
  for (const auto& e : events) {
    if (std::strcmp(e.event.category, "node") == 0) {
      node_spans.insert(e.event.name);
    } else if (std::strcmp(e.event.name, "threadpool/shard") == 0) {
      shard_tids.insert(e.tid);
    }
  }
  int missing = 0;
  for (const auto& op : exec.profile()) {
    if (node_spans.count(op.name) == 0) {
      std::fprintf(stderr, "[check] no span for executed node '%s'\n",
                   op.name.c_str());
      ++missing;
    }
  }
  if (missing > 0) ++failures;
  std::printf("[check] %zu node spans cover %zu executed nodes\n",
              node_spans.size(), exec.profile().size());
  if (threads >= 2 && shard_tids.size() < 2) {
    std::fprintf(stderr,
                 "[check] ParallelFor shards ran on %zu thread track(s), "
                 "expected >= 2\n",
                 shard_tids.size());
    ++failures;
  } else {
    std::printf("[check] ParallelFor shards on %zu thread track(s)\n",
                shard_tids.size());
  }
  // Dropped spans don't fail the check -- the trace is still valid, just
  // truncated -- but silence here is how a partial timeline gets mistaken
  // for a quiet one, so the warning is loud. The same count is embedded in
  // the trace's otherData ("tracer.dropped_spans") for offline readers.
  if (const std::uint64_t dropped = tracer.dropped_events(); dropped > 0) {
    std::fprintf(stderr,
                 "[check] *** WARNING: tracer dropped %llu span(s): a "
                 "per-thread buffer filled and the trace is INCOMPLETE. "
                 "Raise Tracer::Enable(capacity_per_thread) or trace fewer "
                 "reps. ***\n",
                 static_cast<unsigned long long>(dropped));
  }
  if (failures == 0) std::printf("[check] OK\n");
  return failures == 0 ? 0 : 1;
}
