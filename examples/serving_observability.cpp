// Request-scoped serving observability, end to end (docs/OBSERVABILITY.md):
//
//   * compiles a small mixed float/binary model with per-node latency
//     histograms and request-tagged tracing enabled,
//   * serves a burst of requests deliberately larger than the admission
//     queue, so some complete, some shed, and some miss a tight deadline,
//   * triggers the failure flight recorder's shed-burst anomaly path (no
//     fault injection needed) and dumps a bundle,
//   * prints the server's StatsSnapshot() JSON and writes the process
//     metrics as Prometheus text exposition.
//
//   ./serving_observability [--requests=N] [--flight=bundle.json]
//                           [--stats=stats.json] [--prom=metrics.prom]
//                           [--trace=trace.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "converter/convert.h"
#include "core/macros.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "serving/server.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

using namespace lce;
using namespace std::chrono_literals;

namespace {

Graph MakeDemoGraph() {
  Graph g;
  ModelBuilder b(g, 3);
  int x = b.Input(32, 32, 3);
  x = b.Conv(x, 16, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  int y = b.BinaryConv(x, 64, 3, 1, Padding::kSameOne);
  y = b.BatchNorm(y);
  y = b.BinaryConv(y, 64, 3, 1, Padding::kSameOne);
  y = b.BatchNorm(y);
  x = b.GlobalAvgPool(y);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  LCE_CHECK(Convert(g).ok());
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 64;
  std::string flight_path = "flight_bundle.json";
  std::string stats_path;
  std::string prom_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--flight=", 9) == 0) {
      flight_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--stats=", 8) == 0) {
      stats_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--prom=", 7) == 0) {
      prom_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  const Graph graph = MakeDemoGraph();
  telemetry::Tracer::Global().Enable();  // request-tagged spans
  CompileOptions copts;
  copts.num_threads = 2;
  copts.model_name = "demo";
  copts.enable_node_histograms = true;  // per-model per-node latency
  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(graph, copts, &model).ok());

  serving::ServerOptions sopts;
  sopts.max_queue_depth = 8;   // small on purpose: the burst must shed
  sopts.max_inflight = 2;
  sopts.default_deadline = 50ms;
  sopts.flight_recorder.dump_path = flight_path;
  sopts.flight_recorder.shed_burst_threshold = 4;
  sopts.flight_recorder.burst_window = 5s;
  sopts.flight_recorder.min_dump_interval = 0ms;
  if (!stats_path.empty()) {
    sopts.stats_export_interval = 50ms;
    sopts.stats_export_path = stats_path;
  }

  {
    serving::Server server(model, sopts);
    std::vector<std::shared_ptr<serving::Request>> handles;
    handles.reserve(requests);
    for (int i = 0; i < requests; ++i) {
      handles.push_back(server.Submit([i](ExecutionContext& ctx) {
        Rng rng(static_cast<std::uint64_t>(i) + 1);
        Tensor in = ctx.input(0);
        for (std::int64_t j = 0; j < in.num_elements(); ++j) {
          in.data<float>()[j] = rng.Uniform();
        }
      }));
    }
    for (auto& h : handles) h->Wait();

    const serving::ServerStats stats = server.StatsSnapshot();
    std::printf("%s", stats.ToJson().c_str());
    std::printf("flight recorder: %d bundle(s) at %s\n",
                server.flight_recorder().dumps_written(),
                server.flight_recorder().dump_path().c_str());
    std::printf("e2e p50=%.0fns p99=%.0fns over %lld admitted requests\n",
                stats.e2e.p50(), stats.e2e.p99(),
                static_cast<long long>(stats.admitted));
  }  // ~Server: drain, join executors, final stats export

  if (!prom_path.empty()) {
    LCE_CHECK(telemetry::MetricsRegistry::Global()
                  .WritePrometheusText(prom_path)
                  .ok());
    std::printf("wrote Prometheus exposition to %s\n", prom_path.c_str());
  }
  if (!trace_path.empty()) {
    LCE_CHECK(telemetry::Tracer::Global().WriteChromeTrace(trace_path).ok());
    std::printf("wrote trace to %s\n", trace_path.c_str());
  }
  return 0;
}
