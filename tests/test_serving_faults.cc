// Fault-injection suite (docs/ROBUSTNESS.md). Only registered when the
// build sets LCE_FAULT_INJECTION (the sanitizer CI jobs do); each scenario
// arms a deterministic fault, asserts the specified Status surfaces through
// the serving API without aborting the process, and then proves recovery:
// the server's next request reproduces the pre-fault output bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "converter/convert.h"
#include "core/cancellation.h"
#include "core/macros.h"
#include "core/random.h"
#include "core/thread_pool.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "serving/fault_injection.h"
#include "serving/server.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

using namespace std::chrono_literals;
using serving::Server;
using serving::ServerOptions;
using serving::fault::FaultInjector;

Graph MakeServingGraph() {
  Graph g;
  ModelBuilder b(g, 3);
  int x = b.Input(16, 16, 3);
  x = b.Conv(x, 8, 3, 2, Padding::kSameZero);
  x = b.BatchNorm(x);
  x = b.Relu(x);
  int y = b.BinaryConv(x, 32, 3, 1, Padding::kSameOne);
  y = b.BatchNorm(y);
  x = b.GlobalAvgPool(y);
  x = b.Dense(x, 10);
  g.MarkOutput(x);
  LCE_CHECK(Convert(g).ok());
  return g;
}

void FillInput(Tensor in, std::uint64_t seed) {
  Rng rng(seed);
  for (std::int64_t i = 0; i < in.num_elements(); ++i) {
    in.data<float>()[i] = rng.Uniform();
  }
}

std::shared_ptr<const CompiledModel> CompileServingModel(int num_threads = 1) {
  static const Graph* g = new Graph(MakeServingGraph());
  CompileOptions opts;
  opts.num_threads = num_threads;
  std::shared_ptr<const CompiledModel> model;
  LCE_CHECK(CompiledModel::Compile(*g, opts, &model).ok());
  return model;
}

class ServingFaults : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  // Runs one clean request through `server` and asserts its output matches
  // `expected` bit for bit -- the recovery check every scenario ends with.
  static void ExpectRecovery(Server& server, const std::vector<float>& expected,
                             std::uint64_t seed) {
    std::vector<float> got;
    const Status s = server.Infer(
        [seed](ExecutionContext& ctx) { FillInput(ctx.input(0), seed); },
        [&got](ExecutionContext& ctx) {
          const float* o = ctx.output(0).data<float>();
          got.assign(o, o + 10);
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(got.size(), 10u);
    EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), 10 * sizeof(float)))
        << "post-fault context diverged from the pre-fault reference";
  }

  static std::unique_ptr<Server> OneExecutorServer(
      const std::shared_ptr<const CompiledModel>& model) {
    ServerOptions opts;
    opts.max_inflight = 1;
    return std::make_unique<Server>(model, opts);
  }

  static std::vector<float> Reference(
      const std::shared_ptr<const CompiledModel>& model, std::uint64_t seed) {
    ExecutionContext exec(model);
    FillInput(exec.input(0), seed);
    exec.Invoke();
    const float* o = exec.output(0).data<float>();
    return std::vector<float>(o, o + 10);
  }
};

TEST_F(ServingFaults, ArenaAllocFailureShedsInsteadOfAborting) {
  auto model = CompileServingModel();
  const std::vector<float> expected = Reference(model, 50);
  auto server = OneExecutorServer(model);

  // The executor holds no context yet, so this batch builds one and its
  // arena allocation fails: the batch is shed before any fill runs.
  FaultInjector::Global().FailArenaAlloc(1);
  bool filled = false;
  const Status s = server->Infer([&filled](ExecutionContext&) { filled = true; });
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_FALSE(filled);

  // The fault self-disarmed: the next batch retries the allocation and
  // recovers bit-exactly.
  ExpectRecovery(*server, expected, 50);
  const serving::ServerStats stats = server->StatsSnapshot();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.quarantined, 0) << "a context that never ran is not "
                                     "quarantined";
}

TEST_F(ServingFaults, ArenaAllocFailureSurfacesThroughServer) {
  auto model = CompileServingModel();
  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(model, opts);
  // Warm the executor so its context exists, then quarantine it via a
  // cancelled request and arm the replacement allocation to fail.
  ASSERT_TRUE(
      server.Infer([](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); })
          .ok());
  auto req =
      server.Submit([](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); });
  req->Cancel();
  req->Wait();

  FaultInjector::Global().FailArenaAlloc(1);
  Status s = server.Infer(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); });
  // Either this request drew the failed replacement (ResourceExhausted) or
  // it raced ahead of the quarantine; in both orders the server must stay
  // up and the *next* request must succeed once the fault disarms.
  if (!s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  }
  FaultInjector::Global().Reset();
  s = server.Infer([](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); });
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(ServingFaults, ScratchAllocFailureReturnsResourceExhaustedMidModel) {
  auto model = CompileServingModel();
  const std::vector<float> expected = Reference(model, 51);
  auto server = OneExecutorServer(model);

  // The executor's first context allocates its gemm scratch during its
  // first Invoke, which is where the fault fires.
  FaultInjector::Global().FailScratchAlloc(/*slot=*/-1, /*times=*/1);
  const Status s = server->Infer(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 51); });
  ASSERT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("scratch"), std::string::npos)
      << "the error must identify the failing allocation: " << s.message();

  ExpectRecovery(*server, expected, 51);
  const serving::ServerStats stats = server->StatsSnapshot();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.quarantined, 1) << "the failed context must be destroyed";
}

TEST_F(ServingFaults, InducedNodeErrorPropagatesVerbatim) {
  auto model = CompileServingModel();
  const std::vector<float> expected = Reference(model, 52);
  auto server = OneExecutorServer(model);

  FaultInjector::Global().FailNode(
      /*step=*/2, Status::Internal("induced kernel failure at step 2"));
  const Status s = server->Infer(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 52); });
  ASSERT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "induced kernel failure at step 2")
      << "the injected status must propagate verbatim";

  ExpectRecovery(*server, expected, 52);
  EXPECT_EQ(server->StatsSnapshot().quarantined, 1);
}

TEST_F(ServingFaults, StalledShardMissesDeadlineMidModel) {
  // A worker shard stalling (descheduled, page-faulting) must not wedge the
  // request forever: the deadline fires at the next cancellation point and
  // Invoke returns kDeadlineExceeded while the stalled shard finishes its
  // block.
  auto model = CompileServingModel(/*num_threads=*/2);
  const std::vector<float> expected = Reference(model, 53);
  auto server = OneExecutorServer(model);

  // Stall every shard-0 execution past the deadline for the whole run: the
  // first stall alone (the stem, the model's first ParallelForShard) outlasts
  // the 100 ms deadline, so the request cannot finish inside it however fast
  // the rest of the model runs.
  FaultInjector::Global().StallShard(/*shard=*/0, /*delay=*/150ms,
                                     /*times=*/64);
  const Status s = server->Infer(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 53); }, nullptr,
      /*deadline=*/100ms);
  ASSERT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();

  FaultInjector::Global().Reset();
  ExpectRecovery(*server, expected, 53);
  // A deadline that fired mid-model poisons the context like any failed
  // run (one that fired in the queue never touched it).
  const serving::ServerStats stats = server->StatsSnapshot();
  EXPECT_EQ(stats.deadline_exceeded + stats.expired_in_queue, 1);
  EXPECT_EQ(stats.quarantined, stats.deadline_exceeded);
}

TEST_F(ServingFaults, InjectionCountersRecordEveryFiredFault) {
  auto model = CompileServingModel();
  auto* injected =
      telemetry::MetricsRegistry::Global().Counter("fault.injected_total");
  const std::int64_t before = injected->value();

  FaultInjector::Global().FailArenaAlloc(1);
  ExecutionContext failed(model);
  EXPECT_FALSE(failed.allocation_ok());
  EXPECT_EQ(failed.Invoke(nullptr).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(injected->value(), before + 1);

  // Disarmed after the trigger count: the next context allocates fine.
  ExecutionContext ok(model);
  EXPECT_TRUE(ok.allocation_ok());
  EXPECT_EQ(injected->value(), before + 1);
}

// ---------------------------------------------------------------------------
// Failure flight recorder (docs/OBSERVABILITY.md): a quarantine must
// deterministically leave a self-contained bundle behind, and the fault
// outcomes must reconcile with the serving.* histograms exactly like the
// healthy ones do.
// ---------------------------------------------------------------------------

TEST_F(ServingFaults, QuarantineWritesFlightRecorderBundle) {
  // CI sets LCE_FLIGHT_RECORDER so the bundle survives as an artifact;
  // without it the test uses (and cleans up) a local path.
  const char* env = std::getenv("LCE_FLIGHT_RECORDER");
  const bool keep = env != nullptr && env[0] != '\0';
  const std::string path =
      keep ? std::string(env) : std::string("lce_flight_bundle_test.json");
  std::remove(path.c_str());

  auto model = CompileServingModel();
  ServerOptions opts;
  opts.max_inflight = 1;
  opts.flight_recorder.dump_path = path;
  opts.flight_recorder.min_dump_interval = 0ms;
  Server server(model, opts);

  // Healthy traffic first, so the bundle's ring shows the anomaly in
  // context rather than in isolation.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        server.Infer([](ExecutionContext& ctx) { FillInput(ctx.input(0), 7); })
            .ok());
  }

  FaultInjector::Global().FailNode(
      /*step=*/2, Status::Internal("induced kernel failure"));
  const Status failed = server.Infer(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 8); });
  ASSERT_EQ(failed.code(), StatusCode::kInternal);

  // Infer() returns when the request completes; the quarantine (and its
  // dump) happens on the executor right after, once every lane is
  // finished -- give it a moment.
  for (int i = 0; i < 2000 && server.flight_recorder().dumps_written() == 0;
       ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(server.flight_recorder().dumps_written(), 1)
      << "a quarantine is the always-on trigger; it must produce a bundle";

  // The bundle on disk is one valid JSON document containing the failed
  // request's summary, the metrics snapshot, the Prometheus exposition and
  // a trace tail that self-describes its truncation.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "no bundle at " << path;
  std::string data;
  char buf[1 << 14];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  std::string error;
  EXPECT_TRUE(telemetry::ValidateJsonSyntax(data, &error)) << error;
  EXPECT_NE(data.find("\"reason\": \"quarantine\""), std::string::npos);
  EXPECT_NE(data.find("\"outcome\": \"internal\""), std::string::npos);
  EXPECT_NE(data.find("\"outcome\": \"ok\""), std::string::npos)
      << "the ring must retain the healthy requests around the anomaly";
  EXPECT_NE(data.find("\"prometheus\""), std::string::npos);
  EXPECT_NE(data.find("tracer.dropped_spans"), std::string::npos);

  // The exposition embedded in the bundle is the registry's; the raw text
  // must pass the line-format validator.
  EXPECT_TRUE(telemetry::ValidatePrometheusText(
      telemetry::MetricsRegistry::Global().ToPrometheusText(), &error))
      << error;

  // The trigger request is the ring's newest summary, with enough recorded
  // to reconstruct its life: admitted, ran some nodes, then failed.
  const auto recent = server.flight_recorder().RecentRequests();
  ASSERT_FALSE(recent.empty());
  const auto& last = recent.back();
  EXPECT_EQ(last.outcome, StatusCode::kInternal);
  EXPECT_GT(last.nodes_executed, 0) << "the run reached step 2 before failing";
  EXPECT_GE(last.dequeue_ns, last.enqueue_ns);
  EXPECT_GE(last.finish_ns, last.dequeue_ns);

  if (!keep) std::remove(path.c_str());
}

// Admitted-but-failed requests land in the same histogram buckets as
// healthy ones: `admitted == completed_ok + deadline_exceeded + cancelled +
// failed` with kernel errors *and* post-admission scratch exhaustion in
// `failed`, and the execute/e2e histogram count deltas still equal the
// admitted delta -- fault paths cannot make the metric families drift.
TEST_F(ServingFaults, FaultOutcomesReconcileWithHistograms) {
  auto model = CompileServingModel();
  auto& registry = telemetry::MetricsRegistry::Global();
  const std::int64_t ex_before =
      registry.Histogram("serving.execute_ns")->count();
  const std::int64_t e2e_before = registry.Histogram("serving.e2e_ns")->count();

  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(model, opts);
  ASSERT_TRUE(
      server.Infer([](ExecutionContext& ctx) { FillInput(ctx.input(0), 60); })
          .ok());

  FaultInjector::Global().FailNode(/*step=*/2, Status::Internal("induced"));
  EXPECT_EQ(server
                .Infer([](ExecutionContext& ctx) {
                  FillInput(ctx.input(0), 61);
                })
                .code(),
            StatusCode::kInternal);

  FaultInjector::Global().FailScratchAlloc(/*slot=*/-1, /*times=*/1);
  EXPECT_EQ(server
                .Infer([](ExecutionContext& ctx) {
                  FillInput(ctx.input(0), 62);
                })
                .code(),
            StatusCode::kResourceExhausted);

  FaultInjector::Global().Reset();
  ASSERT_TRUE(
      server.Infer([](ExecutionContext& ctx) { FillInput(ctx.input(0), 63); })
          .ok());

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.completed_ok, 2);
  EXPECT_EQ(stats.failed, 2)
      << "kernel errors and post-admission scratch exhaustion both classify "
         "as failed";
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.deadline_exceeded +
                                stats.cancelled + stats.failed);
  EXPECT_EQ(stats.quarantined, 2)
      << "every failed Invoke quarantines its context";
  EXPECT_EQ(registry.Histogram("serving.execute_ns")->count() - ex_before,
            stats.admitted);
  EXPECT_EQ(registry.Histogram("serving.e2e_ns")->count() - e2e_before,
            stats.admitted);
}

// A kernel fault during a *batched* Invoke fails every admitted lane with
// the propagated status, but the shared context quarantines exactly once --
// two failed lanes must not double-count quarantines -- and the replacement
// context recovers bit-exactly.
TEST_F(ServingFaults, LaneKernelFaultFailsBatchQuarantinesOnce) {
  auto model = CompileServingModel();
  const std::vector<float> expected = Reference(model, 70);

  ServerOptions opts;
  opts.max_inflight = 1;
  opts.max_batch_size = 2;
  opts.batch_timeout = 0ms;
  Server server(model, opts);

  // Block the lone executor inside a healthy request's fill so the next two
  // submissions pile up and close as one size-2 batch.
  std::promise<void> started, gate_promise;
  std::shared_future<void> gate = gate_promise.get_future().share();
  auto r0 = server.Submit([&](ExecutionContext& ctx) {
    started.set_value();
    gate.wait();
    FillInput(ctx.input(0), 70);
  });
  started.get_future().wait();

  // Lane A arms the node fault during scatter: the executor's very next
  // Invoke is the batch-2 run, so the fault fires inside it.
  auto lane_a = server.Submit([](ExecutionContext& ctx) {
    FaultInjector::Global().FailNode(
        /*step=*/2, Status::Internal("induced batch kernel failure"));
    FillInput(ctx.input(0), 71);
  });
  auto lane_b = server.Submit(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 72); });
  gate_promise.set_value();

  ASSERT_TRUE(r0->Wait().ok());
  EXPECT_EQ(lane_a->Wait().code(), StatusCode::kInternal);
  EXPECT_EQ(lane_b->Wait().code(), StatusCode::kInternal)
      << "a batch-level kernel fault is a batch-level outcome: every lane "
         "shared the poisoned run";
  EXPECT_EQ(lane_a->Wait().message(), "induced batch kernel failure");

  // Self-disarmed after one trigger; the quarantine replacement must
  // reproduce the healthy output bit for bit.
  std::vector<float> got(10, -1.0f);
  ASSERT_TRUE(server
                  .Infer([](ExecutionContext& ctx) {
                    FillInput(ctx.input(0), 70);
                  },
                         [&got](ExecutionContext& ctx) {
                           const float* o = ctx.output(0).data<float>();
                           std::copy(o, o + 10, got.begin());
                         })
                  .ok());
  EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), 10 * sizeof(float)));

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.admitted, 4);
  EXPECT_EQ(stats.completed_ok, 2);
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.quarantined, 1)
      << "one poisoned context, one quarantine -- regardless of lane count";
  EXPECT_EQ(stats.batches_executed, 3);
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.deadline_exceeded +
                                stats.cancelled + stats.failed);
}

}  // namespace
}  // namespace lce
