// Overload-safe serving core tests (docs/SERVING.md, "Overload & failure
// semantics"): cooperative cancellation with the no-partial-writes output
// guarantee, per-request deadlines, the bounded admission queue, and the
// executor context's reuse/quarantine/recovery behavior. The
// concurrent cancel-vs-invoke tests here are part of the CI
// ThreadSanitizer job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "converter/convert.h"
#include "core/cancellation.h"
#include "core/macros.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "serving/server.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

using namespace std::chrono_literals;
using serving::Request;
using serving::Server;
using serving::ServerOptions;

// Same op mix as test_serving.cc: float conv + binary conv + pooling +
// dense head, converted to the inference dialect.
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

std::vector<float> ReferenceOutput(
    const std::shared_ptr<const CompiledModel>& model, std::uint64_t seed) {
  ExecutionContext exec(model);
  FillInput(exec.input(0), seed);
  exec.Invoke();
  const float* o = exec.output(0).data<float>();
  return std::vector<float>(o, o + 10);
}

TEST(ServingCancel, PreCancelledTokenRunsNoNodes) {
  auto model = CompileServingModel();
  std::atomic<int> nodes_run{0};
  ExecutionOptions opts;
  opts.observer = [&](const Node&, const Tensor&) { nodes_run.fetch_add(1); };
  ExecutionContext exec(model, opts);
  FillInput(exec.input(0), 1);

  CancellationToken token;
  token.Cancel();
  const Status s = exec.Invoke(&token);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(nodes_run.load(), 0)
      << "a cancelled request must not execute any node";
}

TEST(ServingCancel, ExpiredDeadlineReturnsDeadlineExceeded) {
  auto model = CompileServingModel();
  ExecutionContext exec(model);
  FillInput(exec.input(0), 2);

  CancellationToken token;
  token.set_deadline(CancellationToken::Clock::now() - 1ms);
  const Status s = exec.Invoke(&token);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(ServingCancel, CancelPreferredOverDeadlineInStatus) {
  CancellationToken token;
  token.set_deadline(CancellationToken::Clock::now() - 1ms);
  token.Cancel();
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
  token.clear_deadline();
  EXPECT_TRUE(token.Expired()) << "Cancel() is permanent";
}

// The no-partial-writes guarantee: a request cancelled after node k never
// touches the user-visible output buffers of nodes it did not reach. Graph
// outputs get exclusive arena regions (the planner pins their lifetime to
// the whole plan), so the sentinel bytes written below can only be
// overwritten by the output's own producer -- which the cancelled run never
// executes.
TEST(ServingCancel, CancelAfterNodeKLeavesOutputsUntouched) {
  auto model = CompileServingModel();
  const std::vector<float> expected = ReferenceOutput(model, 3);

  // One probe per prefix length: cancel after node k, for every k short of
  // the step that produces the graph output (once that node ran, the output
  // bytes are legitimately written).
  const int output_value = model->graph().output_ids()[0];
  int num_nodes = 0;
  int producer_step = -1;
  {
    ExecutionOptions count_opts;
    count_opts.observer = [&](const Node& node, const Tensor&) {
      for (const int v : node.outputs) {
        if (v == output_value) producer_step = num_nodes;
      }
      ++num_nodes;
    };
    ExecutionContext exec(model, count_opts);
    FillInput(exec.input(0), 3);
    exec.Invoke();
  }
  ASSERT_GT(num_nodes, 2);
  ASSERT_GE(producer_step, 1);

  for (int k = 0; k < producer_step; ++k) {
    CancellationToken token;
    std::atomic<int> nodes_run{0};
    ExecutionOptions opts;
    opts.observer = [&](const Node&, const Tensor&) {
      if (nodes_run.fetch_add(1) + 1 == k + 1) token.Cancel();
    };
    ExecutionContext exec(model, opts);
    FillInput(exec.input(0), 3);
    // Sentinel-fill the user-visible output region.
    float* out = exec.output(0).data<float>();
    for (int i = 0; i < 10; ++i) out[i] = -12345.0f;

    const Status s = exec.Invoke(&token);
    ASSERT_EQ(s.code(), StatusCode::kCancelled) << "cancel after node " << k;
    EXPECT_EQ(nodes_run.load(), k + 1)
        << "execution must stop at the next node boundary";
    for (int i = 0; i < 10; ++i) {
      ASSERT_EQ(out[i], -12345.0f)
          << "cancel after node " << k << " wrote output element " << i
          << " -- partial write to a user-visible output";
    }
  }

  // And the terminal sanity check: an uncancelled run on the same context
  // type still produces the reference bits.
  ExecutionContext exec(model);
  FillInput(exec.input(0), 3);
  CancellationToken live;
  ASSERT_TRUE(exec.Invoke(&live).ok());
  EXPECT_EQ(0, std::memcmp(exec.output(0).data<float>(), expected.data(),
                           10 * sizeof(float)));
}

// TSan target: Cancel() racing a concurrent Invoke on the same token must
// be free of data races, and the Invoke must terminate with kCancelled (or
// finish Ok if it won the race) -- never crash, never hang.
TEST(ServingCancel, ConcurrentCancelVersusInvoke) {
  auto model = CompileServingModel(/*num_threads=*/2);
  for (int round = 0; round < 8; ++round) {
    ExecutionContext exec(model);
    FillInput(exec.input(0), 40 + round);
    CancellationToken token;
    std::atomic<bool> stop{false};
    Status last = Status::Ok();

    std::thread invoker([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        last = exec.Invoke(&token);
        if (!last.ok()) break;
      }
    });
    // Cancel at a different point in the model on each round.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    token.Cancel();
    stop.store(true, std::memory_order_relaxed);
    invoker.join();

    if (!last.ok()) {
      EXPECT_EQ(last.code(), StatusCode::kCancelled) << "round " << round;
    }
    EXPECT_TRUE(token.Expired());
  }
}

// ---------------------------------------------------------------------------
// Executor contexts: each executor holds one ExecutionContext, Reset() and
// reused while its batches share a signature, destroyed after a failed run.
// The serving.pool.* counters are process-wide, so tests read deltas.
// ---------------------------------------------------------------------------

std::int64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Counter(name)->value();
}

// Consume callback copying the 10 logits into `out`.
Server::FillFn ReadOutput(std::vector<float>* out) {
  return [out](ExecutionContext& ctx) {
    const float* o = ctx.output(0).data<float>();
    out->assign(o, o + 10);
  };
}

TEST(ServingContext, SameSignatureReusesTheExecutorContext) {
  auto model = CompileServingModel();
  const std::vector<float> expected = ReferenceOutput(model, 7);
  const std::int64_t created = CounterValue("serving.pool.created_total");
  const std::int64_t reused = CounterValue("serving.pool.reused_total");
  const std::int64_t evicted = CounterValue("serving.pool.evicted_total");
  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(model, opts);

  std::vector<float> first, second;
  ASSERT_TRUE(server
                  .Infer([](ExecutionContext& ctx) { FillInput(ctx.input(0), 7); },
                         ReadOutput(&first))
                  .ok());
  // The second request runs on the same context, Reset() in between: its
  // input region starts zeroed and its output is bit-identical.
  bool zeroed = true;
  ASSERT_TRUE(server
                  .Infer(
                      [&zeroed](ExecutionContext& ctx) {
                        const Tensor in = ctx.input(0);
                        for (std::int64_t i = 0; i < in.num_elements(); ++i) {
                          zeroed = zeroed && in.data<float>()[i] == 0.0f;
                        }
                        FillInput(ctx.input(0), 7);
                      },
                      ReadOutput(&second))
                  .ok());
  EXPECT_TRUE(zeroed) << "a reused context must start from a zeroed arena";
  EXPECT_EQ(CounterValue("serving.pool.created_total") - created, 1);
  EXPECT_EQ(CounterValue("serving.pool.reused_total") - reused, 1);
  EXPECT_EQ(CounterValue("serving.pool.evicted_total") - evicted, 0);
  ASSERT_EQ(first.size(), 10u);
  ASSERT_EQ(second.size(), 10u);
  EXPECT_EQ(0, std::memcmp(first.data(), expected.data(), 10 * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(second.data(), expected.data(), 10 * sizeof(float)))
      << "reused context diverged from a fresh one";
}

// A cancelled run destroys its context (the arena holds the partial state
// of an aborted run); the next request gets a fresh context whose results
// are bit-identical to the pre-failure ones.
TEST(ServingContext, CancelledBatchDestroysItsContextThenBitIdenticalRecovery) {
  auto model = CompileServingModel();
  const std::vector<float> expected = ReferenceOutput(model, 9);
  const std::int64_t created = CounterValue("serving.pool.created_total");
  const std::int64_t quarantined =
      CounterValue("serving.pool.quarantined_total");
  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(model, opts);

  // The fill blocks until the request is cancelled, so Invoke starts with a
  // fired token.
  std::promise<void> filled, cancelled;
  std::shared_future<void> cancel_done = cancelled.get_future().share();
  auto req = server.Submit([&filled, cancel_done](ExecutionContext& ctx) {
    FillInput(ctx.input(0), 9);
    filled.set_value();
    cancel_done.wait();
  });
  filled.get_future().wait();
  req->Cancel();
  cancelled.set_value();
  EXPECT_EQ(req->Wait().code(), StatusCode::kCancelled);

  std::vector<float> got;
  ASSERT_TRUE(server
                  .Infer([](ExecutionContext& ctx) { FillInput(ctx.input(0), 9); },
                         ReadOutput(&got))
                  .ok());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(0, std::memcmp(got.data(), expected.data(), 10 * sizeof(float)))
      << "post-quarantine context diverged from the pre-failure reference";
  // The lone executor finished the cancelled batch, quarantine included,
  // before it took the recovery request.
  EXPECT_EQ(server.StatsSnapshot().quarantined, 1);
  EXPECT_EQ(CounterValue("serving.pool.quarantined_total") - quarantined, 1);
  EXPECT_EQ(CounterValue("serving.pool.created_total") - created, 2)
      << "the recovery request must run on a fresh context";
}

TEST(ServingServer, InferMatchesDirectExecutionBitExact) {
  auto model = CompileServingModel();
  const std::vector<float> expected = ReferenceOutput(model, 21);
  ServerOptions opts;
  opts.max_inflight = 2;
  Server server(model, opts);

  for (int i = 0; i < 4; ++i) {
    std::vector<float> got(10);
    const Status s = server.Infer(
        [](ExecutionContext& ctx) { FillInput(ctx.input(0), 21); },
        [&](ExecutionContext& ctx) {
          const float* o = ctx.output(0).data<float>();
          std::copy(o, o + 10, got.begin());
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(0, std::memcmp(got.data(), expected.data(), 10 * sizeof(float)))
        << "server iteration " << i << " diverged from direct execution";
  }
}

TEST(ServingServer, AdmissionQueueShedsBeyondBound) {
  auto model = CompileServingModel();
  ServerOptions opts;
  opts.max_inflight = 1;
  opts.max_queue_depth = 2;
  Server server(model, opts);

  // Block the lone executor inside the first request's fill so later
  // submissions pile up in the queue.
  std::promise<void> started;
  std::promise<void> gate_promise;
  std::shared_future<void> gate = gate_promise.get_future().share();
  auto r0 = server.Submit([&](ExecutionContext& ctx) {
    started.set_value();
    gate.wait();
    FillInput(ctx.input(0), 1);
  });
  started.get_future().wait();

  auto r1 = server.Submit([](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); });
  auto r2 = server.Submit([](ExecutionContext& ctx) { FillInput(ctx.input(0), 1); });
  EXPECT_EQ(server.queue_depth(), 2);

  // Queue full: the third waiting request is shed synchronously at Submit.
  auto shed = server.Submit([](ExecutionContext&) {
    FAIL() << "a shed request must never execute";
  });
  EXPECT_TRUE(shed->done()) << "shed requests are terminal at Submit";
  EXPECT_EQ(shed->status().code(), StatusCode::kResourceExhausted);

  gate_promise.set_value();
  EXPECT_TRUE(r0->Wait().ok());
  EXPECT_TRUE(r1->Wait().ok());
  EXPECT_TRUE(r2->Wait().ok());
  EXPECT_EQ(server.queue_depth(), 0);
}

TEST(ServingServer, QueuedRequestDeadlineExpiresWithoutExecuting) {
  auto model = CompileServingModel();
  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(model, opts);

  std::promise<void> started;
  std::promise<void> gate_promise;
  std::shared_future<void> gate = gate_promise.get_future().share();
  auto r0 = server.Submit([&](ExecutionContext& ctx) {
    started.set_value();
    gate.wait();
    FillInput(ctx.input(0), 1);
  });
  started.get_future().wait();

  std::atomic<bool> fill_ran{false};
  auto doomed = server.Submit(
      [&](ExecutionContext&) { fill_ran.store(true); }, nullptr,
      /*deadline=*/5ms);
  std::this_thread::sleep_for(30ms);  // let the deadline lapse in-queue
  gate_promise.set_value();

  EXPECT_EQ(doomed->Wait().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(fill_ran.load())
      << "a request that expired in the queue must never touch a context";
  EXPECT_EQ(doomed->exec_ns(), 0);
  EXPECT_GT(doomed->queue_wait_ns(), 0);
  EXPECT_TRUE(r0->Wait().ok());
}

TEST(ServingServer, CancelledQueuedRequestNeverExecutes) {
  auto model = CompileServingModel();
  ServerOptions opts;
  opts.max_inflight = 1;
  Server server(model, opts);

  std::promise<void> started;
  std::promise<void> gate_promise;
  std::shared_future<void> gate = gate_promise.get_future().share();
  auto r0 = server.Submit([&](ExecutionContext& ctx) {
    started.set_value();
    gate.wait();
    FillInput(ctx.input(0), 1);
  });
  started.get_future().wait();

  auto victim = server.Submit([](ExecutionContext&) {
    FAIL() << "a cancelled queued request must never execute";
  });
  victim->Cancel();
  gate_promise.set_value();
  EXPECT_EQ(victim->Wait().code(), StatusCode::kCancelled);
  EXPECT_TRUE(r0->Wait().ok());
}

// TSan target: client threads cancelling in-flight requests while the
// executors run them.
TEST(ServingServer, ConcurrentClientsWithRandomCancellation) {
  auto model = CompileServingModel(/*num_threads=*/2);
  const std::vector<float> expected = ReferenceOutput(model, 33);
  ServerOptions opts;
  opts.max_inflight = 2;
  opts.max_queue_depth = 64;
  Server server(model, opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0}, other{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        std::vector<float> got(10, 0.0f);
        auto req = server.Submit(
            [&](ExecutionContext& ctx) { FillInput(ctx.input(0), 33); },
            [&](const Status& s, ExecutionContext* ctx) {
              if (s.ok() && ctx != nullptr) {
                const float* o = ctx->output(0).data<float>();
                std::copy(o, o + 10, got.begin());
              }
            });
        if ((c + i) % 3 == 0) req->Cancel();  // race Cancel against execution
        const Status s = req->Wait();
        if (s.ok()) {
          ok_count.fetch_add(1);
          ASSERT_EQ(0, std::memcmp(got.data(), expected.data(),
                                   10 * sizeof(float)))
              << "client " << c << " request " << i;
        } else {
          ASSERT_TRUE(s.code() == StatusCode::kCancelled ||
                      s.code() == StatusCode::kResourceExhausted)
              << s.ToString();
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load() + other.load(), kClients * kPerClient);
  EXPECT_GT(ok_count.load(), 0) << "uncancelled requests must succeed";
}

TEST(ServingServer, ShutdownDrainsPendingAsCancelled) {
  auto model = CompileServingModel();
  std::shared_ptr<Request> pending;
  std::promise<void> started;
  std::promise<void> gate_promise;
  std::shared_future<void> gate = gate_promise.get_future().share();
  {
    ServerOptions opts;
    opts.max_inflight = 1;
    Server server(model, opts);
    auto r0 = server.Submit([&](ExecutionContext& ctx) {
      started.set_value();
      gate.wait();
      FillInput(ctx.input(0), 1);
    });
    started.get_future().wait();
    // The gate opens only once ~Server has drained `pending`: opening it
    // earlier would race the lone executor, which could finish r0 and pick
    // `pending` up before the destructor shuts the queue.
    pending = server.Submit(
        [](ExecutionContext&) {
          FAIL() << "drained requests must never execute";
        },
        [&gate_promise](const Status&, ExecutionContext*) {
          gate_promise.set_value();
        });
    // ~Server: drains `pending` with kCancelled, finishes r0, joins.
  }
  ASSERT_TRUE(pending->done());
  EXPECT_EQ(pending->status().code(), StatusCode::kCancelled);
}

// The memory bound behind admission control: arenas scale with the
// executors (max_inflight), not with offered load.
TEST(ServingServer, ResidentArenaBytesBoundedByInflight) {
  auto model = CompileServingModel();
  auto* gauge = telemetry::MetricsRegistry::Global().Gauge(
      "serving.resident_arena_bytes");
  const std::int64_t before = gauge->value();
  ServerOptions opts;
  opts.max_inflight = 2;
  opts.max_queue_depth = 4;
  {
    Server server(model, opts);
    for (int burst = 0; burst < 3; ++burst) {
      std::vector<std::shared_ptr<Request>> reqs;
      for (int i = 0; i < 16; ++i) {  // 4x the queue bound
        reqs.push_back(server.Submit(
            [](ExecutionContext& ctx) { FillInput(ctx.input(0), 5); }));
      }
      for (auto& r : reqs) r->Wait();
      EXPECT_LE(gauge->value() - before,
                2 * static_cast<std::int64_t>(model->arena_bytes()))
          << "resident arenas must stay bounded by max_inflight under burst "
          << burst;
    }
  }
  EXPECT_EQ(gauge->value(), before)
      << "server shutdown must release every executor's arena";
}

// ---------------------------------------------------------------------------
// Request-scoped observability (docs/OBSERVABILITY.md): request identity,
// the StatsSnapshot() outcome invariants, and reconciliation between the
// serving.* latency histograms and the outcome counters -- the two metric
// families must never drift.
// ---------------------------------------------------------------------------

TEST(ServingStats, RequestIdsAreMonotonicallyIncreasingFromOne) {
  auto model = CompileServingModel();
  ServerOptions opts;
  opts.max_inflight = 2;
  Server server(model, opts);
  std::vector<std::shared_ptr<Request>> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(server.Submit(
        [](ExecutionContext& ctx) { FillInput(ctx.input(0), 3); }));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i]->Wait();
    EXPECT_EQ(reqs[i]->id(), static_cast<std::int64_t>(i) + 1)
        << "ids are assigned in Submit order, starting at 1";
  }
  EXPECT_EQ(server.StatsSnapshot().next_request_id, 9);
}

// Drives one of every outcome through a single server -- completion, shed,
// deadline expiry in the queue, cancellation in the queue -- then checks
// the documented ServerStats invariants and that the process-wide
// histogram count *deltas* reconcile exactly with the per-server counters:
//   execute/e2e record iff admitted, queue_wait records per dequeue.
TEST(ServingStats, SnapshotReconcilesOutcomesAndHistograms) {
  auto model = CompileServingModel();
  auto& registry = telemetry::MetricsRegistry::Global();
  const std::int64_t qw_before =
      registry.Histogram("serving.queue_wait_ns")->count();
  const std::int64_t ex_before =
      registry.Histogram("serving.execute_ns")->count();
  const std::int64_t e2e_before =
      registry.Histogram("serving.e2e_ns")->count();

  ServerOptions opts;
  opts.max_inflight = 1;
  opts.max_queue_depth = 3;
  Server server(model, opts);

  // Block the single executor so the queue fills deterministically.
  std::promise<void> started;
  std::promise<void> gate_promise;
  std::shared_future<void> gate = gate_promise.get_future().share();
  auto r0 = server.Submit([&](ExecutionContext& ctx) {
    started.set_value();
    gate.wait();
    FillInput(ctx.input(0), 1);
  });
  started.get_future().wait();

  // Queue (depth 3): one normal, one with a deadline that expires while
  // waiting, one cancelled while waiting. A fifth submit overflows the
  // bounded queue and is shed at admission.
  auto r1 = server.Submit(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 2); });
  auto r2 = server.Submit(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 3); }, nullptr, 1ms);
  auto r3 = server.Submit(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 4); });
  auto r4 = server.Submit(
      [](ExecutionContext& ctx) { FillInput(ctx.input(0), 5); });
  EXPECT_EQ(r4->Wait().code(), StatusCode::kResourceExhausted);

  r3->Cancel();
  std::this_thread::sleep_for(10ms);  // r2's 1ms budget expires in the queue
  gate_promise.set_value();
  EXPECT_TRUE(r0->Wait().ok());
  EXPECT_TRUE(r1->Wait().ok());
  EXPECT_EQ(r2->Wait().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r3->Wait().code(), StatusCode::kCancelled);

  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.submitted, 5);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.expired_in_queue, 1);
  EXPECT_EQ(stats.cancelled_in_queue, 1);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completed_ok, 2);
  EXPECT_EQ(stats.deadline_exceeded, 0) << "expiry in queue is not an "
                                           "admitted-request outcome";
  EXPECT_EQ(stats.cancelled, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.queue_depth_peak, 3);

  // The documented invariants, stated as written in server.h.
  EXPECT_EQ(stats.submitted, stats.shed + stats.expired_in_queue +
                                 stats.cancelled_in_queue + stats.admitted);
  EXPECT_EQ(stats.admitted, stats.completed_ok + stats.deadline_exceeded +
                                stats.cancelled + stats.failed);

  // Histogram-vs-counter reconciliation (deltas: the histograms are
  // process-wide and shared with every other server in this test binary).
  EXPECT_EQ(registry.Histogram("serving.execute_ns")->count() - ex_before,
            stats.admitted);
  EXPECT_EQ(registry.Histogram("serving.e2e_ns")->count() - e2e_before,
            stats.admitted);
  EXPECT_EQ(registry.Histogram("serving.queue_wait_ns")->count() - qw_before,
            stats.submitted - stats.shed)
      << "queue_wait records every dequeued request, shed ones never enqueue";
  EXPECT_EQ(stats.execute.count, stats.e2e.count)
      << "execute and e2e both record iff admitted, so at idle their "
         "process-wide counts are always equal";

  std::string error;
  EXPECT_TRUE(telemetry::ValidateJsonSyntax(stats.ToJson(), &error)) << error;
}

// The periodic exporter thread writes StatsSnapshot().ToJson() to the
// configured path every interval, plus one final write on shutdown, so the
// file always holds a complete last-known-good snapshot.
TEST(ServingStats, PeriodicExporterLeavesValidFinalSnapshot) {
  const std::string path = "lce_stats_export_test.json";
  std::remove(path.c_str());
  auto model = CompileServingModel();
  auto* exports =
      telemetry::MetricsRegistry::Global().Counter("serving.stats_exports_total");
  const std::int64_t exports_before = exports->value();
  {
    ServerOptions opts;
    opts.max_inflight = 2;
    opts.stats_export_interval = 5ms;
    opts.stats_export_path = path;
    Server server(model, opts);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(
          server
              .Infer([](ExecutionContext& ctx) { FillInput(ctx.input(0), 9); })
              .ok());
    }
  }  // ~Server joins the exporter after a final export
  EXPECT_GT(exports->value(), exports_before);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "exporter must leave a final snapshot at " << path;
  std::string data;
  char buf[1 << 12];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  std::string error;
  EXPECT_TRUE(telemetry::ValidateJsonSyntax(data, &error)) << error;
  EXPECT_NE(data.find("\"completed_ok\""), std::string::npos);
  EXPECT_NE(data.find("\"e2e_ns\""), std::string::npos);
  std::remove(path.c_str());
}

// CI artifact hook: with LCE_STATS_JSON=<path> in the environment this test
// leaves a live StatsSnapshot JSON there for upload; without it, it only
// validates the JSON shape.
TEST(ServingStats, SnapshotJsonIsValidAndExportedForCi) {
  auto model = CompileServingModel();
  ServerOptions opts;
  opts.max_inflight = 2;
  Server server(model, opts);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(server
                    .Infer([i](ExecutionContext& ctx) {
                      FillInput(ctx.input(0), static_cast<std::uint64_t>(i) + 1);
                    })
                    .ok());
  }
  const serving::ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.admitted, 6);
  EXPECT_EQ(stats.completed_ok, 6);
  const std::string json = stats.ToJson();
  std::string error;
  ASSERT_TRUE(telemetry::ValidateJsonSyntax(json, &error)) << error;
  if (const char* path = std::getenv("LCE_STATS_JSON");
      path != nullptr && path[0] != '\0') {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << "cannot open LCE_STATS_JSON path " << path;
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
}

}  // namespace
}  // namespace lce
