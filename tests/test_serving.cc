// Serving-path tests: one shared CompiledModel driven by concurrent
// ExecutionContexts (bit-identical to serial execution), packed-weight
// sharing, clean-slate retries after a failed compile, and the
// unplanned-value hazard fixture (docs/SERVING.md). The concurrency tests here are the ones the CI
// ThreadSanitizer job runs.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "converter/convert.h"
#include "core/macros.h"
#include "core/random.h"
#include "graph/compiled_model.h"
#include "models/builder.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

// A small mixed-precision graph exercising the binary path (bitpacked
// chaining through a BConv) plus float convs, pooling and a dense head --
// the op mix of a QuickNet block at unit-test size. Converted to the
// inference dialect, so the compiled model holds real packed binary
// weights.
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

std::int64_t GaugeValue(const char* name) {
  return telemetry::MetricsRegistry::Global().Gauge(name)->value();
}

TEST(Serving, ConcurrentInvokeMatchesSerialBitExact) {
  const Graph g = MakeServingGraph();
  CompileOptions opts;
  opts.num_threads = 2;  // shared pool: concurrent submitters inside kernels
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, opts, &model).ok());

  // Serial references: one input (and expected output) per future thread.
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 8;
  std::vector<std::vector<float>> expected(kThreads);
  {
    ExecutionContext serial(model);
    for (int t = 0; t < kThreads; ++t) {
      FillInput(serial.input(0), /*seed=*/100 + t);
      serial.Invoke();
      const float* o = serial.output(0).data<float>();
      expected[t].assign(o, o + 10);
    }
  }

  // Concurrent run: each thread owns a context, shares the model and pool,
  // and must reproduce its serial reference bit for bit on every iteration.
  std::vector<std::vector<float>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecutionContext exec(model);
      FillInput(exec.input(0), /*seed=*/100 + t);
      for (int it = 0; it < kItersPerThread; ++it) {
        exec.Invoke();
        const float* o = exec.output(0).data<float>();
        got[t].assign(o, o + 10);
        ASSERT_EQ(0, std::memcmp(got[t].data(), expected[t].data(),
                                 10 * sizeof(float)))
            << "thread " << t << " iteration " << it
            << " diverged from serial execution";
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t], expected[t]) << "thread " << t;
  }
}

TEST(Serving, PackedWeightsSharedAcrossContexts) {
  const Graph g = MakeServingGraph();
  const std::int64_t resident_before =
      GaugeValue("weights.resident_packed_bytes");
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  ASSERT_GT(model->packed_weight_bytes(), 0u);
  const std::int64_t one_model =
      static_cast<std::int64_t>(model->packed_weight_bytes());
  EXPECT_EQ(GaugeValue("weights.resident_packed_bytes"),
            resident_before + one_model);

  // Adding contexts allocates arenas, never weights.
  const std::int64_t arena_before = GaugeValue("serving.resident_arena_bytes");
  {
    std::vector<std::unique_ptr<ExecutionContext>> contexts;
    for (int i = 0; i < 4; ++i) {
      contexts.push_back(std::make_unique<ExecutionContext>(model));
    }
    EXPECT_EQ(GaugeValue("weights.resident_packed_bytes"),
              resident_before + one_model)
        << "packed weights must not scale with context count";
    EXPECT_EQ(GaugeValue("serving.resident_arena_bytes"),
              arena_before + 4 * static_cast<std::int64_t>(model->arena_bytes()));
  }
  EXPECT_EQ(GaugeValue("serving.resident_arena_bytes"), arena_before);

  model.reset();
  EXPECT_EQ(GaugeValue("weights.resident_packed_bytes"), resident_before)
      << "destroying the model must release its packed-weight accounting";
}

TEST(Serving, FailedCompileRetriesFromCleanSlate) {
  const Graph g = MakeServingGraph();
  std::shared_ptr<const CompiledModel> model;
  ASSERT_TRUE(CompiledModel::Compile(g, {}, &model).ok());
  const CompiledModel* held = model.get();
  const std::int64_t resident = GaugeValue("weights.resident_packed_bytes");
  const std::int64_t arenas = GaugeValue("serving.resident_arena_bytes");

  CompileOptions opts;
  opts.limits.max_arena_bytes = 16;  // guaranteed planner failure
  const Status first = CompiledModel::Compile(g, opts, &model);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
  // Retry hits the same failure -- but deterministically, from scratch, and
  // without leaking partially-built kernel or arena accounting, and neither
  // attempt touches the caller's model.
  const Status second = CompiledModel::Compile(g, opts, &model);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.code(), second.code());
  EXPECT_EQ(model.get(), held);
  EXPECT_EQ(GaugeValue("weights.resident_packed_bytes"), resident);
  EXPECT_EQ(GaugeValue("serving.resident_arena_bytes"), arenas);
}

// Hostile fixture for the unplanned-value hazard: a live value whose
// producer has been marked dead never enters the memory plan. Compile must
// reject the graph as a Status (validator or the planner's own
// dead-producer guard) -- never plan around it and hand out an arena view
// at offset 0 in release builds.
TEST(Serving, LiveValueWithDeadProducerIsRejected) {
  Graph g;
  ModelBuilder b(g);
  int x = b.Input(2, 2, 1);
  const int y = b.Relu(x);
  const int out = b.Relu(y);
  g.MarkOutput(out);
  // Sabotage: kill the producer node but leave its output value alive, as a
  // buggy rewrite would.
  g.node(g.value(y).producer).alive = false;

  std::shared_ptr<const CompiledModel> model;
  const Status s = CompiledModel::Compile(g, {}, &model);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(model, nullptr);
}

}  // namespace
}  // namespace lce
