// Telemetry subsystem tests: tracer span nesting, multi-threaded emission
// from ParallelFor workers, ring-buffer overflow accounting, Chrome trace
// JSON structure, the metrics registry and the JSON syntax checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "telemetry/clock.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/run_report.h"
#include "telemetry/tracer.h"

namespace lce::telemetry {
namespace {

// The tracer is process-global; each test starts it from a clean slate.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

const TraceEvent* FindEvent(const std::vector<Tracer::CollectedEvent>& events,
                            const char* name) {
  for (const auto& e : events) {
    if (std::strcmp(e.event.name, name) == 0) return &e.event;
  }
  return nullptr;
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  EXPECT_FALSE(TracingActive());
  { LCE_TRACE_SCOPE("ignored"); }
  EXPECT_EQ(Tracer::Global().recorded_events(), 0u);
}

TEST_F(TracerTest, NestedScopesAreContained) {
  Tracer::Global().Enable();
  {
    LCE_TRACE_SCOPE("outer");
    {
      LCE_TRACE_SCOPE("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const auto events = Tracer::Global().Collect();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = FindEvent(events, "outer");
  const TraceEvent* inner = FindEvent(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Chrome infers nesting from containment per track: the inner span must
  // lie fully inside the outer one, and both were recorded on one thread.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->duration_ns,
            outer->start_ns + outer->duration_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TracerTest, RecordCompleteCarriesArg) {
  Tracer::Global().Enable();
  Tracer::Global().RecordCompleteWithArg("pass/x", "converter", 100, 200,
                                         "rewrites", 7);
  const auto events = Tracer::Global().Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].event.name, "pass/x");
  EXPECT_STREQ(events[0].event.category, "converter");
  EXPECT_EQ(events[0].event.start_ns, 100u);
  EXPECT_EQ(events[0].event.duration_ns, 100u);
  EXPECT_STREQ(events[0].event.arg_name, "rewrites");
  EXPECT_EQ(events[0].event.arg_value, 7);
}

TEST_F(TracerTest, ParallelForEmitsShardsFromMultipleThreads) {
  Tracer::Global().Enable();
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.ParallelFor(4, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      // Enough work that no worker can race through every shard.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      sum.fetch_add(static_cast<int>(i));
    }
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);

  std::set<int> tids;
  std::set<std::int64_t> shard_indices;
  for (const auto& e : Tracer::Global().Collect()) {
    if (std::strcmp(e.event.name, "threadpool/shard") != 0) continue;
    tids.insert(e.tid);
    ASSERT_STREQ(e.event.arg_name, "shard");
    shard_indices.insert(e.event.arg_value);
  }
  EXPECT_EQ(shard_indices.size(), 4u);  // shards 0..3 all traced
  // Shard 0 runs on the caller, 1..3 on workers: >= 2 distinct tracks.
  EXPECT_GE(tids.size(), 2u);
}

TEST_F(TracerTest, OverflowDropsAreCountedNotCorrupting) {
  Metric* dropped_metric =
      MetricsRegistry::Global().Counter("tracer.dropped_spans");
  const std::int64_t dropped_before = dropped_metric->value();

  Tracer::Global().Enable(/*capacity_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    Tracer::Global().RecordComplete("span", "test", i * 10, i * 10 + 5);
  }
  EXPECT_EQ(Tracer::Global().recorded_events(), 8u);
  EXPECT_EQ(Tracer::Global().dropped_events(), 12u);
  EXPECT_EQ(dropped_metric->value() - dropped_before, 12);

  // The export is still well-formed and reports the drop count.
  const std::string json = Tracer::Global().ToChromeTraceJson();
  std::string error;
  EXPECT_TRUE(ValidateJsonSyntax(json, &error)) << error;
  EXPECT_NE(json.find("dropped_events"), std::string::npos);
}

TEST_F(TracerTest, ChromeTraceJsonStructure) {
  Tracer::Global().Enable();
  {
    LCE_TRACE_SCOPE_CAT("bgemm/pack", "gemm");
  }
  const std::string json = Tracer::Global().ToChromeTraceJson();
  std::string error;
  ASSERT_TRUE(ValidateJsonSyntax(json, &error)) << error;
  // Chrome trace-event envelope: traceEvents array of "X" complete events
  // plus thread metadata; microsecond display unit.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"bgemm/pack\""), std::string::npos);
  EXPECT_NE(json.find("\"gemm\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST_F(TracerTest, ClearResetsAndSurvivesReenable) {
  Tracer::Global().Enable();
  { LCE_TRACE_SCOPE("before-clear"); }
  EXPECT_EQ(Tracer::Global().recorded_events(), 1u);
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().recorded_events(), 0u);
  // The recording thread's cached buffer slot is generation-checked: it must
  // re-register, not write into the freed buffer.
  { LCE_TRACE_SCOPE("after-clear"); }
  const auto events = Tracer::Global().Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].event.name, "after-clear");
}

TEST_F(TracerTest, LongNamesAreTruncatedSafely) {
  Tracer::Global().Enable();
  const std::string longname(200, 'x');
  Tracer::Global().RecordComplete(longname.c_str(), "test", 0, 1);
  const auto events = Tracer::Global().Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].event.name), kTraceNameCapacity - 1);
  std::string error;
  EXPECT_TRUE(ValidateJsonSyntax(Tracer::Global().ToChromeTraceJson(), &error))
      << error;
}

TEST(Metrics, CounterAccumulatesAndGaugeTracksHighWater) {
  auto& reg = MetricsRegistry::Global();
  Metric* c = reg.Counter("test.counter");
  Metric* g = reg.Gauge("test.gauge");
  const std::int64_t c0 = c->value();
  c->Add(3);
  c->Add(4);
  EXPECT_EQ(c->value() - c0, 7);

  g->Set(10);
  g->SetMax(5);   // below: no change
  EXPECT_EQ(g->value(), 10);
  g->SetMax(25);  // above: raises
  EXPECT_EQ(g->value(), 25);

  // Pointers are stable: the same name returns the same object.
  EXPECT_EQ(reg.Counter("test.counter"), c);
}

TEST(Metrics, SnapshotAndJson) {
  auto& reg = MetricsRegistry::Global();
  reg.Counter("test.snapshot_counter")->Add(1);
  reg.Gauge("test.snapshot_gauge")->Set(42);
  bool saw_counter = false, saw_gauge = false;
  for (const auto& s : reg.Snapshot()) {
    if (s.name == "test.snapshot_counter") {
      saw_counter = true;
      EXPECT_EQ(s.kind, MetricKind::kCounter);
    }
    if (s.name == "test.snapshot_gauge") {
      saw_gauge = true;
      EXPECT_EQ(s.kind, MetricKind::kGauge);
      EXPECT_EQ(s.value, 42);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);

  const std::string json = reg.ToJson();
  std::string error;
  EXPECT_TRUE(ValidateJsonSyntax(json, &error)) << error;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snapshot_gauge\": 42"), std::string::npos);
}

TEST(Metrics, ConcurrentUpdatesDontLoseIncrements) {
  Metric* c = MetricsRegistry::Global().Counter("test.concurrent");
  const std::int64_t before = c->value();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < 10000; ++i) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value() - before, 40000);
}

TEST(RunReport, JsonContainsStatsAndMetadata) {
  RunReport report("unit-test");
  report.AddMeta("model", "QuickNetSmall");
  report.AddMetaInt("threads", 2);
  for (double s : {0.010, 0.012, 0.011, 0.013, 0.009}) {
    report.AddLatencySeconds(s);
  }
  report.AddResult("speedup", 2.5);
  const std::string json = report.ToJson();
  std::string error;
  ASSERT_TRUE(ValidateJsonSyntax(json, &error)) << error;
  EXPECT_NE(json.find("\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"QuickNetSmall\""), std::string::npos);
  EXPECT_NE(json.find("\"median_s\""), std::string::npos);
  EXPECT_NE(json.find("\"speedup\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

TEST(JsonChecker, AcceptsValidDocuments) {
  for (const char* doc : {
           "{}",
           "[]",
           "{\"a\": [1, 2.5, -3e4], \"b\": {\"c\": null}}",
           "[true, false, \"\\u00e9\\n\\\"\"]",
           "42",
           "\"just a string\"",
       }) {
    std::string error;
    EXPECT_TRUE(ValidateJsonSyntax(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonChecker, RejectsInvalidDocuments) {
  for (const char* doc : {
           "",
           "{",
           "{\"a\": }",
           "[1, 2,]",
           "{\"a\" 1}",
           "nul",
           "\"unterminated",
           "01",
           "{} trailing",
           "{\"bad\\x\": 1}",
       }) {
    EXPECT_FALSE(ValidateJsonSyntax(doc)) << "accepted: " << doc;
  }
}

// ---------------------------------------------------------------------------
// Histogram metric kind (docs/OBSERVABILITY.md).
// ---------------------------------------------------------------------------

TEST(Histogram, BucketIndexIsMonotoneAndBoundsContainValues) {
  int prev = 0;
  for (std::int64_t v = 0; v < 100000; ++v) {
    const int i = Histogram::BucketIndex(v);
    ASSERT_GE(i, prev) << "bucket index not monotone at " << v;
    prev = i;
    ASSERT_LE(Histogram::BucketLowerBound(i), v);
    ASSERT_GT(Histogram::BucketUpperBound(i), v);
  }
  // Full positive int64 range maps inside the table.
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<std::int64_t>::max()),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(-5), 0) << "negatives clamp to 0";
}

TEST(Histogram, BucketRelativeWidthStaysUnderOneEighth) {
  // The quantile error contract: every bucket above the exact range spans
  // at most 1/8 of its lower bound.
  for (int i = Histogram::kSubBuckets; i < Histogram::kNumBuckets - 1; ++i) {
    const std::int64_t lo = Histogram::BucketLowerBound(i);
    const std::int64_t width = Histogram::BucketUpperBound(i) - lo;
    EXPECT_LE(width * 8, lo) << "bucket " << i << " too wide";
  }
}

TEST(Histogram, CountSumMinMaxAndExactEndpoints) {
  Histogram h("t");
  EXPECT_EQ(h.TakeSnapshot().Quantile(0.5), 0.0) << "empty histogram";
  h.Record(12345);
  auto single = h.TakeSnapshot();
  EXPECT_EQ(single.count, 1);
  EXPECT_EQ(single.sum, 12345);
  // Single element: every quantile is that element, exactly.
  EXPECT_EQ(single.Quantile(0.0), 12345.0);
  EXPECT_EQ(single.Quantile(0.5), 12345.0);
  EXPECT_EQ(single.Quantile(1.0), 12345.0);

  h.Record(10);
  auto two = h.TakeSnapshot();
  EXPECT_EQ(two.count, 2);
  EXPECT_EQ(two.min, 10);
  EXPECT_EQ(two.max, 12345);
  // Two elements: the extremes are exact at q=0 / q=1.
  EXPECT_EQ(two.Quantile(0.0), 10.0);
  EXPECT_EQ(two.Quantile(1.0), 12345.0);
}

TEST(Histogram, ConcurrentRecordsLoseNothing) {
  Histogram h("c");
  constexpr int kThreads = 8, kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(t * 1000 + i);
    });
  }
  for (auto& t : threads) t.join();
  auto snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, static_cast<std::uint64_t>(kThreads * kPerThread));
}

// Property test (ISSUE satellite): on random data, snapshot quantiles stay
// within one bucket's relative error (<= 12.5%) of the exact sorted-vector
// result.
TEST(Histogram, QuantilesMatchExactPercentileWithinBucketError) {
  std::mt19937_64 rng(20260808);
  std::lognormal_distribution<double> latency(12.0, 1.5);  // ns-ish spread
  Histogram h("p");
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) {
    const auto v = static_cast<std::int64_t>(latency(rng));
    h.Record(v);
    xs.push_back(static_cast<double>(v));
  }
  std::sort(xs.begin(), xs.end());
  const auto snap = h.TakeSnapshot();
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double exact = xs[lo] + (pos - static_cast<double>(lo)) *
                                      (xs[hi] - xs[lo]);
    const double est = snap.Quantile(q);
    EXPECT_LE(std::abs(est - exact), 0.125 * exact + 1.0)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(Histogram, RegistryJsonIncludesHistogramsAndStaysValid) {
  auto& reg = MetricsRegistry::Global();
  auto* h = reg.Histogram("test.histogram_json_ns");
  h->Record(100);
  h->Record(200000);
  const std::string json = reg.ToJson();
  std::string error;
  EXPECT_TRUE(ValidateJsonSyntax(json, &error)) << error;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("test.histogram_json_ns"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // Same pointer on re-lookup; Reset zeroes but keeps it valid.
  EXPECT_EQ(reg.Histogram("test.histogram_json_ns"), h);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition + its line-format validator (the CI gate).
// ---------------------------------------------------------------------------

TEST(Prometheus, ExpositionValidatesAndCoversAllKinds) {
  auto& reg = MetricsRegistry::Global();
  reg.Counter("test.prom_counter")->Add(7);
  reg.Gauge("test.prom_gauge")->Set(-3);
  auto* h = reg.Histogram("test.prom_hist_ns");
  h->Record(50);
  h->Record(5000);
  const std::string text = reg.ToPrometheusText();
  std::string error;
  EXPECT_TRUE(ValidatePrometheusText(text, &error)) << error;
  // Dots sanitize to underscores with the lce_ prefix.
  EXPECT_NE(text.find("# TYPE lce_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("lce_test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lce_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lce_test_prom_hist_ns histogram"),
            std::string::npos);
  // Histogram series: cumulative buckets ending in +Inf, plus _sum/_count.
  EXPECT_NE(text.find("lce_test_prom_hist_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lce_test_prom_hist_ns_sum 5050"), std::string::npos);
  EXPECT_NE(text.find("lce_test_prom_hist_ns_count 2"), std::string::npos);
}

TEST(Prometheus, BucketSeriesAreCumulative) {
  auto& reg = MetricsRegistry::Global();
  auto* h = reg.Histogram("test.prom_cumulative_ns");
  for (int i = 0; i < 10; ++i) h->Record(10);
  for (int i = 0; i < 5; ++i) h->Record(100000);
  const std::string text = reg.ToPrometheusText();
  // The later bucket line must carry the running total, not its own count.
  EXPECT_NE(text.find("lce_test_prom_cumulative_ns_bucket{le=\"+Inf\"} 15"),
            std::string::npos);
}

TEST(Prometheus, ValidatorRejectsMalformedLines) {
  EXPECT_TRUE(ValidatePrometheusText(""));
  EXPECT_TRUE(ValidatePrometheusText("# TYPE a counter\na 1\n"));
  EXPECT_TRUE(ValidatePrometheusText("a_bucket{le=\"+Inf\"} 3\n"));
  std::string error;
  EXPECT_FALSE(ValidatePrometheusText("bad-name 1\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("name_only\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("name notanumber\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("# random comment\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("name{le=\"unterminated} 1\n", &error));
  EXPECT_FALSE(ValidatePrometheusText("name{le=\"x\"extra} 1\n", &error))
      << "garbage between label value and closing brace";
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  std::string error;
  EXPECT_TRUE(
      ValidateJsonSyntax(std::string("\"")
                             .append(JsonEscape("\x01\x1f\"\\\n"))
                             .append("\""),
                         &error))
      << error;
}

}  // namespace
}  // namespace lce::telemetry
