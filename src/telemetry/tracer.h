// Low-overhead scoped-span tracer with Chrome trace-event JSON export.
//
// Each thread records completed spans into its own fixed-capacity buffer
// (one release-store per span, no locks, no allocation on the hot path), so
// converter passes, model compile and Invoke, BGEMM stages and ParallelFor
// shards can all be traced -- including from pool worker threads, which show
// up as distinct track (tid) rows in chrome://tracing / Perfetto.
//
// Enabling:
//   * at runtime: Tracer::Global().Enable() -- before Convert to record
//     the converter passes (each span carries its rewrite count), before
//     Compile to record the compile phases;
//   * from the environment: LCE_TRACE=<path> enables tracing at startup and
//     writes the Chrome trace JSON to <path> at process exit (so any
//     existing binary can be traced without code changes).
//
// While disabled, an instrumented scope costs one relaxed atomic load.
// Buffer overflow never corrupts output: excess spans are dropped and
// counted in the `tracer.dropped_spans` metric.
//
// Usage:
//   void Compute(...) {
//     LCE_TRACE_SCOPE("bgemm/compute");   // span from here to end of scope
//     ...
//   }
#ifndef LCE_TELEMETRY_TRACER_H_
#define LCE_TELEMETRY_TRACER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "telemetry/clock.h"

namespace lce::telemetry {

// Span names longer than this are truncated when recorded (names are copied
// into fixed-size slots so the buffers stay allocation-free and POD).
inline constexpr std::size_t kTraceNameCapacity = 64;
inline constexpr std::size_t kTraceArgNameCapacity = 24;

struct TraceEvent {
  char name[kTraceNameCapacity];
  const char* category;  // must point at static storage (string literal)
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  char arg_name[kTraceArgNameCapacity];  // empty string = no argument
  std::int64_t arg_value = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacityPerThread = 1 << 16;

  // The process-wide tracer. Reads LCE_TRACE on first use (see above).
  static Tracer& Global();

  // Starts recording. Threads get `capacity_per_thread` event slots each on
  // their first recorded span. Idempotent; capacity applies to threads that
  // register after the call.
  void Enable(std::size_t capacity_per_thread = kDefaultCapacityPerThread);
  // Stops recording; already-recorded events remain exportable.
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records a completed span [start_ns, end_ns) (clock.h timestamps) on the
  // calling thread. No-op when disabled. `category` must have static
  // storage duration. Use this directly when the timestamps also feed
  // another consumer (per-op profiles, stage-time structs), so both views
  // share one clock read.
  void RecordComplete(const char* name, const char* category,
                      std::uint64_t start_ns, std::uint64_t end_ns) {
    RecordCompleteWithArg(name, category, start_ns, end_ns, nullptr, 0);
  }
  void RecordCompleteWithArg(const char* name, const char* category,
                             std::uint64_t start_ns, std::uint64_t end_ns,
                             const char* arg_name, std::int64_t arg_value);

  // Events recorded so far, tagged with the stable per-thread track id they
  // were recorded on. Safe to call while other threads keep recording (an
  // in-flight span is either fully visible or not yet visible).
  struct CollectedEvent {
    int tid = 0;
    TraceEvent event;
  };
  std::vector<CollectedEvent> Collect() const;

  std::size_t recorded_events() const;
  // Spans rejected because a thread's buffer was full (also mirrored in the
  // `tracer.dropped_spans` metric).
  std::uint64_t dropped_events() const;

  // Discards all recorded events and thread buffers. Must not race with
  // threads actively recording (quiesce first); intended for tests and for
  // capture tools that emit one trace per run.
  void Clear();

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps
  // relative to the first Enable), loadable in chrome://tracing and
  // https://ui.perfetto.dev.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    ThreadBuffer(int tid, std::size_t capacity) : tid(tid), events(capacity) {}
    const int tid;
    std::vector<TraceEvent> events;
    // Number of fully-written events; stored with release so a reader that
    // acquires it sees complete event payloads.
    std::atomic<std::size_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  Tracer();

  ThreadBuffer* RegisterThisThread();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<bool> enabled_{false};
  // Bumped by Clear() so threads re-register instead of touching freed
  // buffers cached in their thread-local slot.
  std::atomic<std::uint64_t> generation_{1};
  std::size_t capacity_per_thread_ = kDefaultCapacityPerThread;
  std::uint64_t epoch_ns_ = 0;  // ts origin for export; set at first Enable
  std::string env_trace_path_;  // non-empty when LCE_TRACE is set

  friend void DumpTraceAtExit();
};

// True when tracing is currently enabled. Call sites doing manual
// RecordComplete bookkeeping should branch on this so the disabled path
// stays free of clock reads.
inline bool TracingActive() { return Tracer::Global().enabled(); }

// RAII span: records [construction, destruction) on the calling thread.
// When tracing is disabled at construction time, destruction is free.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* category = "lce") {
    if (TracingActive()) {
      name_ = name;
      category_ = category;
      start_ns_ = NowNanos();
    }
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // Attaches one numeric argument emitted with the span (e.g. a converter
  // pass's rewrite count). `arg_name` must have static storage duration.
  void AddArg(const char* arg_name, std::int64_t value) {
    arg_name_ = arg_name;
    arg_value_ = value;
  }

  ~TraceScope() {
    if (name_ != nullptr) {
      Tracer::Global().RecordCompleteWithArg(name_, category_, start_ns_,
                                             NowNanos(), arg_name_,
                                             arg_value_);
    }
  }

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  const char* arg_name_ = nullptr;
  std::int64_t arg_value_ = 0;
  std::uint64_t start_ns_ = 0;
};

#define LCE_TRACE_CONCAT_INNER(a, b) a##b
#define LCE_TRACE_CONCAT(a, b) LCE_TRACE_CONCAT_INNER(a, b)

// Span covering the rest of the enclosing scope. `name` may be any
// expression convertible to const char* that stays valid until scope exit
// (string literals and node-name c_str()s both qualify).
#define LCE_TRACE_SCOPE(name)                 \
  ::lce::telemetry::TraceScope LCE_TRACE_CONCAT(lce_trace_scope_, \
                                                __LINE__)((name))
#define LCE_TRACE_SCOPE_CAT(name, category)   \
  ::lce::telemetry::TraceScope LCE_TRACE_CONCAT(lce_trace_scope_, \
                                                __LINE__)((name), (category))

}  // namespace lce::telemetry

#endif  // LCE_TELEMETRY_TRACER_H_
