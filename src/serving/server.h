// Overload-safe serving core: bounded admission, deadlines, cancellation
// and one ExecutionContext per executor thread on top of one shared
// CompiledModel (docs/SERVING.md, "Overload & failure semantics").
//
// The contract under hostile traffic:
//
//   * BOUNDED QUEUE. At most `max_queue_depth` requests wait and at most
//     `max_inflight` execute; everything beyond that is shed *at submit
//     time* with Status::ResourceExhausted. Memory is therefore flat in
//     offered load: arenas scale with max_inflight (each executor holds at
//     most one context), the queue holds only request descriptors, and
//     `serving.resident_arena_bytes` stays constant at 2x arrival overload
//     (asserted by bench_serving_throughput --open-loop).
//
//   * DEADLINES PROPAGATE. A request carries a CancellationToken with its
//     deadline. Expiry in the queue completes the request with
//     kDeadlineExceeded without ever touching a context; expiry mid-model
//     is caught at per-node boundaries and at row-tile-block boundaries
//     inside the ConvPipeline engine, so a hopeless request stops burning
//     CPU within one block, not one model.
//
//   * FAILED RUNS QUARANTINE. Any non-Ok Invoke (deadline, cancel, induced
//     kernel error, scratch exhaustion) destroys the executor's context --
//     its arena is never reused -- while the server itself keeps serving;
//     recovery is a fresh context on the executor's next batch.
//
//   * BATCHING IS DYNAMIC. With `max_batch_size > 1` the admission queue
//     is owned by a BatchScheduler: executors pull *batches* (closed by
//     size or by a deadline-aware timeout, see serving/batch_scheduler.h)
//     and run them as one batch-N Invoke on a specialization of the root
//     (CompiledModel::Specialize) that shares its packed weights.
//     Requests keep single-request semantics -- fill/done see a batch-1
//     lane view of the batched tensors, and one lane's expiry or
//     cancellation evicts only that lane's result, never its batchmates'.
//
//   * RESOLUTIONS ARE BUCKETED (docs/SERVING.md, "Multi-resolution
//     serving"). The shaped Submit/Infer overloads route a request to the
//     shape bucket for its square input resolution: the root's
//     specializations {1..max_batch_size, hw, hw}, pre-built from
//     ServerOptions::input_resolutions or compiled lazily on the first
//     request for an unseen admissible resolution. Every specialization
//     lives on the root's one registry -- the server keeps no list of its
//     own. Batches never mix buckets (the scheduler keys on the lane
//     signature), an executor runs each batch on a context of exactly that
//     batch's specialization (replacing its context when the signature
//     changes) so a request can never execute against an arena planned for
//     another resolution, and packed weights stay flat however many
//     buckets are live. A resolution the model cannot serve is rejected at
//     submit time (InvalidArgument / ResourceExhausted, counted in `shed`
//     and serving.shape_rejected_total), never executed wrong.
//
// One Server owns `max_inflight` executor threads. Submit() never blocks;
// Infer() is the blocking convenience wrapper. Each executor drains the
// admission queue in FIFO order, so queue wait is measurable and fair.
#ifndef LCE_SERVING_SERVER_H_
#define LCE_SERVING_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cancellation.h"
#include "core/status.h"
#include "graph/compiled_model.h"
#include "serving/batch_scheduler.h"
#include "serving/flight_recorder.h"
#include "telemetry/metrics.h"

namespace lce::serving {

struct ServerOptions {
  // Requests waiting for an executor beyond this bound are shed with
  // ResourceExhausted at Submit() time.
  int max_queue_depth = 64;
  // Concurrent executions; also the executor-thread count. Each executor
  // holds at most one context, so arenas resident <= max_inflight,
  // independent of load.
  int max_inflight = 2;
  // Deadline budget applied to requests submitted without one. Zero
  // disables the default (requests without an explicit deadline never
  // expire).
  std::chrono::nanoseconds default_deadline{0};
  // Dynamic batching (docs/SERVING.md, "Batching semantics"). Up to
  // max_batch_size queued requests execute as one batch-N Invoke; the
  // server specializes every served resolution at each batch size in
  // [1, max_batch_size] at construction (LCE_CHECK-fails for a model that
  // cannot be batched). 1 = unbatched, the exact pre-batching behavior.
  int max_batch_size = 1;
  // How long the oldest queued request may wait for more lanes before its
  // batch closes anyway; the scheduler additionally closes early so no
  // member misses its deadline waiting (see serving/batch_scheduler.h).
  // Zero = opportunistic batching (batch whatever is queued, never wait).
  std::chrono::nanoseconds batch_timeout{0};
  // Multi-resolution serving: square input resolutions to pre-compile as
  // shape buckets at construction (each specialized at every batch size up
  // to max_batch_size). The root's own resolution is always served; square
  // resolutions already on the root's registry (CompiledModel::Specialize)
  // are picked up automatically. An inadmissible entry is a configuration
  // error, caught at construction.
  std::vector<int> input_resolutions;
  // Whether a shaped Submit for a resolution with no pre-built bucket may
  // compile one on the fly (bounded by ResourceLimits::max_shape_buckets).
  // When false, unseen resolutions are rejected with InvalidArgument --
  // the fixed-latency-budget configuration: no request ever pays a
  // compile.
  bool lazy_shape_compile = true;
  // Per-context execution options (profiling, observer).
  ExecutionOptions execution;
  // Periodic stats export (docs/OBSERVABILITY.md): every interval a
  // background thread writes StatsSnapshot().ToJson() to
  // `stats_export_path`. Zero interval (the default) starts no thread.
  std::chrono::nanoseconds stats_export_interval{0};
  std::string stats_export_path;
  // Flight recorder configuration (ring capacity, dump path, burst
  // triggers); see serving/flight_recorder.h. The ring always records;
  // bundles are dumped only when a dump path is configured (directly or
  // via LCE_FLIGHT_RECORDER).
  FlightRecorderOptions flight_recorder;
};

// One server's lifetime counters and latency distributions, read atomically
// enough for monitoring (counters are relaxed loads; the histograms are
// registry snapshots shared by every server in the process).
//
// The outcome classification is exact, not best-effort -- these invariants
// hold whenever the server is idle (no queued or in-flight requests), and
// tests enforce them:
//
//   submitted == shed + expired_in_queue + cancelled_in_queue + admitted
//   admitted  == completed_ok + deadline_exceeded + cancelled + failed
//
// `shed` counts refusals (admission queue full, shutdown, context-arena
// allocation failure); `expired_in_queue` / `cancelled_in_queue` count
// requests whose token fired before they ever touched a context (shutdown
// drains count as cancelled_in_queue; a deadline already negative at
// Submit counts as expired_in_queue); the admitted outcomes classify the
// Invoke status, with `failed` covering kernel errors *and* post-admission
// resource exhaustion (scratch allocation failure mid-model).
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t shed = 0;
  std::int64_t expired_in_queue = 0;
  std::int64_t cancelled_in_queue = 0;
  std::int64_t admitted = 0;
  std::int64_t completed_ok = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t cancelled = 0;
  std::int64_t failed = 0;
  std::int64_t quarantined = 0;  // contexts destroyed after failed runs
  // Batch-N Invokes this server ran (each covers >= 1 admitted lanes;
  // sum(batch_occupancy) over this server's batches == lanes executed).
  std::int64_t batches_executed = 0;
  // Shaped submits refused because their resolution could not be bucketed
  // (inadmissible shape, bucket cap, or lazy compile disabled). A subset of
  // `shed` -- the invariants above already cover these.
  std::int64_t shape_rejected = 0;
  // Distinct resolutions on the root's registry (root included): the
  // shape buckets this server can route to.
  int shape_buckets = 0;
  int queue_depth = 0;
  int queue_depth_peak = 0;
  std::int64_t next_request_id = 0;  // ids assigned so far + 1

  // Process-wide latency distributions (serving.queue_wait_ns,
  // serving.execute_ns, serving.e2e_ns) at snapshot time.
  telemetry::HistogramSnapshot queue_wait;
  telemetry::HistogramSnapshot execute;
  telemetry::HistogramSnapshot e2e;
  // Lanes per executed batch (serving.batch_occupancy): count equals the
  // process-wide batches_executed; mean is the achieved occupancy.
  telemetry::HistogramSnapshot batch_occupancy;

  std::string ToJson() const;
};

// Handle to one submitted request. Thread-safe; shared by the submitter
// and the executor.
class Request {
 public:
  // Requests the request's cooperative cancellation: pending requests
  // complete with kCancelled without executing; an in-flight one stops at
  // its next cancellation point.
  void Cancel() { token_.Cancel(); }

  // Blocks until the request reaches a terminal state; returns its status.
  // By value, deliberately: callers commonly write
  // `server.Submit(...)->Wait()`, and a reference into the request would
  // dangle the moment that temporary shared_ptr releases the last
  // reference. (Same rule for status() below -- no accessor on this class
  // returns a reference into request state.)
  Status Wait();

  bool done() const;
  // Terminal status; meaningful once done() (Ok until then).
  Status status() const;

  // Time spent waiting for an executor, and executing (fill + Invoke +
  // consume). Meaningful once done(); 0 for phases never entered.
  std::int64_t queue_wait_ns() const { return queue_wait_ns_; }
  std::int64_t exec_ns() const { return exec_ns_; }

  // Server-assigned id: monotonically increasing per server, starting at 1,
  // assigned at Submit. All tracer spans this request produces (queue_wait,
  // execute, invoke, per-node) carry it as their "req" argument, and its
  // RequestSummary in the flight recorder uses the same id.
  std::int64_t id() const { return id_; }

  // The request's cancellation token. This IS a reference into request
  // state (tokens are identity objects and cannot be returned by value):
  // keep a shared_ptr<Request> alive for as long as the reference is held.
  // `Submit(...)->token().Cancel()` is safe (the temporary outlives the
  // full expression); storing the reference past that is not.
  CancellationToken& token() { return token_; }

 private:
  friend class Server;

  using FillFn = std::function<void(ExecutionContext&)>;
  using DoneFn = std::function<void(const Status&, ExecutionContext*)>;

  void Complete(Status status);

  CancellationToken token_;
  FillFn fill_;
  DoneFn done_fn_;
  std::int64_t id_ = 0;
  std::uint64_t enqueue_ns_ = 0;
  std::uint64_t dequeue_ns_ = 0;
  std::int64_t queue_wait_ns_ = 0;
  std::int64_t exec_ns_ = 0;
  int queue_depth_at_admit_ = 0;
  int nodes_executed_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Status status_;
};

class Server {
 public:
  using FillFn = Request::FillFn;
  using DoneFn = Request::DoneFn;

  Server(std::shared_ptr<const CompiledModel> model, ServerOptions options);
  // Drains: pending requests complete with kCancelled("server shutting
  // down"); executors finish their current request and join.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Admission-controlled asynchronous submission; never blocks.
  //   `fill`     runs on an executor thread with the request's context,
  //              before Invoke; write the input tensors here.
  //   `done`     (optional) runs on the executor with the terminal status;
  //              the context pointer is non-null only on Ok -- read the
  //              output tensors there, before the executor moves on to
  //              its next batch.
  //   `deadline` latency budget measured from Submit; 0 (unset) applies
  //              ServerOptions::default_deadline, while a *negative*
  //              budget is already exhausted -- the request completes
  //              immediately with kDeadlineExceeded, it is NOT silently
  //              upgraded to the default.
  // The returned handle is already terminal (ResourceExhausted) when the
  // request was shed at admission.
  std::shared_ptr<Request> Submit(
      FillFn fill, DoneFn done = nullptr,
      std::chrono::nanoseconds deadline = std::chrono::nanoseconds{0});

  // Shaped submission (multi-resolution serving): routes the request to the
  // shape bucket for square resolution `input_hw`; `fill` then sees a
  // context whose input tensor is [1, input_hw, input_hw, C]. 0 means the
  // base bucket (identical to the unshaped overload). An unseen resolution
  // is compiled on first use when ServerOptions::lazy_shape_compile allows,
  // otherwise -- or when the resolution is inadmissible or the bucket cap
  // is reached -- the returned handle is already terminal with the
  // rejection status.
  std::shared_ptr<Request> Submit(
      int input_hw, FillFn fill, DoneFn done = nullptr,
      std::chrono::nanoseconds deadline = std::chrono::nanoseconds{0});

  // Blocking convenience wrapper: Submit + Wait. `consume` (optional) reads
  // the outputs on the executor thread when the request succeeds.
  Status Infer(FillFn fill, FillFn consume = nullptr,
               std::chrono::nanoseconds deadline = std::chrono::nanoseconds{0});
  // Shaped blocking wrapper; see the shaped Submit.
  Status Infer(int input_hw, FillFn fill, FillFn consume = nullptr,
               std::chrono::nanoseconds deadline = std::chrono::nanoseconds{0});

  // Requests currently waiting for an executor.
  int queue_depth() const;

  // Point-in-time view of this server's counters plus the process-wide
  // serving latency histograms. Always callable, including while requests
  // are in flight (the counters may then be mid-transition; the documented
  // invariants hold at idle).
  ServerStats StatsSnapshot() const;

  // The failure flight recorder (ring of recent request summaries; bundles
  // on anomaly). Exposed for tests and capture tools.
  FlightRecorder& flight_recorder() { return recorder_; }

 private:
  static BatchScheduler::Options SchedulerOptions(const ServerOptions& options);

  // Maps `input_hw` (0 = the root's own) to its lane signature once the
  // registry holds {1..max_batch_size, hw, hw} -- every batch size its
  // batch can close at -- compiling the missing sizes when
  // lazy_shape_compile allows. The rejection status is the submit-time
  // answer for unservable resolutions.
  Status ResolveShapeBucket(int input_hw, InputSignature* lane);

  void ExecutorLoop();
  // One closed batch on the executor's context `slot`: queue-wait
  // bookkeeping + expired-lane filtering, scatter / batch Invoke / gather,
  // per-lane outcome classification. A failed Invoke empties the slot.
  void ExecuteBatch(std::vector<BatchItem> batch,
                    std::unique_ptr<ExecutionContext>* slot);
  // Makes `slot` hold a context of `sig`'s model: the slot's own context,
  // Reset(), when it already runs that model; otherwise a new one, built
  // after the old one is destroyed so an executor never holds two arenas.
  // ResourceExhausted (slot left empty) when the new arena allocation
  // fails.
  Status PrepareContext(InputSignature sig,
                        std::unique_ptr<ExecutionContext>* slot);
  void ExporterLoop();
  // Terminal bookkeeping shared by every completion path. `dequeued` is
  // false for requests refused before entering the queue.
  void Finish(const std::shared_ptr<Request>& req, Status status,
              ExecutionContext* ctx, bool admitted);

  const ServerOptions options_;
  // The root model, whose registry holds every specialization served.
  const std::shared_ptr<const CompiledModel> root_;
  FlightRecorder recorder_;
  // Owns the admission queue; executors block in scheduler_.NextBatch().
  BatchScheduler scheduler_;

  std::vector<std::thread> executors_;

  // Stats exporter thread state (separate mutex: the exporter must never
  // contend with the admission path).
  std::mutex exporter_mu_;
  std::condition_variable exporter_cv_;
  bool exporter_stop_ = false;
  std::thread exporter_;

  // Request identity + per-server outcome counters (see ServerStats).
  std::atomic<std::int64_t> next_request_id_{1};
  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> expired_in_queue_{0};
  std::atomic<std::int64_t> cancelled_in_queue_{0};
  std::atomic<std::int64_t> admitted_{0};
  std::atomic<std::int64_t> completed_ok_{0};
  std::atomic<std::int64_t> deadline_exceeded_{0};
  std::atomic<std::int64_t> cancelled_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> quarantined_{0};
  std::atomic<std::int64_t> batches_executed_{0};
  std::atomic<std::int64_t> shape_rejected_{0};
  std::atomic<int> queue_depth_peak_{0};
};

}  // namespace lce::serving

#endif  // LCE_SERVING_SERVER_H_
