#include "serving/server.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "core/macros.h"
#include "telemetry/clock.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce::serving {
namespace {

telemetry::Metric* Counter(const char* name) {
  return telemetry::MetricsRegistry::Global().Counter(name);
}

telemetry::Metric* SubmittedTotal() {
  static telemetry::Metric* m = Counter("serving.submitted_total");
  return m;
}
telemetry::Metric* ShedTotal() {
  static telemetry::Metric* m = Counter("serving.shed_total");
  return m;
}
telemetry::Metric* AdmittedTotal() {
  static telemetry::Metric* m = Counter("serving.admitted_total");
  return m;
}
telemetry::Metric* CompletedOkTotal() {
  static telemetry::Metric* m = Counter("serving.completed_ok_total");
  return m;
}
telemetry::Metric* ExpiredInQueueTotal() {
  static telemetry::Metric* m = Counter("serving.expired_in_queue_total");
  return m;
}
telemetry::Metric* DeadlineExceededTotal() {
  static telemetry::Metric* m = Counter("serving.deadline_exceeded_total");
  return m;
}
telemetry::Metric* CancelledTotal() {
  static telemetry::Metric* m = Counter("serving.cancelled_total");
  return m;
}
telemetry::Metric* FailedTotal() {
  static telemetry::Metric* m = Counter("serving.failed_total");
  return m;
}
telemetry::Metric* StatsExportsTotal() {
  static telemetry::Metric* m = Counter("serving.stats_exports_total");
  return m;
}
telemetry::Metric* BatchesExecutedTotal() {
  static telemetry::Metric* m = Counter("serving.batches_executed_total");
  return m;
}
// Shaped submits refused because their resolution could not be bucketed
// (inadmissible, over the bucket cap, or lazy compile disabled).
telemetry::Metric* ShapeRejectedTotal() {
  static telemetry::Metric* m = Counter("serving.shape_rejected_total");
  return m;
}
// Executor context churn, under the serving.pool.* names dashboards and
// bench/e2e read. Every batch that gets a context counts one reused (the
// executor's context already ran its signature) or one created; evicted
// counts idle contexts of another signature destroyed to make way for a
// created one, quarantined the contexts destroyed after a failed run.
telemetry::Metric* PoolReusedTotal() {
  static telemetry::Metric* m = Counter("serving.pool.reused_total");
  return m;
}
telemetry::Metric* PoolCreatedTotal() {
  static telemetry::Metric* m = Counter("serving.pool.created_total");
  return m;
}
telemetry::Metric* PoolEvictedTotal() {
  static telemetry::Metric* m = Counter("serving.pool.evicted_total");
  return m;
}
telemetry::Metric* PoolQuarantinedTotal() {
  static telemetry::Metric* m = Counter("serving.pool.quarantined_total");
  return m;
}
telemetry::Metric* QueueDepth() {
  static telemetry::Metric* m =
      telemetry::MetricsRegistry::Global().Gauge("serving.queue_depth");
  return m;
}
telemetry::Metric* QueueDepthPeak() {
  static telemetry::Metric* m =
      telemetry::MetricsRegistry::Global().Gauge("serving.queue_depth_peak");
  return m;
}

// The serving latency distributions (docs/OBSERVABILITY.md). Process-wide,
// like every registry metric: servers in one process share them, and tests
// reconcile count *deltas* against per-server counters.
//   queue_wait -- enqueue to executor pickup, recorded for every dequeued
//                 request (including ones that then expire or are shed);
//   execute    -- fill + Invoke, recorded iff the request was admitted;
//   e2e        -- enqueue to terminal state, recorded iff admitted, so its
//                 count always equals execute's and the admitted counter.
telemetry::Histogram* QueueWaitHist() {
  static telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().Histogram("serving.queue_wait_ns");
  return h;
}
telemetry::Histogram* ExecuteHist() {
  static telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().Histogram("serving.execute_ns");
  return h;
}
telemetry::Histogram* E2eHist() {
  static telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().Histogram("serving.e2e_ns");
  return h;
}
// Lanes per executed batch. Recorded once per batch Invoke, so its count
// tracks serving.batches_executed_total and its mean is the achieved
// occupancy (1.0 == batching never found a batchmate).
telemetry::Histogram* BatchOccupancyHist() {
  static telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().Histogram("serving.batch_occupancy");
  return h;
}
// Per-bucket occupancy: lanes per executed batch, split by the bucket the
// batch ran in, so mixed-resolution traffic shows which resolutions batch
// well ("serving.bucket.224.occupancy", "serving.bucket.16x24.occupancy"
// for a non-square root). Registry-owned, looked up by name per batch (a
// map lookup; batches amortize it over their lanes).
telemetry::Histogram* BucketOccupancyHist(InputSignature lane) {
  std::string bucket = std::to_string(lane.h);
  if (lane.w != lane.h) bucket += "x" + std::to_string(lane.w);
  return telemetry::MetricsRegistry::Global().Histogram(
      "serving.bucket." + bucket + ".occupancy");
}

}  // namespace

std::string ServerStats::ToJson() const {
  std::string out = "{\n";
  out += "  \"submitted\": " + std::to_string(submitted) + ",\n";
  out += "  \"shed\": " + std::to_string(shed) + ",\n";
  out += "  \"expired_in_queue\": " + std::to_string(expired_in_queue) + ",\n";
  out +=
      "  \"cancelled_in_queue\": " + std::to_string(cancelled_in_queue) + ",\n";
  out += "  \"admitted\": " + std::to_string(admitted) + ",\n";
  out += "  \"completed_ok\": " + std::to_string(completed_ok) + ",\n";
  out += "  \"deadline_exceeded\": " + std::to_string(deadline_exceeded) +
         ",\n";
  out += "  \"cancelled\": " + std::to_string(cancelled) + ",\n";
  out += "  \"failed\": " + std::to_string(failed) + ",\n";
  out += "  \"quarantined\": " + std::to_string(quarantined) + ",\n";
  out += "  \"batches_executed\": " + std::to_string(batches_executed) + ",\n";
  out += "  \"shape_rejected\": " + std::to_string(shape_rejected) + ",\n";
  out += "  \"shape_buckets\": " + std::to_string(shape_buckets) + ",\n";
  out += "  \"queue_depth\": " + std::to_string(queue_depth) + ",\n";
  out += "  \"queue_depth_peak\": " + std::to_string(queue_depth_peak) + ",\n";
  out += "  \"next_request_id\": " + std::to_string(next_request_id) + ",\n";
  out += "  \"queue_wait_ns\": " + queue_wait.ToJson() + ",\n";
  out += "  \"execute_ns\": " + execute.ToJson() + ",\n";
  out += "  \"e2e_ns\": " + e2e.ToJson() + ",\n";
  out += "  \"batch_occupancy\": " + batch_occupancy.ToJson() + "\n";
  out += "}\n";
  return out;
}

Status Request::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return status_;
}

bool Request::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

Status Request::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

void Request::Complete(Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return;
    status_ = std::move(status);
    done_ = true;
  }
  cv_.notify_all();
}

BatchScheduler::Options Server::SchedulerOptions(const ServerOptions& options) {
  BatchScheduler::Options o;
  o.max_queue_depth = options.max_queue_depth;
  o.max_batch_size = std::max(1, options.max_batch_size);
  o.batch_timeout_ns = options.batch_timeout.count();
  // Execution-time estimate for deadline-aware batch closing: the live
  // serving.execute_ns p50. Empty histogram (cold server) => 0, i.e. the
  // scheduler assumes instant execution until real samples arrive.
  o.execute_estimate_ns = []() -> std::int64_t {
    const telemetry::HistogramSnapshot s = ExecuteHist()->TakeSnapshot();
    return s.count == 0 ? 0 : static_cast<std::int64_t>(s.p50());
  };
  return o;
}

Server::Server(std::shared_ptr<const CompiledModel> model,
               ServerOptions options)
    : options_(std::move(options)),
      root_(std::move(model)),
      recorder_(options_.flight_recorder),
      scheduler_(SchedulerOptions(options_)) {
  LCE_CHECK_GT(options_.max_queue_depth, 0);
  LCE_CHECK_GE(options_.max_batch_size, 1);
  // The start-up set, written into the root's registry: the root's own
  // resolution (0), the square entries already registered and the
  // configured resolutions, each at every batch size a batch can close at.
  // Compilation is geometry-only (packed weights are shared, the
  // resident-weights gauge does not move); an inadmissible resolution or a
  // model whose outputs cannot carry a batch dimension is a configuration
  // error, caught here at startup.
  std::vector<int> resolutions = root_->ShapeBucketResolutions();
  resolutions.push_back(0);
  resolutions.insert(resolutions.end(), options_.input_resolutions.begin(),
                     options_.input_resolutions.end());
  for (const int hw : resolutions) {
    for (int n = 1; n <= options_.max_batch_size; ++n) {
      const InputSignature sig{n, hw, hw};
      std::shared_ptr<const CompiledModel> unused;
      const Status st = CompiledModel::Specialize(root_, sig, &unused);
      if (!st.ok()) {
        std::fprintf(stderr, "[lce] specialization %s failed: %s\n",
                     sig.ToString().c_str(), st.message().c_str());
        LCE_CHECK(st.ok() &&
                  "ServerOptions requires admissible input_resolutions and, "
                  "for max_batch_size > 1, a batchable model");
      }
    }
  }
  const int executors = std::max(1, options_.max_inflight);
  executors_.reserve(executors);
  for (int i = 0; i < executors; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  if (options_.stats_export_interval.count() > 0 &&
      !options_.stats_export_path.empty()) {
    exporter_ = std::thread([this] { ExporterLoop(); });
  }
}

Server::~Server() {
  const std::vector<BatchItem> drained = scheduler_.Shutdown();
  QueueDepth()->Set(0);
  for (const auto& item : drained) {
    // Drained requests were enqueued but never reached an executor. The
    // scheduler is shut down, so this thread is the sole owner now.
    item.request->queue_depth_at_admit_ = item.depth_at_admit;
    cancelled_in_queue_.fetch_add(1, std::memory_order_relaxed);
    Finish(item.request, Status::Cancelled("server shutting down"), nullptr,
           /*admitted=*/false);
  }
  for (auto& t : executors_) t.join();
  if (exporter_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(exporter_mu_);
      exporter_stop_ = true;
    }
    exporter_cv_.notify_all();
    exporter_.join();
  }
}

std::shared_ptr<Request> Server::Submit(FillFn fill, DoneFn done,
                                        std::chrono::nanoseconds deadline) {
  return Submit(0, std::move(fill), std::move(done), deadline);
}

Status Server::ResolveShapeBucket(int input_hw, InputSignature* lane) {
  // The one routing rule: a request is enqueued only when every batch size
  // its batch can close at is on the registry. With lazy_shape_compile the
  // missing sizes are compiled here -- the first request for an unseen
  // resolution pays that one-time cost (O(IR), no weight packing; the
  // registry compiles each signature once under concurrent first requests).
  for (int n = 1; n <= options_.max_batch_size; ++n) {
    std::shared_ptr<const CompiledModel> model;
    const InputSignature sig{n, input_hw, input_hw};
    LCE_RETURN_IF_ERROR(options_.lazy_shape_compile
                            ? CompiledModel::Specialize(root_, sig, &model)
                            : CompiledModel::Lookup(root_, sig, &model));
    if (n == 1) *lane = model->signature();
  }
  return Status::Ok();
}

std::shared_ptr<Request> Server::Submit(int input_hw, FillFn fill, DoneFn done,
                                        std::chrono::nanoseconds deadline) {
  auto req = std::make_shared<Request>();
  req->fill_ = std::move(fill);
  req->done_fn_ = std::move(done);
  req->id_ = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  req->enqueue_ns_ = telemetry::NowNanos();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  SubmittedTotal()->Add(1);

  // Zero means "unset, apply the server default"; a *negative* budget is a
  // deadline that already passed on the caller's side. Upgrading it to the
  // default would grant an expired request a fresh budget, so it completes
  // here -- before touching the queue -- as expired_in_queue.
  if (deadline.count() < 0) {
    expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
    ExpiredInQueueTotal()->Add(1);
    Finish(req,
           Status::DeadlineExceeded("deadline exhausted before submit"),
           nullptr, /*admitted=*/false);
    return req;
  }
  const auto budget =
      deadline.count() > 0 ? deadline : options_.default_deadline;
  if (budget.count() > 0) req->token_.set_deadline_after(budget);

  // Shape routing before admission: a resolution the server cannot bucket
  // is refused here -- synchronously, like any other shed -- so nothing
  // unservable ever occupies a queue slot. On the lazy path this is also
  // where a first-seen resolution pays its one-time bucket compile.
  InputSignature lane;
  {
    const Status shape_st = ResolveShapeBucket(input_hw, &lane);
    if (!shape_st.ok()) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      shape_rejected_.fetch_add(1, std::memory_order_relaxed);
      ShapeRejectedTotal()->Add(1);
      recorder_.OnShed(req->id_);
      Finish(req, shape_st, nullptr, /*admitted=*/false);
      return req;
    }
  }

  // Admission control: the queue is the only elastic state in the server,
  // and it is bounded (the scheduler refuses beyond max_queue_depth).
  // Shedding here -- synchronously, before any allocation -- is what keeps
  // memory and tail latency flat when arrivals outrun capacity.
  BatchItem item;
  item.request = req;
  item.enqueue_ns = req->enqueue_ns_;
  item.deadline_ns = req->token_.deadline_ns();
  item.signature = lane;  // batches never mix shape buckets
  // TryEnqueue PUBLISHES the request: the instant it returns, an executor
  // may already be running (or finishing) this request on another thread,
  // so no request state may be written here-after. The depth at admit
  // rides on the BatchItem (stamped under the scheduler lock) and the
  // executor copies it onto the request; this thread only updates gauges.
  int depth = 0;
  const Status st = scheduler_.TryEnqueue(std::move(item), &depth);
  if (st.ok()) {
    QueueDepth()->Set(depth);
    QueueDepthPeak()->SetMax(depth);
    int peak = queue_depth_peak_.load(std::memory_order_relaxed);
    while (peak < depth &&
           !queue_depth_peak_.compare_exchange_weak(
               peak, depth, std::memory_order_relaxed)) {
    }
    return req;
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  if (st.code() == StatusCode::kResourceExhausted) {
    // Queue full; shutdown refusals (kCancelled) count in shed_ but not in
    // ShedTotal, matching the pre-scheduler behavior.
    ShedTotal()->Add(1);
    recorder_.OnShed(req->id_);
  }
  Finish(req, st, nullptr, /*admitted=*/false);
  return req;
}

Status Server::Infer(FillFn fill, FillFn consume,
                     std::chrono::nanoseconds deadline) {
  return Infer(0, std::move(fill), std::move(consume), deadline);
}

Status Server::Infer(int input_hw, FillFn fill, FillFn consume,
                     std::chrono::nanoseconds deadline) {
  DoneFn done;
  if (consume) {
    done = [consume = std::move(consume)](const Status& s,
                                          ExecutionContext* ctx) {
      if (s.ok() && ctx != nullptr) consume(*ctx);
    };
  }
  return Submit(input_hw, std::move(fill), std::move(done), deadline)->Wait();
}

int Server::queue_depth() const { return scheduler_.depth(); }

ServerStats Server::StatsSnapshot() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  s.cancelled_in_queue = cancelled_in_queue_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.batches_executed = batches_executed_.load(std::memory_order_relaxed);
  s.shape_rejected = shape_rejected_.load(std::memory_order_relaxed);
  s.shape_buckets = root_->shape_bucket_count();
  s.queue_depth = queue_depth();
  s.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  s.next_request_id = next_request_id_.load(std::memory_order_relaxed);
  s.queue_wait = QueueWaitHist()->TakeSnapshot();
  s.execute = ExecuteHist()->TakeSnapshot();
  s.e2e = E2eHist()->TakeSnapshot();
  s.batch_occupancy = BatchOccupancyHist()->TakeSnapshot();
  return s;
}

void Server::ExecutorLoop() {
  // This executor's one context, kept while consecutive batches share a
  // signature and destroyed when the thread exits.
  std::unique_ptr<ExecutionContext> ctx;
  for (;;) {
    std::vector<BatchItem> batch = scheduler_.NextBatch();
    if (batch.empty()) return;  // shutdown with a drained queue
    QueueDepth()->Set(scheduler_.depth());
    ExecuteBatch(std::move(batch), &ctx);
  }
}

Status Server::PrepareContext(InputSignature sig,
                              std::unique_ptr<ExecutionContext>* slot) {
  // Executors never compile: Submit put every batch size of the bucket on
  // the registry before enqueueing, and a miss is an error, never a
  // context planned for another signature.
  std::shared_ptr<const CompiledModel> model;
  LCE_RETURN_IF_ERROR(CompiledModel::Lookup(root_, sig, &model));
  if (*slot != nullptr && &(*slot)->model() == model.get()) {
    // Zeroed arena + cleared profile: the reused context serves the batch
    // bit-identically to a fresh one.
    (*slot)->Reset();
    PoolReusedTotal()->Add(1);
    return Status::Ok();
  }
  if (*slot != nullptr) {
    slot->reset();
    PoolEvictedTotal()->Add(1);
  }
  auto ctx = std::make_unique<ExecutionContext>(std::move(model),
                                                options_.execution);
  if (!ctx->allocation_ok()) {
    return Status::ResourceExhausted(
        "execution context arena allocation failed");
  }
  PoolCreatedTotal()->Add(1);
  *slot = std::move(ctx);
  return Status::Ok();
}

void Server::ExecuteBatch(std::vector<BatchItem> batch,
                          std::unique_ptr<ExecutionContext>* slot) {
  const std::uint64_t dequeue_ns = telemetry::NowNanos();
  // The scheduler only closes same-signature batches, so the head item's
  // lane signature is every lane's.
  const InputSignature lane = batch.front().signature;
  // Per-lane queue-wait bookkeeping, then the expired-in-queue filter: a
  // lane whose token fired while queued is completed without ever touching
  // a context, and -- the batching contract -- its eviction shrinks the
  // batch instead of aborting its batchmates.
  std::vector<std::shared_ptr<Request>> lanes;
  lanes.reserve(batch.size());
  for (BatchItem& item : batch) {
    const std::shared_ptr<Request>& req = item.request;
    req->queue_depth_at_admit_ = item.depth_at_admit;
    req->dequeue_ns_ = dequeue_ns;
    req->queue_wait_ns_ =
        static_cast<std::int64_t>(dequeue_ns - req->enqueue_ns_);
    QueueWaitHist()->Record(req->queue_wait_ns_);
    if (telemetry::TracingActive()) {
      telemetry::Tracer::Global().RecordCompleteWithArg(
          "serving/queue_wait", "serving", req->enqueue_ns_, dequeue_ns, "req",
          req->id_);
    }
    if (req->token_.Expired()) {
      const Status st = req->token_.status();
      if (st.code() == StatusCode::kCancelled) {
        cancelled_in_queue_.fetch_add(1, std::memory_order_relaxed);
      } else {
        expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      }
      ExpiredInQueueTotal()->Add(1);
      Finish(req, st, nullptr, /*admitted=*/false);
      continue;
    }
    lanes.push_back(req);
  }
  if (lanes.empty()) return;
  const int n = static_cast<int>(lanes.size());

  Status st = PrepareContext({n, lane.h, lane.w}, slot);
  if (!st.ok()) {
    // Submit registered the signature, so this only fires when a new
    // context's arena allocation failed: shed the batch; the executor's
    // next batch retries the allocation.
    for (const auto& req : lanes) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      ShedTotal()->Add(1);
      recorder_.OnShed(req->id_);
      Finish(req, st, nullptr, /*admitted=*/false);
    }
    return;
  }
  ExecutionContext* ctx = slot->get();
  admitted_.fetch_add(n, std::memory_order_relaxed);
  AdmittedTotal()->Add(n);
  // The context carries a request id for the duration of the run so
  // Invoke's spans (invoke + per-node) join the serving spans in the
  // trace; for a multi-lane batch the first lane's id stands for the
  // batch. Cleared once the run ends.
  ctx->set_request_id(lanes.front()->id_);

  // The batch Invoke runs under one token. A single-lane batch uses the
  // request's own token (exactly the unbatched behavior: cancellation and
  // deadline abort mid-model). A multi-lane batch must not let one lane's
  // trigger abort its batchmates, so it gets a batch token whose deadline
  // is the *latest* lane deadline -- and only if every lane has one
  // (otherwise an unbounded lane keeps the batch unbounded). Lanes whose
  // own deadline fires mid-run are evicted individually after Invoke.
  CancellationToken batch_token;
  if (n > 1) {
    std::int64_t max_deadline = 0;
    bool all_deadlines = true;
    for (const auto& req : lanes) {
      if (!req->token_.has_deadline()) {
        all_deadlines = false;
        break;
      }
      max_deadline = std::max(max_deadline, req->token_.deadline_ns());
    }
    if (all_deadlines) {
      batch_token.set_deadline(CancellationToken::Clock::time_point(
          std::chrono::duration_cast<CancellationToken::Clock::duration>(
              std::chrono::nanoseconds(max_deadline))));
    }
  }
  CancellationToken* invoke_token =
      n == 1 ? &lanes.front()->token_ : &batch_token;

  // Scatter: each lane's fill sees a batch-1 view of the batched input
  // (lane i of dim 0), so request callbacks are identical for batched and
  // unbatched serving.
  const std::uint64_t exec0 = telemetry::NowNanos();
  for (int i = 0; i < n; ++i) {
    ctx->set_io_lane(i);
    lanes[static_cast<std::size_t>(i)]->fill_(*ctx);
  }
  ctx->clear_io_lane();
  st = ctx->Invoke(invoke_token);
  const std::uint64_t exec1 = telemetry::NowNanos();
  const auto exec_ns = static_cast<std::int64_t>(exec1 - exec0);
  const int nodes_executed = ctx->nodes_executed();
  ctx->set_request_id(0);

  batches_executed_.fetch_add(1, std::memory_order_relaxed);
  BatchesExecutedTotal()->Add(1);
  BatchOccupancyHist()->Record(n);
  BucketOccupancyHist(lane)->Record(n);

  // Gather + per-lane outcome classification. Execute time and the e2e
  // latency are recorded per admitted lane (their histogram counts stay
  // equal to the admitted counter, batched or not); a lane whose own token
  // fired during the run is evicted with its token's status and never sees
  // the batch output, everyone else gets the batch status -- with a lane
  // view of the outputs on Ok.
  for (int i = 0; i < n; ++i) {
    const std::shared_ptr<Request>& req = lanes[static_cast<std::size_t>(i)];
    req->exec_ns_ = exec_ns;
    req->nodes_executed_ = nodes_executed;
    ExecuteHist()->Record(exec_ns);
    if (telemetry::TracingActive()) {
      telemetry::Tracer::Global().RecordCompleteWithArg(
          "serving/execute", "serving", exec0, exec1, "req", req->id_);
    }
    Status lane_st = req->token_.Expired() ? req->token_.status() : st;
    if (lane_st.ok()) {
      // done callback (output reads) runs before the executor moves on,
      // against this lane's output slice.
      ctx->set_io_lane(i);
      Finish(req, std::move(lane_st), ctx, /*admitted=*/true);
    } else {
      Finish(req, std::move(lane_st), nullptr, /*admitted=*/true);
    }
  }
  ctx->clear_io_lane();
  // Quarantine classifies the *context*, so it follows the batch Invoke
  // status: an Ok run with an individually-expired lane still produced a
  // clean arena and the context stays in the slot; a failed run poisons
  // the arena (and possibly the gemm scratch) for every lane and the
  // context is destroyed.
  if (st.ok()) return;
  slot->reset();
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  PoolQuarantinedTotal()->Add(1);
  // Quarantine is the flight recorder's always-on trigger: an arena was
  // just poisoned and destroyed, and the evidence of how is still in the
  // ring and the trace buffers.
  recorder_.OnQuarantine(lanes.front()->id_);
}

void Server::ExporterLoop() {
  std::unique_lock<std::mutex> lock(exporter_mu_);
  for (;;) {
    const bool stopping = exporter_cv_.wait_for(
        lock, options_.stats_export_interval, [this] { return exporter_stop_; });
    lock.unlock();
    // Export on every tick and once more on shutdown, so even a
    // shorter-lived server leaves a final snapshot behind.
    const std::string json = StatsSnapshot().ToJson();
    std::FILE* f = std::fopen(options_.stats_export_path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      StatsExportsTotal()->Add(1);
    } else {
      std::fprintf(stderr, "[lce] stats export failed: cannot open '%s'\n",
                   options_.stats_export_path.c_str());
    }
    lock.lock();
    if (stopping) return;
  }
}

void Server::Finish(const std::shared_ptr<Request>& req, Status status,
                    ExecutionContext* ctx, bool admitted) {
  if (req->done_fn_) req->done_fn_(status, ctx);
  if (admitted) {
    // Outcome classification for requests that ran (or started to): the
    // per-server invariant `admitted == completed_ok + deadline_exceeded +
    // cancelled + failed` needs every admitted request in exactly one
    // bucket, so unlike the process-global counters, post-admission
    // resource exhaustion (scratch allocation failure mid-model) lands in
    // `failed` here.
    switch (status.code()) {
      case StatusCode::kOk:
        completed_ok_.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kDeadlineExceeded:
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kCancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  switch (status.code()) {
    case StatusCode::kOk:
      CompletedOkTotal()->Add(1);
      break;
    case StatusCode::kDeadlineExceeded:
      DeadlineExceededTotal()->Add(1);
      break;
    case StatusCode::kCancelled:
      CancelledTotal()->Add(1);
      break;
    case StatusCode::kResourceExhausted:
      // ShedTotal is counted at the shed site (admission or executor) so the
      // counter means "requests the server refused", not "requests that
      // failed with this code".
      break;
    default:
      FailedTotal()->Add(1);
      break;
  }
  const std::uint64_t finish_ns = telemetry::NowNanos();
  if (admitted) {
    E2eHist()->Record(static_cast<std::int64_t>(finish_ns - req->enqueue_ns_));
  }
  RequestSummary summary;
  summary.request_id = req->id_;
  summary.outcome = status.code();
  summary.enqueue_ns = req->enqueue_ns_;
  summary.dequeue_ns = req->dequeue_ns_;
  summary.finish_ns = finish_ns;
  summary.queue_depth_at_admit = req->queue_depth_at_admit_;
  summary.nodes_executed = req->nodes_executed_;
  recorder_.RecordRequest(summary);
  req->Complete(std::move(status));
}

}  // namespace lce::serving
