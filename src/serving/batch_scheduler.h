// Deadline-aware dynamic batching between admission and execution
// (docs/SERVING.md, "Batching semantics").
//
// The scheduler owns the server's admission queue. Executors no longer pop
// one request at a time; they call NextBatch(), which blocks until a batch
// is *closed* and hands the whole batch over for one batch-N Invoke. A
// batch closes when either
//
//   * SIZE:    `max_batch_size` requests are queued (closed_full), or
//   * TIME:    the close deadline passes (closed_timeout). The close
//              deadline is the earlier of
//                - oldest.enqueue_ns + batch_timeout_ns  (bounded added
//                  latency: no request waits for lanes longer than the
//                  configured timeout), and
//                - min(deadline_i) - est_execute_ns      (SLO awareness:
//                  never hold a batch open past the point where its most
//                  urgent member could still execute and make its
//                  deadline; est_execute_ns is the serving.execute_ns p50
//                  supplied by the server).
//
// batch_timeout_ns == 0 degenerates to opportunistic batching: take
// whatever is queued right now, never wait for more. max_batch_size == 1
// reproduces the unbatched FIFO executor exactly.
//
// SIGNATURES (docs/SERVING.md, "Multi-resolution serving"). A batch is one
// batch-N Invoke of one specialization, so every lane must share its input
// resolution -- batches never mix shape buckets. Each item carries its
// lane signature (batch 1 at the request's resolution); a closing batch
// takes up to max_batch_size items matching the *head* item's signature,
// scanned in FIFO order, leaving other signatures queued in their original
// order. Close conditions (size, timeout, deadline) are evaluated over the
// head-signature members only: the head item is the oldest request in the
// queue, so head-first is deadline-honest, and a minority resolution can
// never be starved -- its oldest item eventually becomes the head. Uniform
// traffic behaves exactly as one keyless queue.
//
// The scheduler is deliberately metrics-free and knows nothing about
// contexts or models -- it moves BatchItems (request handle + timing
// metadata) and is unit-testable without a Server.
#ifndef LCE_SERVING_BATCH_SCHEDULER_H_
#define LCE_SERVING_BATCH_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/shape.h"
#include "core/status.h"

namespace lce::serving {

class Request;

// One queued request as the scheduler sees it. The request pointer is an
// opaque handle here (never dereferenced), which keeps this header free of
// a server.h include cycle; the server interprets it on the way out.
struct BatchItem {
  std::shared_ptr<Request> request;
  // Steady-clock nanoseconds (telemetry::NowNanos epoch) at enqueue.
  std::uint64_t enqueue_ns = 0;
  // Absolute steady-clock deadline of the request's token, or
  // CancellationToken::kNoDeadline (int64 max) when the request has none.
  std::int64_t deadline_ns = 0;
  // Queue depth including this item, stamped by TryEnqueue under the
  // scheduler lock *before* the item becomes visible to executors. The
  // executor copies it onto the request -- the submitter must not write
  // request state after TryEnqueue returns (the request is already shared
  // with a concurrently-running executor by then).
  int depth_at_admit = 0;
  // The lane signature (see file comment): only items with equal
  // signatures share a batch. The default everywhere is keyless batching.
  InputSignature signature;
};

class BatchScheduler {
 public:
  struct Options {
    // Enqueues beyond this bound are refused with ResourceExhausted.
    int max_queue_depth = 64;
    // A batch closes as soon as this many requests are queued.
    int max_batch_size = 1;
    // Maximum time the oldest queued request waits for more lanes before
    // the batch closes anyway. Zero = opportunistic (never wait).
    std::int64_t batch_timeout_ns = 0;
    // Estimated batch execution time, used to close early for SLO-bound
    // requests (see file comment). Null or a <=0 return disables the
    // estimate (deadline-aware close then uses the raw deadlines).
    std::function<std::int64_t()> execute_estimate_ns;
  };

  explicit BatchScheduler(Options options);

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // Admission: appends `item` in FIFO order. Fails with ResourceExhausted
  // when the queue is full, Cancelled after Shutdown(). On success,
  // `*depth_at_admit` (optional) receives the queue depth including this
  // item.
  Status TryEnqueue(BatchItem item, int* depth_at_admit = nullptr);

  // Blocks until a batch closes, then pops and returns it (oldest first,
  // at most max_batch_size items). Returns an empty vector only at
  // shutdown with a drained queue -- the executor's signal to exit.
  std::vector<BatchItem> NextBatch();

  // Marks the scheduler shut down (all later TryEnqueues fail, blocked
  // NextBatch callers wake and drain) and returns every item still queued
  // so the server can complete them as cancelled-in-queue.
  std::vector<BatchItem> Shutdown();

  // Requests currently queued / the high-water mark.
  int depth() const;
  int depth_peak() const;

  // How batches closed so far (tests assert the close reason).
  std::int64_t closed_full() const;
  std::int64_t closed_timeout() const;

 private:
  // Steady-ns instant at which the pending batch must close. Requires mu_.
  std::int64_t CloseDeadlineNs() const;

  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BatchItem> queue_;
  bool shutdown_ = false;
  int depth_peak_ = 0;
  std::int64_t closed_full_ = 0;
  std::int64_t closed_timeout_ = 0;
};

}  // namespace lce::serving

#endif  // LCE_SERVING_BATCH_SCHEDULER_H_
