#include "serving/batch_scheduler.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "core/cancellation.h"
#include "core/macros.h"
#include "telemetry/clock.h"

namespace lce::serving {

BatchScheduler::BatchScheduler(Options options)
    : options_(std::move(options)) {
  LCE_CHECK_GT(options_.max_queue_depth, 0);
  LCE_CHECK_GE(options_.max_batch_size, 1);
  LCE_CHECK_GE(options_.batch_timeout_ns, 0);
}

Status BatchScheduler::TryEnqueue(BatchItem item, int* depth_at_admit) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::Cancelled("server shutting down");
    }
    if (static_cast<int>(queue_.size()) >= options_.max_queue_depth) {
      return Status::ResourceExhausted(
          "admission queue full (max_queue_depth=" +
          std::to_string(options_.max_queue_depth) + ")");
    }
    const int depth = static_cast<int>(queue_.size()) + 1;
    item.depth_at_admit = depth;  // before publication -- see BatchItem
    queue_.push_back(std::move(item));
    depth_peak_ = std::max(depth_peak_, depth);
    if (depth_at_admit != nullptr) *depth_at_admit = depth;
  }
  // Wakes one executor: either an idle one (which may pop immediately if
  // the batch is now closed) or one holding a timed wait on a partial
  // batch (which re-evaluates the close condition with this arrival).
  cv_.notify_one();
  return Status::Ok();
}

std::int64_t BatchScheduler::CloseDeadlineNs() const {
  // Timeout close: the oldest member bounds how long the batch stays open.
  // A zero timeout makes this instant `enqueue_ns` itself, i.e. "close
  // with whatever is here" -- opportunistic batching. The head item always
  // belongs to the closing batch (batches form around the head's
  // signature), so its enqueue time is the right timeout anchor.
  std::int64_t close =
      static_cast<std::int64_t>(queue_.front().enqueue_ns) +
      options_.batch_timeout_ns;
  // Deadline-aware close: don't hold any *member of this batch* past the
  // last instant it could still start executing and make its deadline.
  // Only the first max_batch_size head-signature items can be in the
  // closing batch; items under other signatures wait for a later batch and
  // do not tighten this one's close.
  std::int64_t est = 0;
  if (options_.execute_estimate_ns) {
    est = std::max<std::int64_t>(0, options_.execute_estimate_ns());
  }
  const InputSignature head = queue_.front().signature;
  int members = 0;
  for (const BatchItem& item : queue_) {
    if (item.signature != head) continue;
    if (members++ >= options_.max_batch_size) break;
    if (item.deadline_ns == CancellationToken::kNoDeadline) continue;
    close = std::min(close, item.deadline_ns - est);
  }
  return close;
}

std::vector<BatchItem> BatchScheduler::NextBatch() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    // Shutdown() drains the queue under the lock, so shutdown implies an
    // empty queue here; empty + awake means "exit".
    if (queue_.empty()) return {};
    // The batch forms around the head item's signature: count its
    // compatible members across the whole queue (only same-signature items
    // can share the batch-N Invoke).
    const InputSignature head = queue_.front().signature;
    int matching = 0;
    for (const BatchItem& item : queue_) {
      if (item.signature == head) ++matching;
    }
    const bool full = matching >= options_.max_batch_size;
    std::int64_t close = 0;
    if (!full) {
      close = CloseDeadlineNs();
      const auto now = static_cast<std::int64_t>(telemetry::NowNanos());
      if (now < close) {
        // Hold the batch open for more lanes, but never past `close`.
        // Arrivals and Shutdown() notify; a timeout simply re-evaluates.
        cv_.wait_for(lock, std::chrono::nanoseconds(close - now));
        continue;
      }
    }
    if (full) {
      ++closed_full_;
    } else {
      ++closed_timeout_;
    }
    const std::size_t n = static_cast<std::size_t>(
        std::min<int>(matching, options_.max_batch_size));
    std::vector<BatchItem> batch;
    batch.reserve(n);
    // Pop the head-signature members in FIFO order; items under other
    // signatures keep their queue positions (and their FIFO order) for
    // later batches.
    for (auto it = queue_.begin(); it != queue_.end() && batch.size() < n;) {
      if (it->signature == head) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    return batch;
  }
}

std::vector<BatchItem> BatchScheduler::Shutdown() {
  std::vector<BatchItem> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    drained.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
    queue_.clear();
  }
  cv_.notify_all();
  return drained;
}

int BatchScheduler::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

int BatchScheduler::depth_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_peak_;
}

std::int64_t BatchScheduler::closed_full() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_full_;
}

std::int64_t BatchScheduler::closed_timeout() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_timeout_;
}

}  // namespace lce::serving
