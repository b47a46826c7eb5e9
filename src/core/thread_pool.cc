#include "core/thread_pool.h"

#include <algorithm>
#include <map>
#include <vector>

#include "core/macros.h"
#include "serving/fault_injection.h"
#include "telemetry/clock.h"
#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace lce {

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::shared_ptr<ThreadPool> ThreadPool::Shared(int num_threads) {
  num_threads = std::max(1, num_threads);
  // One cached pool per size, held weakly: pools die when the last model /
  // context using them does, and are recreated on demand. Leaked (not
  // destroyed at exit) so worker threads never outlive the registry.
  static std::mutex* mu = new std::mutex;
  static auto* pools = new std::map<int, std::weak_ptr<ThreadPool>>;
  std::lock_guard<std::mutex> lock(*mu);
  auto& slot = (*pools)[num_threads];
  if (auto existing = slot.lock()) return existing;
  auto pool = std::make_shared<ThreadPool>(num_threads);
  slot = pool;
  return pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task.fn();
  }
}

bool ThreadPool::RunOneTask() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task.fn();
  return true;
}

void ThreadPool::ParallelFor(
    std::int64_t count,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  ParallelForShard(count, [&fn](int /*shard*/, std::int64_t begin,
                                std::int64_t end) { fn(begin, end); });
}

void ThreadPool::ParallelForShard(
    std::int64_t count,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
  if (count <= 0) return;
  const int shards = PlannedShards(count);
  static telemetry::Metric* pf_calls =
      telemetry::MetricsRegistry::Global().Counter(
          "threadpool.parallel_for_calls");
  static telemetry::Metric* pf_shards =
      telemetry::MetricsRegistry::Global().Counter(
          "threadpool.shards_executed");
  pf_calls->Add(1);
  // Balanced split (below) never produces an empty shard, so every shard
  // counted here executes at least one index.
  pf_shards->Add(shards);
  const bool tracing = telemetry::TracingActive();
  // Per-shard wall times, only gathered while tracing. Feeds the shard
  // spans (emitted on each worker's own track) and the imbalance gauge.
  std::vector<std::uint64_t> shard_ns(tracing ? shards : 0, 0);
  // Runs one shard: fault point (stalled-worker injection), optional span,
  // then the user fn.
  const auto run_shard = [&](int s, std::int64_t begin, std::int64_t end) {
    LCE_FAULT_ON_SHARD(s);
    if (!tracing) {
      fn(s, begin, end);
      return;
    }
    const std::uint64_t s0 = telemetry::NowNanos();
    fn(s, begin, end);
    const std::uint64_t s1 = telemetry::NowNanos();
    telemetry::Tracer::Global().RecordCompleteWithArg(
        "threadpool/shard", "threadpool", s0, s1, "shard", s);
    shard_ns[s] = s1 - s0;
  };
  if (shards == 1) {
    run_shard(0, 0, count);
    return;
  }
  // Balanced split: base indices per shard, with the first `rem` shards
  // taking one extra. The previous ceil-based split could leave tail shards
  // empty (count=5, shards=4 gave loads 2,2,1,0).
  const std::int64_t base = count / shards;
  const std::int64_t rem = count % shards;
  const auto shard_begin = [base, rem](int s) {
    return s * base + std::min<std::int64_t>(s, rem);
  };
  // Per-call completion state, on the submitter's stack. `remaining` is a
  // plain counter guarded by done_mu: workers decrement it (and notify)
  // under the lock, and the submitter's final wait re-checks it under the
  // same lock, so by the time ParallelFor returns no worker can still be
  // touching this frame. done_mu also orders the shard_ns writes above.
  std::mutex done_mu;
  std::condition_variable done_cv;
  int remaining = shards - 1;
  // Enqueue shards 1..n-1; run shard 0 on the caller.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int s = 1; s < shards; ++s) {
      const std::int64_t begin = shard_begin(s);
      const std::int64_t end = shard_begin(s + 1);
      queue_.push(Task{[&, s, begin, end] {
        run_shard(s, begin, end);
        std::lock_guard<std::mutex> done_lock(done_mu);
        if (--remaining == 0) done_cv.notify_one();
      }});
    }
  }
  cv_.notify_all();
  run_shard(0, 0, shard_begin(1));
  // Help drain the queue while our shards are still pending. The popped
  // task may belong to another concurrent submitter -- tasks are
  // self-contained, so that only moves its work onto this thread instead
  // of leaving this one blocked while the queue is non-empty.
  for (;;) {
    {
      std::lock_guard<std::mutex> done_lock(done_mu);
      if (remaining == 0) break;
    }
    if (!RunOneTask()) break;
  }
  {
    std::unique_lock<std::mutex> done_lock(done_mu);
    done_cv.wait(done_lock, [&] { return remaining == 0; });
  }
  if (tracing) {
    const auto [mn, mx] = std::minmax_element(shard_ns.begin(), shard_ns.end());
    if (*mx > 0) {
      static telemetry::Metric* imbalance =
          telemetry::MetricsRegistry::Global().Gauge(
              "threadpool.shard_imbalance_pct");
      imbalance->SetMax(static_cast<std::int64_t>((*mx - *mn) * 100 / *mx));
    }
  }
}

}  // namespace lce
