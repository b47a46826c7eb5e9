// A small work-stealing-free thread pool used by the GEMM context for
// multi-threaded inference (the feature the paper notes DaBNN lacks).
//
// Design: a fixed set of worker threads executes `ParallelFor` shards. With
// num_threads == 1 everything runs inline on the caller, which keeps
// single-threaded latency measurements free of synchronization noise.
//
// Concurrency: `ParallelFor` is safe to call from any number of threads
// simultaneously on one pool -- the serving path shares a single process
// pool across all in-flight requests (see docs/SERVING.md). Each call's
// completion state lives on the submitter's stack and is reference-counted
// under a per-call mutex, so a call returns only after every one of its
// shards has fully finished (including the completion signal itself; the
// old atomic+notify scheme could touch a destroyed condition variable).
// While waiting, a submitter helps drain the shared queue, so submitters
// never sit idle while runnable shards (their own or another request's)
// are queued.
#ifndef LCE_CORE_THREAD_POOL_H_
#define LCE_CORE_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lce {

class ThreadPool {
 public:
  // Creates a pool with `num_threads` total workers. One of them is the
  // calling thread, so `num_threads - 1` std::threads are spawned.
  explicit ThreadPool(int num_threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-shared pool of the given size: repeated calls with the same
  // `num_threads` return the same instance while anyone still holds it.
  // This is what lets N concurrent ExecutionContexts share one set of
  // worker threads instead of spawning a pool per request.
  static std::shared_ptr<ThreadPool> Shared(int num_threads);

  int num_threads() const { return num_threads_; }

  // Runs fn(i) for i in [0, count), sharded across the pool. Blocks until
  // all shards are done. fn must be safe to call concurrently. Shards are
  // balanced: every shard gets count/num_shards indices, +1 for the first
  // count%num_shards shards, so no shard is ever empty.
  void ParallelFor(std::int64_t count,
                   const std::function<void(std::int64_t, std::int64_t)>& fn);

  // Number of shards ParallelFor/ParallelForShard will split `count` indices
  // into. Lets callers pre-allocate shard-local scratch before submitting.
  int PlannedShards(std::int64_t count) const {
    return static_cast<int>(
        std::min<std::int64_t>(num_threads_, std::max<std::int64_t>(count, 0)));
  }

  // ParallelFor variant passing the shard index: fn(shard, begin, end) with
  // shard in [0, PlannedShards(count)). Each shard index is used by exactly
  // one concurrent call of fn, so fn may own mutable per-shard state (e.g. a
  // scratch slice) indexed by it -- the fused BConv2D pipeline keeps one
  // A-panel and one accumulator tile per shard this way.
  void ParallelForShard(
      std::int64_t count,
      const std::function<void(int, std::int64_t, std::int64_t)>& fn);

 private:
  void WorkerLoop();
  // Pops and runs one queued task. Returns false if the queue was empty.
  bool RunOneTask();

  struct Task {
    std::function<void()> fn;
  };

  int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<Task> queue_;
  bool shutdown_ = false;
};

}  // namespace lce

#endif  // LCE_CORE_THREAD_POOL_H_
