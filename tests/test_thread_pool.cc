// ThreadPool tests: full index coverage, inline single-thread execution,
// concurrent-safety of sharded writes, the balanced shard split, and
// concurrent submitters sharing one pool (the serving configuration).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "telemetry/metrics.h"

namespace lce {
namespace {

class ThreadPoolCoverage : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolCoverage, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(GetParam());
  const std::int64_t count = 1000;
  std::vector<std::atomic<int>> hits(count);
  pool.ParallelFor(count, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadPoolCoverage,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, CountSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialCallsReusePool) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(100, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
  }
  EXPECT_EQ(sum.load(), 20 * (99 * 100 / 2));
}

TEST(ThreadPool, BalancedSplitLeavesNoShardEmpty) {
  // Regression: the old ceil-based split gave count=5, shards=4 the loads
  // 2,2,1,0 -- a silently idle shard that was still counted as executed.
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> shards;
  telemetry::Metric* executed =
      telemetry::MetricsRegistry::Global().Counter("threadpool.shards_executed");
  const std::int64_t executed_before = executed->value();
  pool.ParallelFor(5, [&](std::int64_t begin, std::int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    shards.emplace_back(begin, end);
  });
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(executed->value() - executed_before, 4)
      << "shards_executed must count only non-empty shards";
  std::sort(shards.begin(), shards.end());
  std::int64_t expect_begin = 0;
  std::int64_t min_load = 5, max_load = 0;
  for (const auto& [begin, end] : shards) {
    EXPECT_EQ(begin, expect_begin) << "shards must tile [0, count)";
    EXPECT_LT(begin, end) << "no shard may be empty";
    min_load = std::min(min_load, end - begin);
    max_load = std::max(max_load, end - begin);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 5);
  EXPECT_LE(max_load - min_load, 1) << "split must be balanced";
}

TEST(ThreadPool, ConcurrentSubmittersShareOnePool) {
  // The serving path: many request threads issue ParallelFor on one
  // process-shared pool. Every call must see all of its own indices exactly
  // once regardless of interleaving with other submitters.
  auto pool = ThreadPool::Shared(4);
  ASSERT_EQ(pool.get(), ThreadPool::Shared(4).get())
      << "Shared() must return one instance per size";
  constexpr int kSubmitters = 4;
  constexpr int kRounds = 25;
  constexpr std::int64_t kCount = 997;  // prime: uneven shard loads
  std::vector<std::thread> submitters;
  std::vector<std::int64_t> sums(kSubmitters, 0);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<std::int64_t> sum{0};
        pool->ParallelFor(kCount, [&](std::int64_t begin, std::int64_t end) {
          std::int64_t local = 0;
          for (std::int64_t i = begin; i < end; ++i) local += i;
          sum.fetch_add(local);
        });
        sums[t] = sum.load();
        ASSERT_EQ(sums[t], kCount * (kCount - 1) / 2)
            << "submitter " << t << " round " << round;
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (std::int64_t s : sums) EXPECT_EQ(s, kCount * (kCount - 1) / 2);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  // With one thread, the callback must run on the calling thread (no
  // synchronization noise for latency benchmarks).
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.ParallelFor(10, [&](std::int64_t, std::int64_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

}  // namespace
}  // namespace lce
