#include "common/thread_pool.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace mars {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(4);
  std::vector<long> partial(1000, 0);
  pool.ParallelFor(1000, [&partial](size_t i) {
    partial[i] = static_cast<long>(i);
  });
  long total = 0;
  for (long x : partial) total += x;
  EXPECT_EQ(total, 999L * 1000 / 2);
}

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, AtLeastOneWorkerEvenForZeroRequest) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, IsWorkerThreadIdentifiesPoolTasks) {
  ThreadPool pool(2);
  ThreadPool other(2);
  EXPECT_FALSE(pool.IsWorkerThread());  // caller is not a worker

  std::atomic<int> inside{0}, outside_other{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      // From a task, the executing pool must flag re-entrancy...
      if (pool.IsWorkerThread()) inside.fetch_add(1);
      // ...but an unrelated pool must not (two-pool nesting is the
      // sanctioned pattern for nested parallelism).
      if (!other.IsWorkerThread()) outside_other.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(inside.load(), 8);
  EXPECT_EQ(outside_other.load(), 8);
}

TEST(ThreadPoolTest, RunBatchCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hit(64);
  pool.RunBatch(64, [&](size_t i) { hit[i].fetch_add(1); });
  for (size_t i = 0; i < hit.size(); ++i) {
    EXPECT_EQ(hit[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RunBatchZeroIsNoop) {
  ThreadPool pool(2);
  pool.RunBatch(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ConcurrentRunBatchOwnersOnlyWaitForTheirOwnBatch) {
  // Two non-worker threads fan out batches on one shared pool. Each
  // RunBatch call must return as soon as *its* indices are done — it must
  // not hang on, or steal completions from, the other owner's batch. The
  // check: every batch observes its own counter complete at return, many
  // times in a row, from both owners concurrently, raced under TSAN in CI.
  ThreadPool pool(3);
  std::atomic<int> mismatches{0};
  const auto owner = [&](int salt) {
    for (int round = 0; round < 50; ++round) {
      std::atomic<int> done{0};
      const size_t n = 1 + static_cast<size_t>((round + salt) % 7);
      pool.RunBatch(n, [&done](size_t) { done.fetch_add(1); });
      if (done.load() != static_cast<int>(n)) mismatches.fetch_add(1);
    }
  };
  std::thread a(owner, 0), b(owner, 3);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace mars
