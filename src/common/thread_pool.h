// Simple fixed-size thread pool used to parallelize evaluation
// (per-user ranking is embarrassingly parallel).
#ifndef MARS_COMMON_THREAD_POOL_H_
#define MARS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mars {

/// Fixed-size worker pool. Submit closures; Wait() blocks until all
/// submitted work has finished.
///
/// NOT re-entrant: a task must never call Submit/Wait/ParallelFor on the
/// pool that runs it. Wait() counts the calling task itself as in-flight,
/// so a nested Wait() deadlocks by construction; Wait() aborts loudly
/// (always, not just in debug) when called from a worker, and Submit
/// asserts in debug builds. Code that needs nested parallelism (a task
/// that fans out work of its own) must use two distinct pools.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called from a task on this pool
  /// (asserted in debug builds).
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed. Aborts if called
  /// from a task on this pool — that would wait for itself forever.
  void Wait();

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until *this
  /// batch* — not the whole queue — has finished. Unlike Submit+Wait,
  /// which waits on the pool-global in-flight count, each RunBatch call
  /// tracks its own completion, so several non-worker threads can fan out
  /// batches concurrently without waiting on one another's work (the IVF
  /// index build and rebuild use it). Tasks are still serviced by the
  /// shared worker queue; the same re-entrancy rule applies (never from a
  /// worker).
  void RunBatch(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers, i.e. the
  /// caller is inside a task and must not Submit/Wait here.
  bool IsWorkerThread() const;

  /// Runs `fn(i)` for i in [0, n) across the pool and waits. Dispatch is
  /// chunked — one queued closure per contiguous index range, a few chunks
  /// per worker — so fine-grained loops (per-user eval ranking) don't pay
  /// one queue round-trip per index.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::vector<std::thread::id> worker_ids_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Returns a reasonable default parallelism (hardware_concurrency, >= 1).
size_t DefaultThreadCount();

}  // namespace mars

#endif  // MARS_COMMON_THREAD_POOL_H_
