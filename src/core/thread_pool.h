#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ckptsim {

/// Execution controls shared by every multi-replication entry point (the
/// replication driver, core/replicate.h).  Results are aggregated in
/// replication-index order, so any `jobs` value — including the auto
/// default — produces bit-identical output to the serial path.
struct ExecSpec {
  /// Worker threads for independent replications / sweep points.
  /// 0 = auto: the `CKPTSIM_JOBS` environment variable when set to a
  /// positive integer, otherwise `std::thread::hardware_concurrency()`.
  std::size_t jobs = 0;

  /// The concrete thread count (>= 1) this spec resolves to.
  [[nodiscard]] std::size_t resolve() const;
};

/// Fixed-size FIFO worker pool.  Work-stealing-free by design: tasks are
/// drained from one shared queue, which keeps the implementation small and
/// the scheduling irrelevant to results (callers index their outputs).
///
/// The first exception thrown by any task is captured and rethrown from
/// `wait()`; later exceptions from the same batch are counted (see
/// `suppressed_errors()`) rather than silently dropped.
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a task.  Throws std::invalid_argument on an empty task.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.  Rethrows the first
  /// captured task exception (clearing it, so the pool stays usable).
  void wait();

  /// Task exceptions dropped because an earlier one was already captured,
  /// cumulative since construction.  Read it after catching from wait() to
  /// learn how many sibling tasks also failed in the batch.
  [[nodiscard]] std::size_t suppressed_errors() const noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;  ///< signals workers
  std::condition_variable all_done_;    ///< signals wait()
  std::size_t unfinished_ = 0;          ///< queued + running tasks
  std::exception_ptr first_error_;      ///< guarded by mu_
  std::size_t suppressed_errors_ = 0;   ///< guarded by mu_
  bool stop_ = false;
};

/// Run `body(i)` for every i in [0, count) across up to `jobs` threads
/// (jobs <= 1 runs inline on the calling thread).  Blocks until all
/// iterations finish.  Iterations are claimed dynamically but each writes
/// only its own index, so output order is the caller's responsibility and
/// determinism is preserved for any thread count.  The first exception
/// thrown by `body` stops the remaining iterations and is rethrown here.
void parallel_for_indexed(std::size_t jobs, std::size_t count,
                          const std::function<void(std::size_t)>& body);

/// As parallel_for_indexed, but `body(worker, i)` also receives the worker
/// slot (0 <= worker < min(jobs, count); 0 on the serial path) claiming the
/// iteration.  Worker slots are stable per pool thread for the duration of
/// the call, which lets observability code keep per-worker shards without
/// locks (src/obs).  Scheduling stays irrelevant to results.
void parallel_for_workers(std::size_t jobs, std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ckptsim
