// Fixed-size worker pool. Vidur-Search evaluates deployment configurations
// on it in parallel (the paper runs each capacity search on its own CPU
// core); estimator onboarding, run_sweep and the sharded simulator's window
// rounds fork-join on it too.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vidur {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1 enforced).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw; wrap fallible work yourself.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. A VIDUR_CHECK failure
  /// when called from one of this pool's own tasks, which counts as in
  /// flight and would wait for itself forever.
  void wait_idle();

  std::size_t num_threads() const { return workers_.size(); }

  /// True on one of this pool's worker threads.
  bool on_worker() const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Run `fn(i)` for i in [0, n) across the pool and wait for those n tasks
/// (not for the rest of the pool's queue). `fn` must not throw. A
/// VIDUR_CHECK failure when called from one of the pool's own tasks: the
/// caller would hold a worker while waiting on the others.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// std::thread::hardware_concurrency() clamped to >= 1. The standard
/// permits a 0 return when the count is not computable; every consumer
/// here (pool sizing, bench metadata) needs a positive thread count, so
/// this is the one place the clamp lives.
inline unsigned hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

}  // namespace vidur
