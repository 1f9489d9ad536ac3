#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace vidur {

namespace {

/// The pool whose worker loop runs on this thread (null elsewhere).
thread_local const ThreadPool* owning_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

bool ThreadPool::on_worker() const { return owning_pool == this; }

void ThreadPool::wait_idle() {
  VIDUR_CHECK_MSG(!on_worker(),
                  "ThreadPool::wait_idle() called from one of the pool's own "
                  "tasks would wait for itself");
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  owning_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  VIDUR_CHECK_MSG(!pool.on_worker(),
                  "parallel_for called from one of the pool's own tasks");
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining = n;
  for (std::size_t i = 0; i < n; ++i)
    pool.submit([&, i] {
      fn(i);
      // Notify under the lock: once it is released the caller may return
      // and destroy `done`.
      std::lock_guard lock(mutex);
      if (--remaining == 0) done.notify_one();
    });
  std::unique_lock lock(mutex);
  done.wait(lock, [&] { return remaining == 0; });
}

}  // namespace vidur
