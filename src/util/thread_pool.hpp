#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace moteur {

/// Fixed-size worker pool used by the threaded enactment backend to make
/// asynchronous service calls — the paper's workaround for 2006 SOAP stacks
/// lacking native async invocation (§3.1): "spawning independent system
/// threads for each processor being executed".
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1). Defaults to hardware concurrency.
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; the returned future carries its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Enqueue a batch of fire-and-forget tasks under one lock with one
  /// wake-up: no futures, no packaged_task allocations. The hot path for
  /// backends that deliver results through their own completion queues.
  /// Tasks are dequeued in `tasks` order; `tasks` is left empty (its
  /// capacity kept for the next batch), and an empty batch is a no-op.
  /// Tasks must not throw.
  void post_all(std::vector<std::function<void()>>& tasks);

  /// Block until the queue is empty and all workers are idle.
  void wait_idle();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

}  // namespace moteur
