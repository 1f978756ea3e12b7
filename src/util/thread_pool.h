#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

/// \file thread_pool.h
/// A small fixed-size worker pool for embarrassingly parallel jobs — the
/// experiment runner fans independent seeded scenario runs across it. Tasks
/// are plain callables; submit() returns a std::future that carries the
/// result or any exception the task threw. The pool drains its queue before
/// the destructor returns, so every future obtained from a live pool is
/// eventually satisfied.
///
/// The process-wide shared() pool is sized from the DTNIC_THREADS environment
/// variable (falling back to std::thread::hardware_concurrency) and can be
/// resized with set_shared_threads() — e.g. from a --threads CLI flag.

namespace dtnic::util {

class ThreadPool {
 public:
  /// \p threads worker threads; 0 means default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue \p fn; the future resolves with its return value or exception.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      tasks_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Run fn(0) … fn(tasks - 1) to completion, with task 0 executed on the
  /// calling thread while the rest run on the pool — so a pool of (n - 1)
  /// workers saturates n cores and the caller never just blocks. Tasks are
  /// claimed dynamically: after its own task the caller runs every task no
  /// worker has started yet, so a short phase never waits on a worker
  /// wake-up (whose latency swings tenfold on a busy or virtualized host).
  /// \p fn must therefore not depend on which thread runs a task. Returns
  /// after every task finished; if any threw, the first exception (by task
  /// index) is rethrown. Must not be called from a task already running on
  /// this pool (the inner wait could deadlock on a saturated queue).
  void co_run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

  /// DTNIC_THREADS if set to a positive integer, else hardware_concurrency
  /// (else 1 when the hardware cannot be queried).
  [[nodiscard]] static std::size_t default_thread_count();

  /// Lazily constructed process-wide pool (default_thread_count workers).
  [[nodiscard]] static ThreadPool& shared();

  /// Replace the shared pool with one of \p threads workers (0 = default).
  /// Outstanding tasks on the old pool finish before it is torn down.
  static void set_shared_threads(std::size_t threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace dtnic::util
