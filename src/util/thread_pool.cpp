#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

namespace dtnic::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      // Drain the queue even when stopping: submitted futures stay valid.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

namespace {

/// One co_run call's shared state. Tasks are claimed from an atomic counter
/// by the caller and by the helper jobs it queues; each helper holds the
/// batch by shared_ptr, so a helper that dequeues after every task was
/// claimed finds nothing to do and never touches the (by then out of scope)
/// task function.
struct CoRunBatch {
  CoRunBatch(std::size_t task_count, const std::function<void(std::size_t)>& task_fn)
      : fn(&task_fn), tasks(task_count), errors(task_count) {}

  const std::function<void(std::size_t)>* fn;
  std::size_t tasks;
  std::atomic<std::size_t> next{1};  ///< task 0 belongs to the caller
  std::atomic<std::size_t> finished{0};
  std::vector<std::exception_ptr> errors;  ///< by task index
  std::mutex mutex;
  std::condition_variable all_done;

  void run(std::size_t i) {
    try {
      (*fn)(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == tasks) {
      const std::lock_guard<std::mutex> lock(mutex);
      all_done.notify_all();
    }
  }

  /// Claim and run tasks until none is left unclaimed.
  void help() {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < tasks;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      run(i);
    }
  }
};

}  // namespace

void ThreadPool::co_run(std::size_t tasks, const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  auto batch = std::make_shared<CoRunBatch>(tasks, fn);
  const std::size_t helpers = std::min(tasks - 1, workers_.size());
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool: co_run after shutdown");
    for (std::size_t h = 0; h < helpers; ++h) tasks_.emplace_back([batch] { batch->help(); });
  }
  for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();

  // The caller runs task 0, then keeps claiming: tasks no worker has picked
  // up yet run here instead of waiting on a wake-up.
  batch->run(0);
  batch->help();
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->all_done.wait(lock, [&batch] {
      return batch->finished.load(std::memory_order_acquire) == batch->tasks;
    });
  }
  // Move the exception out: a late helper may drop the last reference to
  // the batch on its own thread while the caller is handling it.
  for (std::exception_ptr& error : batch->errors) {
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("DTNIC_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {
std::mutex g_shared_mutex;
std::unique_ptr<ThreadPool> g_shared_pool;
}  // namespace

ThreadPool& ThreadPool::shared() {
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  if (!g_shared_pool) g_shared_pool = std::make_unique<ThreadPool>();
  return *g_shared_pool;
}

void ThreadPool::set_shared_threads(std::size_t threads) {
  auto replacement = std::make_unique<ThreadPool>(threads);
  std::lock_guard<std::mutex> lock(g_shared_mutex);
  g_shared_pool = std::move(replacement);
}

}  // namespace dtnic::util
