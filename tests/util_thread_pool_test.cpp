#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace dtnic::util {
namespace {

TEST(ThreadPool, RunsAllTasksAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);

  std::atomic<int> executed{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i, &executed] {
      executed.fetch_add(1, std::memory_order_relaxed);
      return i * i;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(executed.load(), 64);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto boom = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(boom.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnShutdown) {
  std::atomic<int> executed{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        executed.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    // Destructor joins after the queue drains; every future must be ready.
  }
  EXPECT_EQ(executed.load(), 32);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    f.get();  // must not throw broken_promise
  }
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([i, &order] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  const char* saved = std::getenv("DTNIC_THREADS");
  const std::string restore = saved ? saved : "";

  ASSERT_EQ(setenv("DTNIC_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);

  ASSERT_EQ(setenv("DTNIC_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);  // falls back to hardware

  ASSERT_EQ(setenv("DTNIC_THREADS", "0", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);

  if (saved != nullptr) {
    ASSERT_EQ(setenv("DTNIC_THREADS", restore.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("DTNIC_THREADS"), 0);
  }
}

TEST(ThreadPool, ZeroRequestsDefaultSize) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace dtnic::util
