/// Allocation-count probe: replaces the global allocator with a counting
/// shim and pins the event queue's steady-state push/pop churn at ZERO heap
/// allocations once warmed up. Built as its own binary so the operator new
/// replacement cannot leak into the main suite; compiled to a skip under
/// sanitizers, which own the allocator.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/event_queue.h"
#include "util/rng.h"

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define DTNIC_ALLOC_PROBE_ACTIVE 1
#else
#define DTNIC_ALLOC_PROBE_ACTIVE 0
#endif

#if DTNIC_ALLOC_PROBE_ACTIVE

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#endif  // DTNIC_ALLOC_PROBE_ACTIVE

namespace dtnic {
namespace {

std::uint64_t allocs_now() {
#if DTNIC_ALLOC_PROBE_ACTIVE
  return g_alloc_count.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

TEST(AllocSteadyState, EventQueueTickIsAllocationFree) {
  if (DTNIC_ALLOC_PROBE_ACTIVE == 0) GTEST_SKIP() << "probe needs a non-sanitized build";
  sim::EventQueue q;
  util::Rng rng(5);
  int fired = 0;
  // Warm: reach steady slab/heap capacity.
  for (int i = 0; i < 4096; ++i) {
    (void)q.push(util::SimTime::seconds(rng.uniform(0.0, 200.0)), [&fired] { ++fired; });
  }
  double t = 200.0;
  for (int i = 0; i < 4096; ++i) {
    auto popped = q.pop();
    popped.fn();
    t += 0.1;
    (void)q.push(util::SimTime::seconds(t + rng.uniform(0.0, 100.0)), [&fired] { ++fired; });
  }
  const std::uint64_t before = allocs_now();
  for (int i = 0; i < 4096; ++i) {
    auto popped = q.pop();
    popped.fn();
    t += 0.1;
    (void)q.push(util::SimTime::seconds(t + rng.uniform(0.0, 100.0)), [&fired] { ++fired; });
  }
  EXPECT_EQ(allocs_now() - before, 0u) << "event push/pop churn must not touch the heap";
  EXPECT_GT(fired, 0);
}

}  // namespace
}  // namespace dtnic
