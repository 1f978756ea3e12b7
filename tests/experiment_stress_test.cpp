#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "net/spatial_grid.h"
#include "scenario/experiment.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/thread_pool.h"

/// Concurrency stress for the parallel experiment layer, built to run under
/// -fsanitize=thread (cmake -DDTNIC_SANITIZE=thread; ctest -L tsan-stress).
/// More seeds than workers keeps the queue contended; the serial baseline
/// comparison doubles as the determinism check while TSan watches for data
/// races between concurrently running Scenario instances.

namespace dtnic::scenario {
namespace {

TEST(ExperimentStress, ManySeedsUnderContentionMatchSerial) {
  util::ThreadPool::set_shared_threads(4);
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(25, 0.5);
  cfg.scheme = Scheme::kIncentive;
  cfg.selfish_fraction = 0.3;
  cfg.malicious_fraction = 0.2;
  cfg.sample_interval_s = 300.0;

  const ExperimentRunner runner(/*seeds=*/8, /*base_seed=*/11);
  const AggregateResult parallel = runner.run(cfg);
  const AggregateResult serial = runner.run_serial(cfg);

  ASSERT_EQ(parallel.runs, serial.runs);
  EXPECT_EQ(parallel.mdr.mean(), serial.mdr.mean());
  EXPECT_EQ(parallel.mdr.stddev(), serial.mdr.stddev());
  EXPECT_EQ(parallel.traffic.mean(), serial.traffic.mean());
  EXPECT_EQ(parallel.avg_final_tokens.mean(), serial.avg_final_tokens.mean());
  ASSERT_EQ(parallel.raw.size(), serial.raw.size());
  for (std::size_t i = 0; i < parallel.raw.size(); ++i) {
    EXPECT_EQ(parallel.raw[i].seed, serial.raw[i].seed);
    EXPECT_EQ(parallel.raw[i].mdr, serial.raw[i].mdr);
    EXPECT_EQ(parallel.raw[i].traffic, serial.raw[i].traffic);
  }
}

/// Buffer-churn stress over the strength-cache paths: tiny buffers force
/// constant eviction (cache pruning, copy-on-write message cores) while
/// heavy enrichment bumps the process-wide keyword stamp from every worker
/// thread. Under TSan this covers the atomic stamp counter and the shared
/// immutable cores crossing threads; in plain builds the serial comparison
/// checks the memoized strength never perturbs results.
TEST(ExperimentStress, BufferChurnWithEnrichmentMatchesSerial) {
  util::ThreadPool::set_shared_threads(4);
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(20, 0.5);
  cfg.scheme = Scheme::kIncentive;
  cfg.buffer_capacity_bytes = 4ull * 1024 * 1024;  // a handful of messages
  cfg.messages_per_node_per_hour = 4.0;
  cfg.enrich_probability = 0.9;
  cfg.malicious_fraction = 0.3;

  const ExperimentRunner runner(/*seeds=*/8, /*base_seed=*/23);
  const AggregateResult parallel = runner.run(cfg);
  const AggregateResult serial = runner.run_serial(cfg);

  ASSERT_EQ(parallel.runs, serial.runs);
  EXPECT_EQ(parallel.mdr.mean(), serial.mdr.mean());
  EXPECT_EQ(parallel.traffic.mean(), serial.traffic.mean());
  EXPECT_EQ(parallel.avg_final_tokens.mean(), serial.avg_final_tokens.mean());
  for (std::size_t i = 0; i < parallel.raw.size(); ++i) {
    EXPECT_EQ(parallel.raw[i].mdr, serial.raw[i].mdr);
    EXPECT_EQ(parallel.raw[i].traffic, serial.raw[i].traffic);
  }
}

TEST(ExperimentStress, RepeatedSweepsAreStable) {
  util::ThreadPool::set_shared_threads(4);
  std::vector<ScenarioConfig> points;
  for (const auto scheme : {Scheme::kIncentive, Scheme::kChitChat, Scheme::kEpidemic}) {
    ScenarioConfig cfg = ScenarioConfig::scaled_defaults(20, 0.25);
    cfg.scheme = scheme;
    cfg.selfish_fraction = 0.5;  // heavy suppression churn on the gate path
    points.push_back(cfg);
  }
  const SweepRunner sweep(/*seeds=*/4);
  const auto first = sweep.run_all(points);
  const auto second = sweep.run_all(points);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].mdr.mean(), second[i].mdr.mean());
    EXPECT_EQ(first[i].traffic.mean(), second[i].traffic.mean());
    EXPECT_EQ(first[i].scheme, second[i].scheme);
  }
  util::ThreadPool::set_shared_threads(0);  // restore default sizing
}

/// Builds a churned grid from \p seed and returns the sorted pair list.
/// Every caller with the same seed must observe bit-identical output no
/// matter which scan kernel is active or what other threads are doing.
std::vector<net::SpatialGrid::Pair> churned_pairs(std::uint64_t seed) {
  util::Rng rng(seed);
  net::SpatialGrid grid(100.0);
  std::vector<std::size_t> slots;
  for (std::uint32_t i = 0; i < 150; ++i) {
    slots.push_back(grid.insert(util::NodeId(i + 1),
                                {rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0)}));
  }
  for (int round = 0; round < 10; ++round) {
    for (const std::size_t slot : slots) {
      grid.update_slot(slot, {rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0)});
    }
  }
  std::vector<net::SpatialGrid::Pair> pairs;
  grid.pairs_within(75.0, pairs);
  return pairs;
}

/// Concurrent scans on distinct grids: the kernels share only immutable
/// state (decode table, empty-cell pad, the process-wide variant atomic), so
/// threads hammering different grids must neither race under TSan nor
/// perturb each other's output.
TEST(ExperimentStress, ConcurrentScanVariantsOnDistinctGridsAgree) {
  using net::SpatialGrid;
  const SpatialGrid::ScanVariant saved = SpatialGrid::scan_variant();
  ASSERT_TRUE(SpatialGrid::set_scan_variant(SpatialGrid::ScanVariant::kScalar));
  std::vector<std::vector<SpatialGrid::Pair>> reference;
  for (std::uint64_t seed = 0; seed < 4; ++seed) reference.push_back(churned_pairs(seed));

  for (const SpatialGrid::ScanVariant v : SpatialGrid::supported_scan_variants()) {
    ASSERT_TRUE(SpatialGrid::set_scan_variant(v));
    std::vector<std::thread> threads;
    std::vector<std::vector<SpatialGrid::Pair>> got(4);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      threads.emplace_back([&got, seed] { got[seed] = churned_pairs(seed); });
    }
    for (std::thread& th : threads) th.join();
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      ASSERT_EQ(got[seed].size(), reference[seed].size())
          << SpatialGrid::scan_variant_name(v) << " seed " << seed;
      EXPECT_EQ(std::memcmp(got[seed].data(), reference[seed].data(),
                            got[seed].size() * sizeof(SpatialGrid::Pair)),
                0)
          << SpatialGrid::scan_variant_name(v) << " seed " << seed;
    }
  }
  ASSERT_TRUE(SpatialGrid::set_scan_variant(saved));
}

/// Concurrent timing wheels: each thread owns its queue, but the records
/// live in arena chunks handed out under the shared registry mutex and
/// recycled through thread-local free lists — exactly the sharing TSan
/// needs to watch. Each thread verifies its own fire order.
TEST(ExperimentStress, ConcurrentWheelQueuesFireInOrder) {
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &failures] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 99);
      sim::EventQueue q;
      std::vector<sim::EventId> ids;
      int fired = 0;
      double last = 0.0;
      for (int step = 0; step < 20000; ++step) {
        const std::uint64_t dice = rng.below(100);
        if (dice < 55) {
          // Push at/after the last pop so fire times must be monotone (a
          // past push would legitimately fire "early" and break the check).
          ids.push_back(
              q.push(util::SimTime::seconds(last + rng.uniform(0.0, 5000.0)), [&fired] { ++fired; }));
        } else if (dice < 70 && !ids.empty()) {
          const std::size_t pick = rng.below(ids.size());
          q.cancel(ids[pick]);
          ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
        } else if (!q.empty()) {
          const auto popped = q.pop();
          if (popped.time.sec() < last) ++failures[static_cast<std::size_t>(t)];
          last = popped.time.sec();
          popped.fn();
        }
      }
      while (!q.empty()) {
        const auto popped = q.pop();
        if (popped.time.sec() < last) ++failures[static_cast<std::size_t>(t)];
        last = popped.time.sec();
        popped.fn();
      }
      if (q.heap_entries() != 0) ++failures[static_cast<std::size_t>(t)];
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << "thread " << t;
}

}  // namespace
}  // namespace dtnic::scenario
