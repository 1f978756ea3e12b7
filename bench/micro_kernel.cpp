/// Google-benchmark microbenchmarks of the simulation kernel hot paths:
/// event queue churn, spatial-grid contact scans, ChitChat weight updates,
/// and the incentive/DRM formulas. These bound the cost of a paper-scale
/// run (500 nodes x 24 h) and guard against regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/incentive.h"
#include "core/incentive_router.h"
#include "core/reputation.h"
#include "mobility/random_waypoint.h"
#include "msg/buffer.h"
#include "net/spatial_grid.h"
#include "obs/event_fanout.h"
#include "obs/trace_sink.h"
#include "stats/metrics.h"
#include "routing/chitchat/interest_table.h"
#include "routing/host.h"
#include "routing/oracle.h"
#include "scenario/scenario.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace {

using namespace dtnic;

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      (void)q.push(util::SimTime::seconds(rng.uniform(0.0, 1000.0)), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

/// Cancel-heavy queue usage (timeouts that almost never fire): most pushed
/// events are cancelled before popping. Exercises the drain/compaction path
/// that keeps cancel bookkeeping bounded by live events.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(9);
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids.push_back(q.push(util::SimTime::seconds(rng.uniform(0.0, 1000.0)), [] {}));
      // Cancel a random earlier event ~15/16 of the time, mimicking
      // timeout-style events that are rescheduled before they fire.
      if (!ids.empty() && rng.below(16) != 0) {
        const std::size_t victim = rng.below(ids.size());
        q.cancel(ids[victim]);
        ids[victim] = ids.back();
        ids.pop_back();
      }
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
    benchmark::DoNotOptimize(q.heap_entries());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(1024)->Arg(16384);

/// Shared motion model for the contact-scan kernels: nodes at 100/km²
/// with random velocities, bouncing off the area walls. One step() is
/// one scan tick's worth of movement (pedestrian speeds, 5 s tick).
struct ScanWorld {
  explicit ScanWorld(int nodes, std::uint64_t seed = 3)
      : side(std::sqrt(nodes / 100.0) * 1000.0), pos(nodes), vel(nodes) {
    util::Rng rng(seed);
    for (auto& p : pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
    for (auto& v : vel) v = {rng.uniform(-7.5, 7.5), rng.uniform(-7.5, 7.5)};
  }
  void step() {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      double x = pos[i].x + vel[i].x;
      double y = pos[i].y + vel[i].y;
      if (x < 0.0 || x > side) { vel[i].x = -vel[i].x; x = pos[i].x; }
      if (y < 0.0 || y > side) { vel[i].y = -vel[i].y; y = pos[i].y; }
      pos[i] = {x, y};
    }
  }
  double side;
  std::vector<util::Vec2> pos;
  std::vector<util::Vec2> vel;
};

/// The steady-state hot path: nodes already resident in the grid, each scan
/// moves them and re-enumerates pairs into a reused scratch vector.
void BM_SpatialGridScan(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  ScanWorld world(nodes);
  net::SpatialGrid grid(100.0);
  std::vector<std::size_t> slots(world.pos.size());
  for (int i = 0; i < nodes; ++i) {
    slots[static_cast<std::size_t>(i)] =
        grid.insert(util::NodeId(static_cast<util::NodeId::underlying>(i)),
                    world.pos[static_cast<std::size_t>(i)]);
  }
  std::vector<net::SpatialGrid::Pair> pairs;
  for (auto _ : state) {
    world.step();
    for (std::size_t i = 0; i < slots.size(); ++i) grid.update_slot(slots[i], world.pos[i]);
    grid.pairs_within(100.0, pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_SpatialGridScan)->Arg(100)->Arg(500)->Arg(2000);

/// The pre-incremental shape (clear + reinsert every tick), kept as the
/// reference point the incremental scan is measured against.
void BM_SpatialGridRebuild(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  ScanWorld world(nodes);
  net::SpatialGrid grid(100.0);
  std::vector<net::SpatialGrid::Pair> pairs;
  for (auto _ : state) {
    world.step();
    grid.clear();
    for (int i = 0; i < nodes; ++i) {
      (void)grid.insert(util::NodeId(static_cast<util::NodeId::underlying>(i)),
                        world.pos[static_cast<std::size_t>(i)]);
    }
    grid.pairs_within(100.0, pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
  state.SetItemsProcessed(state.iterations() * nodes);
}
BENCHMARK(BM_SpatialGridRebuild)->Arg(100)->Arg(500)->Arg(2000);

void BM_RandomWaypointStep(benchmark::State& state) {
  mobility::RandomWaypointParams params;
  params.area = {2236.0, 2236.0};
  mobility::RandomWaypoint model(params, util::Rng(4));
  double t = 0.0;
  for (auto _ : state) {
    t += 5.0;
    benchmark::DoNotOptimize(model.position_at(util::SimTime::seconds(t)));
  }
}
BENCHMARK(BM_RandomWaypointStep);

void BM_InterestTableExchange(benchmark::State& state) {
  const int keywords = static_cast<int>(state.range(0));
  routing::chitchat::ChitChatParams params;
  routing::chitchat::InterestTable a(params);
  routing::chitchat::InterestTable b(params);
  for (int k = 0; k < keywords; ++k) {
    if (k % 2 == 0) a.add_direct(msg::KeywordId(k), util::SimTime::zero());
    else b.add_direct(msg::KeywordId(k), util::SimTime::zero());
  }
  double t = 0.0;
  for (auto _ : state) {
    t += 5.0;
    const auto now = util::SimTime::seconds(t);
    a.decay(now, nullptr);
    b.decay(now, nullptr);
    a.grow_from(b, now, 5.0);
    b.grow_from(a, now, 5.0);
    benchmark::DoNotOptimize(a.size());
  }
}
BENCHMARK(BM_InterestTableExchange)->Arg(20)->Arg(200);

/// One node's interest table and its three connected neighbors at the
/// Table 5.1 keyword pool (200 keywords), each holding ~156 of them (78%,
/// the mean occupancy of a dense field run) with 3 direct interests — the
/// operands of the per-contact decay (Algorithm 1) and growth (Algorithm 2).
struct InterestWorld {
  static constexpr std::size_t kPool = 200;
  static constexpr std::size_t kNeighbors = 3;

  InterestWorld() {
    util::Rng rng(17);
    for (std::size_t i = 0; i <= kNeighbors; ++i) {
      tables.emplace_back(params, kPool);
      routing::chitchat::InterestTable& table = tables.back();
      for (std::size_t k = 0; k < kPool; ++k) {
        if (rng.chance(0.78)) {
          table.restore(msg::KeywordId(static_cast<msg::KeywordId::underlying>(k)),
                        rng.uniform(0.05, 1.0), false, util::SimTime::zero());
        }
      }
      for (int d = 0; d < 3; ++d) {
        table.add_direct(msg::KeywordId(static_cast<msg::KeywordId::underlying>(
                             rng.below(kPool))),
                         util::SimTime::zero());
      }
    }
    for (std::size_t i = 1; i <= kNeighbors; ++i) neighbors.push_back(&tables[i]);
  }

  /// Decay the node's table against its neighbors, \p dt_s after the last
  /// step (5 s = one scan interval).
  void decay_step(double dt_s) {
    now_s += dt_s;
    tables[0].decay_against(util::SimTime::seconds(now_s), neighbors);
  }
  /// Grow the node's table from its first neighbor.
  void grow_step(double dt_s) {
    now_s += dt_s;
    tables[0].grow_from(tables[1], util::SimTime::seconds(now_s), dt_s);
  }

  routing::chitchat::ChitChatParams params;
  std::vector<routing::chitchat::InterestTable> tables;
  std::vector<const routing::chitchat::InterestTable*> neighbors;
  double now_s = 0.0;
};

void BM_InterestDecayAgainst(benchmark::State& state) {
  InterestWorld world;
  for (auto _ : state) {
    world.decay_step(5.0);
    benchmark::DoNotOptimize(world.tables[0].size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterestDecayAgainst);

void BM_InterestGrowFrom(benchmark::State& state) {
  InterestWorld world;
  for (auto _ : state) {
    world.grow_step(5.0);
    benchmark::DoNotOptimize(world.tables[0].size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterestGrowFrom);

void BM_SoftwareIncentive(benchmark::State& state) {
  core::IncentiveParams params;
  util::Rng rng(5);
  core::SoftwareFactors f;
  f.max_sum_weights = 3.0;
  f.max_size_bytes = 2 << 20;
  for (auto _ : state) {
    f.sum_weights_v = rng.uniform(0.0, 3.0);
    f.size_bytes = 1 + rng.below(2 << 20);
    f.quality = rng.uniform(0.0, 1.0);
    benchmark::DoNotOptimize(core::software_incentive(params, f));
  }
}
BENCHMARK(BM_SoftwareIncentive);

void BM_RatingStoreMerge(benchmark::State& state) {
  core::DrmParams drm;
  core::RatingStore store(drm);
  util::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    store.add_message_rating(util::NodeId(i), rng.uniform(0.0, 5.0));
  }
  for (auto _ : state) {
    const auto node = util::NodeId(static_cast<util::NodeId::underlying>(rng.below(200)));
    store.merge_remote(node, rng.uniform(0.0, 5.0));
    benchmark::DoNotOptimize(store.rating_of(node));
  }
}
BENCHMARK(BM_RatingStoreMerge);

void BM_RatingStoreSnapshot(benchmark::State& state) {
  core::DrmParams drm;
  core::RatingStore store(drm);
  util::Rng rng(7);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    store.add_message_rating(util::NodeId(i), rng.uniform(0.0, 5.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.snapshot());
  }
}
BENCHMARK(BM_RatingStoreSnapshot)->Arg(50)->Arg(500);

void BM_MessageBufferChurn(benchmark::State& state) {
  const auto policy = state.range(0) == 0 ? msg::DropPolicy::kFifoOldest
                                          : msg::DropPolicy::kLowPriorityFirst;
  util::Rng rng(8);
  constexpr std::uint64_t kMB = 1024 * 1024;
  util::MessageId::underlying next = 0;
  msg::MessageBuffer buf(64 * kMB, policy);
  for (auto _ : state) {
    msg::Message m(util::MessageId(next++), util::NodeId(0), util::SimTime::zero(),
                   kMB / 2 + rng.below(kMB), static_cast<msg::Priority>(rng.range(1, 3)),
                   rng.uniform(0.0, 1.0));
    benchmark::DoNotOptimize(buf.would_admit(m));
    benchmark::DoNotOptimize(buf.add(std::move(m)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MessageBufferChurn)->Arg(0)->Arg(1);

/// Exchange-pipeline world: a ring of incentive hosts with populated buffers
/// and seeded interest tables. One "contact" is the contact controller's
/// routing work for a link — pre_exchange (decay against neighbors), the
/// link-up weight/reputation exchange, and plan_into in both directions —
/// without the transfer layer, so the measured cost is exactly the routing
/// hot path.
struct ExchangeWorld {
  ExchangeWorld(int nodes, int msgs_per_node, int keywords, std::uint64_t seed = 11) {
    util::Rng rng(seed);
    pool.reserve(static_cast<std::size_t>(keywords));
    for (int k = 0; k < keywords; ++k) {
      pool.push_back(msg::KeywordId(static_cast<util::KeywordId::underlying>(k)));
    }
    world.keyword_pool = &pool;
    world.neighbors = [this](routing::NodeId id, std::vector<routing::Host*>& out) {
      out.clear();
      const std::size_t n = hosts.size();
      const std::size_t i = id.value();
      out.push_back(hosts[(i + 1) % n].get());
      out.push_back(hosts[(i + n - 1) % n].get());
    };

    routing::chitchat::ChitChatParams chitchat;
    constexpr std::uint64_t kMB = 1024 * 1024;
    const auto t0 = util::SimTime::zero();
    util::MessageId::underlying next_id = 0;
    for (int i = 0; i < nodes; ++i) {
      const routing::NodeId id(static_cast<util::NodeId::underlying>(i));
      auto host = std::make_unique<routing::Host>(id, 256 * kMB);
      std::vector<msg::KeywordId> interests;
      for (int j = 0; j < 3; ++j) interests.push_back(pool[rng.below(pool.size())]);
      oracle.set_interests(id, interests);
      auto router = std::make_unique<core::IncentiveRouter>(
          oracle, chitchat, util::SimTime::seconds(5.0), &world, core::BehaviorProfile{},
          rng.fork(static_cast<std::uint64_t>(i)));
      router->set_direct_interests(interests, t0);
      host->set_router(std::move(router));
      for (int m = 0; m < msgs_per_node; ++m) {
        msg::Message msg(util::MessageId(next_id++), id, t0, kMB / 4 + rng.below(kMB / 4),
                         static_cast<msg::Priority>(rng.range(1, 3)), rng.uniform(0.0, 1.0));
        for (int a = 0; a < 3; ++a) {
          (void)msg.annotate(msg::Annotation{pool[rng.below(pool.size())], id, true});
        }
        (void)host->buffer().add(std::move(msg));
      }
      hosts.push_back(std::move(host));
    }
  }

  /// Run the routing work of one contact between hosts \p ai and \p bi at
  /// \p now_s; returns the number of forward plans produced (both ways).
  std::size_t contact(std::size_t ai, std::size_t bi, double now_s,
                      std::vector<routing::ForwardPlan>& plans) {
    routing::Host& a = *hosts[ai];
    routing::Host& b = *hosts[bi];
    const auto now = util::SimTime::seconds(now_s);
    a.router().pre_exchange(a, now, {});
    b.router().pre_exchange(b, now, {});
    a.router().on_link_up(a, b, now, 50.0);
    b.router().on_link_up(b, a, now, 50.0);
    std::size_t produced = 0;
    a.router().plan_into(a, b, now, plans);
    produced += plans.size();
    b.router().plan_into(b, a, now, plans);
    produced += plans.size();
    a.router().on_link_down(a, b, now);
    b.router().on_link_down(b, a, now);
    return produced;
  }

  routing::StaticInterestOracle oracle;
  core::IncentiveWorld world;
  std::vector<msg::KeywordId> pool;
  std::vector<std::unique_ptr<routing::Host>> hosts;
};

void BM_RoutingExchangePlan(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  ExchangeWorld world(nodes, /*msgs_per_node=*/32, /*keywords=*/64);
  std::vector<routing::ForwardPlan> plans;
  double t = 0.0;
  std::size_t pair = 0;
  for (auto _ : state) {
    t += 5.0;
    const std::size_t a = pair % world.hosts.size();
    const std::size_t b = (pair + 1) % world.hosts.size();
    ++pair;
    benchmark::DoNotOptimize(world.contact(a, b, t, plans));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingExchangePlan)->Arg(16)->Arg(64);

/// Repeated interest-strength queries over a stable table: one
/// ChitChatRouter::message_strength (a sum_weights over the message's
/// keywords) per buffered message.
void BM_MessageStrengthQuery(benchmark::State& state) {
  ExchangeWorld world(/*nodes=*/2, /*msgs_per_node=*/64, /*keywords=*/64);
  routing::Host& host = *world.hosts[0];
  auto* router = routing::ChitChatRouter::of(host);
  double sum = 0.0;
  for (auto _ : state) {
    host.buffer().for_each([&](const msg::Message& m) { sum += router->message_strength(m); });
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MessageStrengthQuery);

void BM_ScenarioMinute(benchmark::State& state) {
  // End-to-end cost of one simulated minute of a 40-node incentive world
  // (builds once; repeatedly extends the horizon).
  scenario::ScenarioConfig cfg = scenario::ScenarioConfig::scaled_defaults(40, 1.0);
  cfg.messages_per_node_per_hour = 1.0;
  cfg.seed = 3;
  for (auto _ : state) {
    state.PauseTiming();
    scenario::Scenario sim(cfg);
    state.ResumeTiming();
    (void)sim.run();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.sim_hours * 60));
  state.SetLabel("simulated-minutes/iter=60");
}
BENCHMARK(BM_ScenarioMinute)->Unit(benchmark::kMillisecond)->Iterations(3);

/// Event fan-out dispatch cost per sink count. Arg(0) is the empty-hub case
/// every Host pays when no observer is attached — the number the "<2%
/// no-sink overhead" acceptance bound rests on; Arg(1)/Arg(4) add
/// MetricsCollector sinks (pure counter updates, no I/O).
void BM_EventFanoutDispatch(benchmark::State& state) {
  const int sinks = static_cast<int>(state.range(0));
  obs::EventFanout fanout;
  std::vector<std::unique_ptr<stats::MetricsCollector>> collectors;
  std::vector<obs::SinkHandle> handles;
  for (int i = 0; i < sinks; ++i) {
    collectors.push_back(std::make_unique<stats::MetricsCollector>());
    handles.push_back(fanout.add_sink(*collectors.back()));
  }
  const msg::Message m(util::MessageId(0), util::NodeId(0), util::SimTime::zero(),
                       1024, msg::Priority::kMedium, 0.5);
  for (auto _ : state) {
    fanout.on_transfer_started(util::NodeId(0), util::NodeId(1), m,
                               routing::TransferRole::kRelay);
    fanout.on_relayed(util::NodeId(0), util::NodeId(1), m);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EventFanoutDispatch)->Arg(0)->Arg(1)->Arg(4);

/// Hand-timed run of one contact-scan kernel for the machine-readable
/// summary: returns ns per scan and the pair count of the last scan.
struct KernelSample {
  double ns_per_scan = 0.0;
  std::size_t pairs = 0;
};

KernelSample time_scan_kernel(bool incremental, int nodes, int iterations) {
  ScanWorld world(nodes);
  net::SpatialGrid grid(100.0);
  std::vector<std::size_t> slots;
  if (incremental) {
    slots.resize(world.pos.size());
    for (int i = 0; i < nodes; ++i) {
      slots[static_cast<std::size_t>(i)] =
          grid.insert(util::NodeId(static_cast<util::NodeId::underlying>(i)),
                      world.pos[static_cast<std::size_t>(i)]);
    }
  }
  std::vector<net::SpatialGrid::Pair> pairs;
  // The reported statistic is the *minimum* per-chunk mean over several
  // contiguous chunks of iterations, not the mean of one long window: on a
  // shared host, any chunk that overlaps a preemption or a frequency dip is
  // inflated by scheduler noise, while the fastest chunk is the closest
  // observable estimate of the kernel's own cost (the same reasoning behind
  // google-benchmark's repetition minimum). The workload is identical every
  // iteration modulo the random walk, so chunk means are comparable.
  constexpr int kChunks = 10;
  const int chunk_iters = std::max(1, iterations / kChunks);
  double best_chunk_ns = std::numeric_limits<double>::infinity();
  int done = 0;
  while (done < iterations) {
    const int todo = std::min(chunk_iters, iterations - done);
    const auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < todo; ++it) {
      world.step();
      if (incremental) {
        for (std::size_t i = 0; i < slots.size(); ++i) grid.update_slot(slots[i], world.pos[i]);
      } else {
        grid.clear();
        for (int i = 0; i < nodes; ++i) {
          (void)grid.insert(util::NodeId(static_cast<util::NodeId::underlying>(i)),
                            world.pos[static_cast<std::size_t>(i)]);
        }
      }
      grid.pairs_within(100.0, pairs);
      benchmark::DoNotOptimize(pairs.data());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double chunk_ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
        static_cast<double>(todo);
    best_chunk_ns = std::min(best_chunk_ns, chunk_ns);
    done += todo;
  }
  KernelSample sample;
  sample.ns_per_scan = best_chunk_ns;
  sample.pairs = pairs.size();
  return sample;
}

/// Emit BENCH_contact_scan.json: a machine-readable summary of the contact
/// scan kernels for CI (bench-smoke) and regression tracking. Controlled by
/// DTNIC_BENCH_JSON (output path; default alongside the binary) and
/// DTNIC_BENCH_JSON_FAST (any value: fewer iterations, smoke-test scale).
void write_contact_scan_json() {
  const char* path_env = std::getenv("DTNIC_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_contact_scan.json";
  const bool fast = std::getenv("DTNIC_BENCH_JSON_FAST") != nullptr;

  struct Case {
    const char* kernel;
    bool incremental;
    int nodes;
  };
  constexpr Case kCases[] = {
      {"scan_incremental", true, 100},  {"scan_incremental", true, 500},
      {"scan_incremental", true, 2000}, {"scan_rebuild", false, 100},
      {"scan_rebuild", false, 500},     {"scan_rebuild", false, 2000},
  };

  std::ofstream os(path);
  if (!os) {
    std::cerr << "micro_kernel: cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"schema\": \"dtnic.contact_scan_bench.v1\",\n  \"results\": [\n";
  bool first = true;
  auto row = [&](const std::string& kernel, int nodes, int iterations,
                 const KernelSample& sample) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"kernel\": \"" << kernel << "\", \"nodes\": " << nodes
       << ", \"iterations\": " << iterations << ", \"ns_per_scan\": " << sample.ns_per_scan
       << ", \"pairs\": " << sample.pairs << "}";
  };
  for (const Case& c : kCases) {
    const int iterations = fast ? 20 : (c.nodes >= 2000 ? 500 : 2000);
    row(c.kernel, c.nodes, iterations, time_scan_kernel(c.incremental, c.nodes, iterations));
  }
  os << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// Hand-timed event-queue sample: ns per queue operation and the operation
/// count of one iteration.
struct EventQueueSample {
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
};

/// Fill-then-drain with uniformly random times: every pop sifts through a
/// heap of the full size.
EventQueueSample time_eventq_push_pop(int events, int iterations) {
  util::Rng rng(2);
  std::uint64_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    sim::EventQueue q;
    for (int i = 0; i < events; ++i) {
      (void)q.push(util::SimTime::seconds(rng.uniform(0.0, 1000.0)), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
    }
    ops += 2ull * static_cast<std::uint64_t>(events);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EventQueueSample sample;
  sample.ops = ops / static_cast<std::uint64_t>(iterations);
  sample.ns_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(ops);
  return sample;
}

/// Timeout-style usage: ~15/16 of pushed events are cancelled before firing.
EventQueueSample time_eventq_cancel_churn(int events, int iterations) {
  util::Rng rng(9);
  std::uint64_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(events));
    for (int i = 0; i < events; ++i) {
      ids.push_back(q.push(util::SimTime::seconds(rng.uniform(0.0, 1000.0)), [] {}));
      ++ops;
      if (!ids.empty() && rng.below(16) != 0) {
        const std::size_t victim = rng.below(ids.size());
        q.cancel(ids[victim]);
        ids[victim] = ids.back();
        ids.pop_back();
        ++ops;
      }
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop().time);
      ++ops;
    }
    benchmark::DoNotOptimize(q.heap_entries());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EventQueueSample sample;
  sample.ops = ops / static_cast<std::uint64_t>(iterations);
  sample.ns_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(ops);
  return sample;
}

/// Steady-state simulator shape: a working set of periodic events that
/// re-arm themselves on fire (contact scans, battery drains, samplers): a
/// fixed-size heap whose slab records are recycled on every re-arm.
EventQueueSample time_eventq_periodic(int events, int iterations) {
  util::Rng rng(12);
  sim::EventQueue q;
  double t = 0.0;
  for (int i = 0; i < events; ++i) {
    (void)q.push(util::SimTime::seconds(rng.uniform(0.0, 10.0)), [] {});
  }
  std::uint64_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    for (int i = 0; i < events; ++i) {
      auto popped = q.pop();
      t = popped.time.sec();
      // Re-arm with the jittered period the scenario layer uses for scans.
      (void)q.push(util::SimTime::seconds(t + 5.0 + rng.uniform(0.0, 0.5)), [] {});
      ops += 2;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EventQueueSample sample;
  sample.ops = ops / static_cast<std::uint64_t>(iterations);
  sample.ns_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(ops);
  return sample;
}

/// Emit BENCH_event_queue.json: machine-readable summary of the event queue
/// kernels. Controlled by DTNIC_BENCH_JSON_EVENTQ (output path;
/// default alongside the binary) and DTNIC_BENCH_JSON_FAST (smoke scale).
void write_event_queue_json() {
  const char* path_env = std::getenv("DTNIC_BENCH_JSON_EVENTQ");
  const std::string path = path_env != nullptr ? path_env : "BENCH_event_queue.json";
  const bool fast = std::getenv("DTNIC_BENCH_JSON_FAST") != nullptr;

  std::ofstream os(path);
  if (!os) {
    std::cerr << "micro_kernel: cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"schema\": \"dtnic.event_queue_bench.v1\",\n  \"results\": [\n";
  bool first = true;
  auto row = [&](const char* kernel, int events, int iterations,
                 const EventQueueSample& sample) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"kernel\": \"" << kernel << "\", \"events\": " << events
       << ", \"iterations\": " << iterations << ", \"ns_per_op\": " << sample.ns_per_op
       << ", \"ops\": " << sample.ops << "}";
  };
  for (const int events : {1024, 16384}) {
    const int iterations = fast ? 10 : (events >= 16384 ? 100 : 1000);
    row("push_pop_random", events, iterations, time_eventq_push_pop(events, iterations));
  }
  {
    const int iterations = fast ? 10 : 100;
    row("cancel_churn", 16384, iterations, time_eventq_cancel_churn(16384, iterations));
  }
  {
    const int iterations = fast ? 50 : 5000;
    row("periodic_ticks", 256, iterations, time_eventq_periodic(256, iterations));
  }
  os << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// Hand-timed exchange-pipeline sample: ns per contact (or per strength
/// query) and the plan count of the last contact.
struct ExchangeSample {
  double ns_per_op = 0.0;
  std::size_t plans = 0;
};

/// Fastest of several timed calls of \p block (after one untimed warm-up
/// call), in ns per operation of \p ops operations per call; \p prepare
/// runs untimed before every call. Smoke-scale rows last well under a
/// millisecond, so a single timing absorbs a cold cache or one preemption
/// whole; the work is alike in every call, only the clock varies.
template <class Prepare, class Block>
double best_ns_per_op(Prepare&& prepare, Block&& block, double ops) {
  constexpr int kTimedBlocks = 5;
  prepare();
  block();
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (int b = 0; b < kTimedBlocks; ++b) {
    prepare();
    const auto start = std::chrono::steady_clock::now();
    block();
    best = std::min<std::int64_t>(best, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::steady_clock::now() - start)
                                            .count());
  }
  return static_cast<double>(best) / ops;
}

/// Each timed call replays the same \p iterations contacts on a freshly
/// built world.
ExchangeSample time_exchange_kernel(int nodes, int msgs_per_node, int iterations) {
  std::optional<ExchangeWorld> world;
  std::vector<routing::ForwardPlan> plans;
  std::size_t last = 0;
  ExchangeSample sample;
  sample.ns_per_op = best_ns_per_op(
      [&] { world.emplace(nodes, msgs_per_node, /*keywords=*/64); },
      [&] {
        double t = 0.0;
        for (int it = 0; it < iterations; ++it) {
          t += 5.0;
          const std::size_t a = static_cast<std::size_t>(it) % world->hosts.size();
          const std::size_t b = (static_cast<std::size_t>(it) + 1) % world->hosts.size();
          last = world->contact(a, b, t, plans);
          benchmark::DoNotOptimize(last);
        }
      },
      iterations);
  sample.plans = last;
  return sample;
}

ExchangeSample time_strength_kernel(int messages, int iterations) {
  ExchangeWorld world(/*nodes=*/2, messages, /*keywords=*/64);
  routing::Host& host = *world.hosts[0];
  auto* router = routing::ChitChatRouter::of(host);
  double sum = 0.0;
  ExchangeSample sample;
  sample.ns_per_op = best_ns_per_op(
      [] {},
      [&] {
        for (int it = 0; it < iterations; ++it) {
          host.buffer().for_each(
              [&](const msg::Message& m) { sum += router->message_strength(m); });
        }
        benchmark::DoNotOptimize(sum);
      },
      static_cast<double>(iterations) * static_cast<double>(messages));
  sample.plans = 0;
  return sample;
}

/// Hand-timed interest-table kernel: ns per decay_against (or grow_from)
/// call on an InterestWorld.
ExchangeSample time_interest_kernel(bool grow, int iterations) {
  InterestWorld world;
  ExchangeSample sample;
  sample.ns_per_op = best_ns_per_op(
      [] {},
      [&] {
        for (int it = 0; it < iterations; ++it) {
          if (grow) {
            world.grow_step(5.0);
          } else {
            world.decay_step(5.0);
          }
        }
        benchmark::DoNotOptimize(world.tables[0].size());
      },
      iterations);
  sample.plans = 0;
  return sample;
}

/// Emit BENCH_routing_exchange.json: machine-readable summary of the
/// per-contact exchange/plan pipeline, the strength-query kernel, and the
/// interest-table decay/growth kernels.
/// Controlled by DTNIC_BENCH_JSON_EXCHANGE (output path; default alongside
/// the binary) and DTNIC_BENCH_JSON_FAST (fewer iterations, smoke scale).
void write_routing_exchange_json() {
  const char* path_env = std::getenv("DTNIC_BENCH_JSON_EXCHANGE");
  const std::string path = path_env != nullptr ? path_env : "BENCH_routing_exchange.json";
  const bool fast = std::getenv("DTNIC_BENCH_JSON_FAST") != nullptr;

  std::ofstream os(path);
  if (!os) {
    std::cerr << "micro_kernel: cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"schema\": \"dtnic.routing_exchange_bench.v1\",\n  \"results\": [\n";
  bool first = true;
  auto row = [&](const char* kernel, int nodes, int messages, int iterations,
                 const ExchangeSample& sample) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"kernel\": \"" << kernel << "\", \"nodes\": " << nodes
       << ", \"messages\": " << messages << ", \"iterations\": " << iterations
       << ", \"ns_per_op\": " << sample.ns_per_op << ", \"plans\": " << sample.plans << "}";
  };
  for (const int nodes : {16, 64}) {
    const int iterations = fast ? 20 : 2000;
    row("exchange_contact", nodes, 32, iterations,
        time_exchange_kernel(nodes, 32, iterations));
  }
  {
    const int iterations = fast ? 50 : 20000;
    row("strength_recompute", 2, 64, iterations, time_strength_kernel(64, iterations));
  }
  // "nodes" counts the tables involved: a node and its 3 neighbors for the
  // decay, a node and one peer for the growth; "messages" is unused (0).
  for (const bool grow : {false, true}) {
    const int iterations = fast ? 2000 : 200000;
    row(grow ? "interest_grow_from" : "interest_decay_against", grow ? 2 : 4, 0, iterations,
        time_interest_kernel(grow, iterations));
  }
  os << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// Hand-timed fan-out dispatch: ns per event across sink counts, plus a
/// TraceSink writing to a discarding stream (serialization cost without I/O).
struct ObsSample {
  double ns_per_event = 0.0;
  std::uint64_t events = 0;
};

/// A stream that swallows everything (measures formatting, not the disk).
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

ObsSample time_fanout_kernel(int sinks, int iterations) {
  obs::EventFanout fanout;
  std::vector<std::unique_ptr<stats::MetricsCollector>> collectors;
  std::vector<obs::SinkHandle> handles;
  for (int i = 0; i < sinks; ++i) {
    collectors.push_back(std::make_unique<stats::MetricsCollector>());
    handles.push_back(fanout.add_sink(*collectors.back()));
  }
  const msg::Message m(util::MessageId(0), util::NodeId(0), util::SimTime::zero(),
                       1024, msg::Priority::kMedium, 0.5);
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    fanout.on_transfer_started(util::NodeId(0), util::NodeId(1), m,
                               routing::TransferRole::kRelay);
    fanout.on_relayed(util::NodeId(0), util::NodeId(1), m);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ObsSample sample;
  sample.events = static_cast<std::uint64_t>(iterations) * 2;
  sample.ns_per_event =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(sample.events);
  return sample;
}

ObsSample time_trace_null_kernel(int iterations) {
  NullBuf devnull;
  std::ostream os(&devnull);
  obs::TraceOptions opt;
  opt.scheme = "bench";
  obs::TraceSink sink(os, opt);
  obs::EventFanout fanout;
  stats::MetricsCollector metrics;
  auto hm = fanout.add_sink(metrics);
  auto ht = fanout.add_sink(sink);
  const msg::Message m(util::MessageId(0), util::NodeId(0), util::SimTime::zero(),
                       1024, msg::Priority::kMedium, 0.5);
  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iterations; ++it) {
    fanout.on_transfer_started(util::NodeId(0), util::NodeId(1), m,
                               routing::TransferRole::kRelay);
    fanout.on_relayed(util::NodeId(0), util::NodeId(1), m);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ObsSample sample;
  sample.events = static_cast<std::uint64_t>(iterations) * 2;
  sample.ns_per_event =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(sample.events);
  return sample;
}

/// Emit BENCH_observability.json: dispatch cost of the event fan-out per
/// sink count and the JSONL serialization kernel. Controlled by
/// DTNIC_BENCH_JSON_OBS (output path; default alongside the binary) and
/// DTNIC_BENCH_JSON_FAST (fewer iterations, smoke scale).
void write_observability_json() {
  const char* path_env = std::getenv("DTNIC_BENCH_JSON_OBS");
  const std::string path = path_env != nullptr ? path_env : "BENCH_observability.json";
  const bool fast = std::getenv("DTNIC_BENCH_JSON_FAST") != nullptr;

  std::ofstream os(path);
  if (!os) {
    std::cerr << "micro_kernel: cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"schema\": \"dtnic.observability_bench.v1\",\n  \"results\": [\n";
  bool first = true;
  auto row = [&](const char* kernel, int sinks, int iterations, const ObsSample& sample) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"kernel\": \"" << kernel << "\", \"sinks\": " << sinks
       << ", \"iterations\": " << iterations << ", \"ns_per_event\": " << sample.ns_per_event
       << ", \"events\": " << sample.events << "}";
  };
  const int iterations = fast ? 2000 : 2000000;
  for (const int sinks : {0, 1, 4}) {
    row("fanout_dispatch", sinks, iterations, time_fanout_kernel(sinks, iterations));
  }
  const int trace_iterations = fast ? 1000 : 200000;
  row("trace_null_sink", 2, trace_iterations, time_trace_null_kernel(trace_iterations));
  os << "\n  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_contact_scan_json();
  write_event_queue_json();
  write_routing_exchange_json();
  write_observability_json();
  return 0;
}
