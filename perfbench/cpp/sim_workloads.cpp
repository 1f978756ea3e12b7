#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/trace_sink.h"
#include "scenario/scenario.h"
#include "sinks.h"
#include "workloads.h"

/// \file sim_workloads.cpp
/// The simulator workloads. One repetition constructs a Scenario from a
/// generated config and calls run(); a probe event on the simulator reads
/// the host clock at every scan-interval tick.

namespace perfbench {
namespace {

using dtnic::scenario::PhaseTimings;
using dtnic::scenario::RunResult;
using dtnic::scenario::Scenario;
using dtnic::scenario::ScenarioConfig;
using dtnic::scenario::Scheme;
using dtnic::util::SimTime;

/// Intra-run worker threads for mega_field: shard and exchange pools of
/// k workers each, where the caller thread runs one shard, so the process
/// holds 2k - 1 threads; k is the largest value keeping that within nproc.
std::size_t mega_pool_threads() {
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, (nproc + 1) / 2);
}

/// A workload is one base config instantiated with `scenarios` seeds derived
/// from the run's seed. Pooling independent scenarios keeps the figures
/// steady from seed to seed.
struct SimPlan {
  ScenarioConfig base;
  std::size_t scenarios = 1;
  std::uint64_t seed_stream = 0;  ///< keeps workloads' seed streams apart
};

SimPlan sim_plan(const std::string& workload) {
  SimPlan plan;
  ScenarioConfig& cfg = plan.base;
  if (workload == "paper_economy") {
    // Table 5.1: 500 users on ~5 km², 100 m / 250 kBps radio, 250 MB
    // buffers, 1 MB messages. A 20-token allowance against a 10-token
    // maximum incentive makes the economy bind within the horizon.
    cfg = ScenarioConfig::paper_defaults();
    cfg.scheme = Scheme::kIncentive;
    cfg.incentive.initial_tokens = 20.0;
    cfg.selfish_fraction = 0.2;
    cfg.malicious_fraction = 0.1;
    cfg.priority_workload = true;
    cfg.messages_per_node_per_hour = 1.0;
    cfg.sim_hours = 0.5;
    plan.scenarios = 3;
    plan.seed_stream = 0x100;
  } else if (workload == "flood_churn") {
    // Epidemic flooding into 16-message buffers with a TTL well under the
    // horizon: the transfer/buffer layers store, evict and expire copies.
    cfg = ScenarioConfig::scaled_defaults(300, 0.75);
    cfg.scheme = Scheme::kEpidemic;
    cfg.buffer_capacity_bytes = 16 * cfg.message_size_bytes;
    cfg.messages_per_node_per_hour = 2.0;
    cfg.ttl_hours = 0.25;
    cfg.ttl_sweep_interval_s = 60.0;
    plan.scenarios = 6;
    plan.seed_stream = 0x200;
  } else if (workload == "mega_field") {
    // Table 5.1 density at 10^4 users over a short horizon (>= 100 ticks).
    cfg = ScenarioConfig::scaled_defaults(10'000, 0.15);
    cfg.scheme = Scheme::kIncentive;
    cfg.messages_per_node_per_hour = 0.5;
    cfg.shard_threads = mega_pool_threads();
    cfg.exchange_threads = mega_pool_threads();
    plan.scenarios = 2;
    plan.seed_stream = 0x300;
  } else {
    throw std::invalid_argument("unknown simulator workload: " + workload);
  }
  return plan;
}

/// One construct + run() of a scenario, with its host-side probes.
struct SimRep {
  double setup_s = 0.0;
  double run_s = 0.0;
  RunResult result;
  std::uint64_t sim_events = 0;
  std::uint64_t reputation_updates = 0;
  std::uint64_t enrichments = 0;
  std::vector<double> tick_ms;  ///< host time of each scan-interval tick
  double first_tick_s = 0.0;    ///< simulated time of the probe's first firing
  /// Simulated (created, delivered) times of every delivery; kept from each
  /// input's first untraced run only, as they repeat exactly.
  DeliveryClock::SimTimes deliveries;
  // Traced repetitions only.
  EventCounter counter;
  std::size_t links_peak = 0;
  std::size_t buffer_peak = 0;
};

bool same_series(const dtnic::stats::TimeSeries& a, const dtnic::stats::TimeSeries& b) {
  if (a.initial_value() != b.initial_value() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.samples()[i].time.sec() != b.samples()[i].time.sec() ||
        a.samples()[i].value != b.samples()[i].value) {
      return false;
    }
  }
  return true;
}

/// Every RunResult field except the host-side timing and artifact list.
bool same_outcome(const RunResult& a, const RunResult& b) {
  return a.scheme == b.scheme && a.seed == b.seed && a.created == b.created &&
         a.delivered == b.delivered && a.mdr == b.mdr && a.mean_hops == b.mean_hops &&
         a.mean_latency_s == b.mean_latency_s && a.deliveries_total == b.deliveries_total &&
         a.created_high == b.created_high && a.created_medium == b.created_medium &&
         a.created_low == b.created_low && a.delivered_high == b.delivered_high &&
         a.delivered_medium == b.delivered_medium && a.delivered_low == b.delivered_low &&
         a.mdr_high == b.mdr_high && a.mdr_medium == b.mdr_medium && a.mdr_low == b.mdr_low &&
         a.traffic == b.traffic && a.relay_arrivals == b.relay_arrivals &&
         a.contacts == b.contacts && a.contacts_suppressed == b.contacts_suppressed &&
         a.avg_final_tokens == b.avg_final_tokens && a.min_final_tokens == b.min_final_tokens &&
         a.max_final_tokens == b.max_final_tokens && a.token_fairness == b.token_fairness &&
         a.total_tokens == b.total_tokens && a.tokens_paid == b.tokens_paid &&
         a.payments == b.payments && a.refused_no_tokens == b.refused_no_tokens &&
         a.refused_untrusted == b.refused_untrusted && a.aborted == b.aborted &&
         a.dropped_buffer == b.dropped_buffer && a.dropped_ttl == b.dropped_ttl &&
         a.total_energy_j == b.total_energy_j &&
         same_series(a.malicious_rating, b.malicious_rating) &&
         same_series(a.mean_tokens, b.mean_tokens);
}

SimRep run_rep(const ScenarioConfig& cfg, bool traced, bool keep_deliveries, SpanRecorder& spans,
               Ledger& ledger) {
  SimRep rep;
  const ScopedSpan rep_span(spans, "rep", -1);

  const auto t0 = Clock::now();
  std::unique_ptr<Scenario> owned;
  {
    const ScopedSpan s(spans, "Scenario::Scenario", rep_span.id());
    owned = std::make_unique<Scenario>(cfg);
  }
  rep.setup_s = seconds_between(t0, Clock::now());
  Scenario& sc = *owned;
  const double tokens_before = sc.total_tokens();

  DeliveryClock clock;
  clock.record_sim_times([&sc] { return sc.simulator().now().sec(); });
  const auto clock_handle = sc.events().add_sink(clock);
  std::ostringstream trace_text;
  std::unique_ptr<dtnic::obs::TraceSink> trace;
  dtnic::obs::SinkHandle counter_handle;
  dtnic::obs::SinkHandle trace_handle;
  if (traced) {
    counter_handle = sc.events().add_sink(rep.counter);
    dtnic::obs::TraceOptions topt;
    topt.clock = [&sc] { return sc.simulator().now(); };
    topt.seed = cfg.seed;
    topt.scheme = dtnic::scenario::scheme_name(cfg.scheme);
    trace = std::make_unique<dtnic::obs::TraceSink>(trace_text, topt);
    trace_handle = sc.events().add_sink(*trace);
  }

  // The tick probe: scheduled before run(), it fires once per scan interval
  // and reads the host clock (plus link/buffer occupancy when traced).
  Clock::time_point last_tick{};
  bool have_tick = false;
  sc.simulator().schedule_every(SimTime::seconds(cfg.scan_interval_s), [&] {
    const auto now = Clock::now();
    if (have_tick) {
      rep.tick_ms.push_back(seconds_between(last_tick, now) * 1e3);
    } else {
      rep.first_tick_s = sc.simulator().now().sec();
    }
    last_tick = now;
    have_tick = true;
    if (traced) {
      rep.links_peak = std::max(rep.links_peak, sc.transfers().links_tracked());
      for (std::size_t i = 0; i < sc.node_count(); ++i) {
        const auto id = dtnic::routing::NodeId(static_cast<std::uint32_t>(i));
        rep.buffer_peak = std::max(rep.buffer_peak, sc.host(id).buffer().size());
      }
    }
  });

  const auto t1 = Clock::now();
  {
    const ScopedSpan s(spans, "Scenario::run", rep_span.id());
    rep.result = sc.run();
  }
  rep.run_s = seconds_between(t1, Clock::now());
  rep.sim_events = sc.simulator().events_processed();
  rep.reputation_updates = sc.metrics().reputation_updates();
  rep.enrichments = sc.metrics().enrichments();
  DeliveryClock::SimTimes deliveries = clock.take_sim_times();

  const RunResult& r = rep.result;
  const double tokens_after = sc.total_tokens();
  ledger.check(std::abs(tokens_after - tokens_before) <= 1e-9 * std::max(1.0, tokens_before),
               "token conservation: " + std::to_string(tokens_before) + " before run, " +
                   std::to_string(tokens_after) + " after");
  ledger.check(r.delivered <= r.created, "delivered <= created");
  ledger.check(r.timing.exchange_replans == 0, "exchange_replans == 0");
  ledger.check(rep.tick_ms.size() >= 100,
               "at least 100 ticks per run (got " + std::to_string(rep.tick_ms.size()) + ")");
  ledger.check(clock.unmatched() == 0, "every delivery matches a created message");
  ledger.check(deliveries.size() == r.deliveries_total,
               "the latency probe saw every (message, destination) delivery");
  if (keep_deliveries) rep.deliveries = std::move(deliveries);
  if (traced) {
    trace->flush();
    ledger.check(trace->ok(), "trace stream written completely");
    check_replay(ledger, trace_text.str(), sc.metrics(),
                 "scenario seed " + std::to_string(cfg.seed));
  }
  return rep;
}

using SimPass = Pass<SimRep>;

/// One input's replay timeline. Every pass replays the same deterministic
/// scenario, so the k-th scan interval does the same work in every pass; its
/// host time here is the fastest over the given passes. A slow spell of the
/// shared host moves the timeline only where it hits the same interval in
/// every pass.
struct Timeline {
  std::vector<double> tick_ms;  ///< fastest host time of each interval
  std::vector<double> at_ms;    ///< host time at each probe firing, from the first
  double first_s = 0.0;         ///< simulated time of the first probe firing
  double step_s = 0.0;          ///< scan interval

  /// Host ms at simulated time \p t, interpolated within its interval and
  /// clamped to the span the probe covers.
  [[nodiscard]] double host_ms(double t) const {
    const double k = (t - first_s) / step_s;
    if (k <= 0.0) return 0.0;
    const auto i = static_cast<std::size_t>(k);
    if (i >= tick_ms.size()) return at_ms.back();
    return at_ms[i] + (k - static_cast<double>(i)) * tick_ms[i];
  }
};

Timeline timeline_of(const std::vector<SimPass>& passes, std::size_t input, double step_s,
                     Ledger& ledger) {
  const SimRep& first = passes.front().reps[input];
  Timeline tl{first.tick_ms, {}, first.first_tick_s, step_s};
  for (const SimPass& p : passes) {
    const SimRep& r = p.reps[input];
    if (!ledger.check(r.tick_ms.size() == tl.tick_ms.size() && r.first_tick_s == tl.first_s,
                      "every run of a scenario has the same ticks")) {
      continue;
    }
    for (std::size_t k = 0; k < tl.tick_ms.size(); ++k) {
      tl.tick_ms[k] = std::min(tl.tick_ms[k], r.tick_ms[k]);
    }
  }
  tl.at_ms.assign(1, 0.0);
  for (const double ms : tl.tick_ms) tl.at_ms.push_back(tl.at_ms.back() + ms);
  return tl;
}

/// One phase timer summed over \p runs, in ms.
double phase_ms(const SimPass& runs, std::uint64_t PhaseTimings::*field) {
  return sum_of(runs, [field](const SimRep& r) { return double(r.result.timing.*field); }) / 1e6;
}

double run_s(const SimPass& p) {
  return sum_of(p, [](const SimRep& r) { return r.run_s; });
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "paper_economy" || name == "flood_churn" || name == "mega_field";
}

WorkloadResult run_sim_workload(const Options& opt, Ledger& ledger, SpanRecorder& spans) {
  const SimPlan plan = sim_plan(opt.workload);
  std::vector<ScenarioConfig> cfgs(plan.scenarios, plan.base);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].seed = derive_seed(opt.seed, plan.seed_stream + i);
  }
  SpanRecorder no_spans(false);
  std::vector<SimPass> plain;
  std::vector<SimPass> traced;
  const double rss_mb = run_passes<SimRep>(
      opt, cfgs.size(),
      [&](std::size_t i, bool traced_run) {
        // Deliveries repeat exactly: keep them from the first untraced pass.
        const bool keep_deliveries = !traced_run && plain.empty();
        return run_rep(cfgs[i], traced_run, keep_deliveries, traced_run ? spans : no_spans,
                       ledger);
      },
      plain, traced);

  // Every run of a scenario, traced or not, must reproduce its outcome.
  const SimPass& first = plain.front();
  for (const std::vector<SimPass>* group : {&plain, &traced}) {
    for (const SimPass& pass : *group) {
      if (&pass == &first) continue;
      for (std::size_t i = 0; i < pass.reps.size(); ++i) {
        ledger.check(same_outcome(pass.reps[i].result, first.reps[i].result),
                     std::string(group == &traced ? "traced" : "untraced") +
                         " run of scenario seed " + std::to_string(cfgs[i].seed) +
                         " reproduces its RunResult outcome");
      }
    }
  }

  WorkloadResult out;
  out.reps = plain.size() * cfgs.size();
  out.traced_reps = traced.size() * cfgs.size();
  out.threads = "shard_threads=" + std::to_string(plan.base.shard_threads) +
                " exchange_threads=" + std::to_string(plan.base.exchange_threads);
  auto total = [&first](auto f) { return sum_of(first, f); };
  for (const SimPass& p : plain) out.pass_run_s.push_back(run_s(p));

  // The first pass warms the process up. On paper_economy and mega_field
  // later passes, which start with the earlier scenarios' memory freed on
  // the heap, ran 10-30 % slower than the first; a mix of the two states
  // would make the figures depend on how many passes the host's speed
  // allowed. Host-time figures read the passes after the first (or the only
  // one), through the inputs' replay timelines over them.
  const std::vector<SimPass> timed(plain.size() > 1 ? plain.begin() + 1 : plain.begin(),
                                   plain.end());
  std::vector<double> ticks;
  std::vector<double> latencies;
  double covered_s = 0.0;
  double timeline_s = 0.0;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Timeline tl = timeline_of(timed, i, plan.base.scan_interval_s, ledger);
    ticks.insert(ticks.end(), tl.tick_ms.begin(), tl.tick_ms.end());
    for (const auto& [created_s, delivered_s] : first.reps[i].deliveries) {
      latencies.push_back(tl.host_ms(delivered_s) - tl.host_ms(created_s));
    }
    covered_s += static_cast<double>(tl.tick_ms.size()) * tl.step_s;
    timeline_s += tl.at_ms.back() / 1e3;
  }
  out.tick_samples = ticks.size();
  out.latency_samples = latencies.size();

  EndToEnd& e = out.e2e;
  e.setup_s = median_of_fastest(timed, [](const SimRep& r) { return r.setup_s; });
  e.sim_speed = covered_s / timeline_s;
  e.tick_p50_ms = quantile(ticks, 0.5);
  e.tick_p90_ms = quantile(ticks, 0.9);
  e.live_latency_p50_ms = quantile(latencies, 0.5);
  e.live_latency_p99_ms = quantile(latencies, 0.99);
  e.live_msgs_per_s = static_cast<double>(latencies.size()) / timeline_s;
  e.peak_rss_mb = rss_mb;
  const double created = total([](const SimRep& r) { return double(r.result.created); });
  const double delivered = total([](const SimRep& r) { return double(r.result.delivered); });
  const double traffic = total([](const SimRep& r) { return double(r.result.traffic); });
  e.mdr = created > 0 ? delivered / created : 0.0;
  e.traffic_per_delivery = delivered > 0 ? traffic / delivered : 0.0;

  if (!opt.trace) return out;

  // Phase timers come from each input's fastest untraced run, so they carry
  // none of the tracing cost; counts repeat exactly across passes.
  const SimPass fastest = fastest_runs(timed);
  Layers& l = out.layers;
  const SimPass& t = traced.front();
  const double offers = sum_of(t, [](const SimRep& r) { return double(r.counter.offers()); });
  const double started = sum_of(t, [](const SimRep& r) { return double(r.counter.started); });
  const double events = sum_of(t, [](const SimRep& r) { return double(r.counter.events); });
  l.routing_commit_ms = phase_ms(fastest, &PhaseTimings::routing_commit_ns);
  l.routing_plan_ms = phase_ms(fastest, &PhaseTimings::routing_plan_ns);
  l.routing_pre_ms = phase_ms(fastest, &PhaseTimings::routing_pre_ns);
  l.routing_offers = offers;
  l.routing_accept_ratio = offers > 0 ? started / offers : 0.0;
  l.routing_refused_no_tokens =
      total([](const SimRep& r) { return double(r.result.refused_no_tokens); });
  l.routing_refused_untrusted =
      total([](const SimRep& r) { return double(r.result.refused_untrusted); });
  l.routing_exchange_replans =
      total([](const SimRep& r) { return double(r.result.timing.exchange_replans); });
  l.net_transfer_ms = phase_ms(fastest, &PhaseTimings::transfer_ns);
  l.net_transfers_started = traffic;
  l.net_abort_ratio =
      traffic > 0 ? total([](const SimRep& r) { return double(r.result.aborted); }) / traffic
                  : 0.0;
  l.msg_dropped_buffer = total([](const SimRep& r) { return double(r.result.dropped_buffer); });
  l.msg_dropped_ttl = total([](const SimRep& r) { return double(r.result.dropped_ttl); });
  for (const SimRep& r : t.reps) {
    l.msg_buffer_peak = std::max(l.msg_buffer_peak, double(r.buffer_peak));
    l.net_links_peak = std::max(l.net_links_peak, double(r.links_peak));
  }
  l.net_scan_ms = phase_ms(fastest, &PhaseTimings::scan_ns);
  l.net_scan_us_per_scan =
      l.net_scan_ms * 1e3 /
      sum_of(fastest, [](const SimRep& r) { return double(r.result.timing.scans); });
  l.net_contacts = total([](const SimRep& r) { return double(r.result.contacts); });
  l.scenario_unattributed_ms = sum_of(fastest, [](const SimRep& r) {
                                 const PhaseTimings& tm = r.result.timing;
                                 return double(tm.wall_ns) - double(tm.scan_ns + tm.routing_ns +
                                                                    tm.transfer_ns + tm.workload_ns);
                               }) / 1e6;
  l.scenario_workload_ms = phase_ms(fastest, &PhaseTimings::workload_ns);
  l.sim_events = total([](const SimRep& r) { return double(r.sim_events); });
  l.sim_ns_per_event = phase_ms(fastest, &PhaseTimings::wall_ns) * 1e6 / l.sim_events;
  l.core_payments = total([](const SimRep& r) { return double(r.result.payments); });
  l.core_reputation_updates = total([](const SimRep& r) { return double(r.reputation_updates); });
  l.core_enrichments = total([](const SimRep& r) { return double(r.enrichments); });
  l.obs_events = events;
  l.obs_ns_per_event =
      events > 0 ? (run_s(fastest_runs(traced)) - run_s(fastest)) * 1e9 / events : 0.0;
  return out;
}

}  // namespace perfbench
