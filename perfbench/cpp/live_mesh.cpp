#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "live/live_node.h"
#include "obs/trace_sink.h"
#include "sinks.h"
#include "util/rng.h"
#include "workloads.h"

/// \file live_mesh.cpp
/// The live-stack workload: LiveNodes in one process on one thread, full
/// mesh over loopback UDP (the host's loopback interface, not a real link),
/// stepped by a synthetic clock that advances a fixed step per round. An
/// open-loop Poisson schedule in synthetic time publishes small messages,
/// so per-frame cost dominates.

namespace perfbench {
namespace {

using dtnic::live::Endpoint;
using dtnic::live::LiveNode;
using dtnic::live::LiveNodeConfig;
using dtnic::routing::MessageId;
using dtnic::routing::NodeId;
using dtnic::util::SimTime;

constexpr std::size_t kMeshes = 12;  ///< independent meshes per pass
constexpr std::size_t kNodes = 12;
constexpr std::size_t kPoolSize = 32;
constexpr std::size_t kSubscriptionsPerNode = 3;
constexpr double kStepS = 0.005;           ///< synthetic seconds per round
constexpr double kPublishRatePerS = 40.0;  ///< aggregate, synthetic time
constexpr double kPublishWindowS = 30.0;   ///< synthetic publish window
constexpr double kDrainS = 2.0;            ///< settle time after the window
constexpr double kLinkUpDeadlineS = 10.0;  ///< synthetic link-up budget
constexpr std::uint64_t kMessageBytes = 256;
constexpr double kInitialTokens = 1e5;  ///< the economy never binds here
constexpr std::uint64_t kSeedStream = 0x400;

struct Publish {
  double at_s = 0.0;
  std::size_t node = 0;
  std::vector<std::string> labels;
};

/// The generated inputs of one mesh: pool, subscriptions, publish schedule.
struct MeshInputs {
  std::uint64_t protocol_seed = 0;
  std::vector<std::string> pool;
  std::vector<std::vector<std::string>> subscriptions;
  std::vector<Publish> schedule;
};

MeshInputs make_inputs(std::uint64_t seed) {
  dtnic::util::Rng rng(seed);
  MeshInputs in;
  in.protocol_seed = rng();
  for (std::size_t k = 0; k < kPoolSize; ++k) in.pool.push_back("kw" + std::to_string(k));
  in.subscriptions.resize(kNodes);
  for (auto& subs : in.subscriptions) {
    std::vector<std::string> shuffled = in.pool;
    rng.shuffle(shuffled);
    subs.assign(shuffled.begin(), shuffled.begin() + kSubscriptionsPerNode);
  }
  // Every message carries one keyword of a subscriber other than its
  // publisher, plus one random keyword.
  for (double t = rng.exponential(kPublishRatePerS); t < kPublishWindowS;
       t += rng.exponential(kPublishRatePerS)) {
    Publish p;
    p.at_s = t;
    p.node = rng.index(kNodes);
    const std::size_t target = (p.node + 1 + rng.index(kNodes - 1)) % kNodes;
    const auto& subs = in.subscriptions[target];
    p.labels.push_back(subs[rng.index(subs.size())]);
    const std::string& extra = in.pool[rng.index(in.pool.size())];
    if (extra != p.labels.front()) p.labels.push_back(extra);
    in.schedule.push_back(std::move(p));
  }
  return in;
}

LiveNodeConfig node_config(const MeshInputs& in, std::size_t index) {
  LiveNodeConfig cfg;
  cfg.node = NodeId(static_cast<std::uint32_t>(index + 1));
  cfg.listen_port = 0;
  cfg.hello_interval_s = 0.25;
  cfg.peer_timeout_s = 1.0;
  cfg.scenario.scheme = dtnic::scenario::Scheme::kIncentive;
  cfg.scenario.seed = in.protocol_seed;
  cfg.scenario.incentive.initial_tokens = kInitialTokens;
  cfg.keywords = in.pool;
  return cfg;
}

/// One mesh run: set up + link up, publish the schedule, drain. Counts
/// are summed over the mesh's nodes.
struct MeshRep {
  double setup_s = 0.0;
  double run_s = 0.0;  ///< host seconds of the publish window + drain
  double synthetic_s = 0.0;
  Tails tails;
  std::size_t rounds = 0;
  std::size_t published = 0;
  std::size_t delivered_unique = 0;
  std::uint64_t traffic = 0;  ///< transfers started
  std::uint64_t aborted = 0;
  std::uint64_t dropped_buffer = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t refused_no_tokens = 0;
  std::uint64_t refused_untrusted = 0;
  std::uint64_t payments = 0;
  std::uint64_t reputation_updates = 0;
  std::uint64_t enrichments = 0;
  std::uint64_t rejected_frames = 0;
  std::size_t buffer_peak = 0;  ///< largest node buffer at the end
  std::size_t links = 0;        ///< mesh links up at the end
  // Traced repetitions only.
  std::uint64_t offers = 0;  ///< transfers started + refusals
  std::uint64_t events = 0;  ///< events dispatched
};

MeshRep run_rep(const MeshInputs& in, bool traced, SpanRecorder& spans, Ledger& ledger) {
  MeshRep rep;
  const ScopedSpan rep_span(spans, "rep", -1);

  // --- set-up: construct the nodes and bring every link of the mesh up ---
  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<LiveNode>> nodes;
  SimTime now = SimTime::zero();
  bool linked = false;
  {
    const ScopedSpan setup(spans, "setup", rep_span.id());
    for (std::size_t i = 0; i < kNodes; ++i) {
      const ScopedSpan s(spans, "LiveNode::LiveNode", setup.id());
      nodes.push_back(std::make_unique<LiveNode>(node_config(in, i)));
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      for (std::size_t j = 0; j < kNodes; ++j) {
        if (i == j) continue;
        nodes[i]->add_seed_peer(NodeId(static_cast<std::uint32_t>(j + 1)),
                                Endpoint{"127.0.0.1", nodes[j]->local_port()});
      }
      nodes[i]->subscribe(in.subscriptions[i], now);
    }
    while (!linked && now.sec() < kLinkUpDeadlineS) {
      for (auto& n : nodes) n->service(now);
      now = now + SimTime::seconds(kStepS);
      linked = std::all_of(nodes.begin(), nodes.end(),
                           [](const auto& n) { return n->links_up() == kNodes - 1; });
    }
  }
  rep.setup_s = seconds_between(t0, Clock::now());
  ledger.check(linked, "every mesh link came up during set-up");

  double tokens_before = 0.0;
  for (const auto& n : nodes) tokens_before += n->tokens();

  DeliveryClock clock;
  EventCounter counter;
  std::vector<std::unique_ptr<std::ostringstream>> trace_text;
  std::vector<std::unique_ptr<dtnic::obs::TraceSink>> traces;
  std::vector<dtnic::obs::SinkHandle> handles;  // unregisters before the sinks die
  for (auto& n : nodes) {
    handles.push_back(n->events().add_sink(clock));
    if (!traced) continue;
    handles.push_back(n->events().add_sink(counter));
    trace_text.push_back(std::make_unique<std::ostringstream>());
    dtnic::obs::TraceOptions topt;
    topt.clock = [node = n.get()] { return node->now(); };
    topt.seed = in.protocol_seed;
    topt.scheme = dtnic::scenario::scheme_name(dtnic::scenario::Scheme::kIncentive);
    traces.push_back(std::make_unique<dtnic::obs::TraceSink>(*trace_text.back(), topt));
    handles.push_back(n->events().add_sink(*traces.back()));
  }

  // --- measured phase: open-loop publishing, then drain -------------------
  std::vector<MessageId> published;
  published.reserve(in.schedule.size());
  const double phase_start_s = now.sec();
  const double phase_end_s = phase_start_s + kPublishWindowS + kDrainS;
  std::size_t next = 0;
  std::vector<double> tick_ms;
  const auto t1 = Clock::now();
  Clock::time_point last_round = t1;
  while (now.sec() < phase_end_s) {
    now = now + SimTime::seconds(kStepS);
    const auto round_start = Clock::now();
    const std::int32_t round_span = spans.begin("round", rep_span.id());
    while (next < in.schedule.size() &&
           phase_start_s + in.schedule[next].at_s <= now.sec()) {
      const Publish& p = in.schedule[next++];
      const auto tp = Clock::now();
      const MessageId id = nodes[p.node]->publish(p.labels, now, kMessageBytes,
                                                   dtnic::msg::Priority::kMedium, 1.0);
      spans.add("LiveNode::publish", tp, Clock::now(), round_span);
      clock.set_origin(id, tp);
      published.push_back(id);
    }
    for (auto& n : nodes) {
      if (traced) {
        const auto ts = Clock::now();
        n->service(now);
        spans.add("LiveNode::service", ts, Clock::now(), round_span);
      } else {
        n->service(now);
      }
    }
    spans.end(round_span);
    if (rep.rounds > 0) tick_ms.push_back(seconds_between(last_round, round_start) * 1e3);
    last_round = round_start;
    ++rep.rounds;
  }
  rep.run_s = seconds_between(t1, Clock::now());
  rep.synthetic_s = now.sec() - phase_start_s;
  rep.published = published.size();
  rep.delivered_unique = clock.delivered_unique();
  rep.tails = tails_of(tick_ms, clock.latencies_ms());

  double tokens_after = 0.0;
  for (const auto& n : nodes) {
    tokens_after += n->tokens();
    const auto& m = n->metrics();
    rep.traffic += m.traffic();
    rep.aborted += m.aborted();
    rep.dropped_buffer += m.dropped_buffer();
    rep.dropped_ttl += m.dropped_ttl();
    rep.refused_no_tokens += m.refused_no_tokens();
    rep.refused_untrusted += m.refused_untrusted();
    rep.payments += m.payments();
    rep.reputation_updates += m.reputation_updates();
    rep.enrichments += m.enrichments();
    rep.rejected_frames += n->rejected_frames();
    rep.buffer_peak = std::max(rep.buffer_peak, n->host().buffer().size());
    rep.links += n->links_up();
  }
  rep.links /= 2;
  rep.offers = counter.offers();
  rep.events = counter.events;

  // --- output checks -------------------------------------------------------
  for (const MessageId id : published) {
    ledger.check(clock.delivered(id),
                 "message " + std::to_string(id.value()) + " reached a subscriber");
  }
  ledger.check(rep.delivered_unique <= rep.published, "delivered <= created");
  ledger.check(clock.unmatched() == 0, "every delivery matches a published message");
  ledger.check(rep.tails.deliveries >= 1000,
               "at least 1000 deliveries per run (got " +
                   std::to_string(rep.tails.deliveries) + ")");
  ledger.check(rep.rejected_frames == 0, "rejected_frames == 0 on every node");
  ledger.check(std::abs(tokens_after - tokens_before) <= 1e-9 * tokens_before,
               "token sum conserved after receipts settle: " + std::to_string(tokens_before) +
                   " before, " + std::to_string(tokens_after) + " after");
  if (traced) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      traces[i]->flush();
      ledger.check(traces[i]->ok(), "trace stream written completely");
      check_replay(ledger, trace_text[i]->str(), nodes[i]->metrics(),
                   "live node " + std::to_string(i + 1));
    }
  }
  return rep;
}

using MeshPass = Pass<MeshRep>;

/// Fill the percentile figures and sample counts of \p out from the Tails of
/// each mesh's fastest untraced run.
void set_tails(WorkloadResult& out, const MeshPass& fastest) {
  EndToEnd& e = out.e2e;
  e.tick_p50_ms = median_of(fastest, [](const MeshRep& r) { return r.tails.tick_p50_ms; });
  e.tick_p90_ms = median_of(fastest, [](const MeshRep& r) { return r.tails.tick_p90_ms; });
  e.live_latency_p50_ms =
      median_of(fastest, [](const MeshRep& r) { return r.tails.latency_p50_ms; });
  e.live_latency_p99_ms =
      median_of(fastest, [](const MeshRep& r) { return r.tails.latency_p99_ms; });
  for (const MeshRep& r : fastest.reps) {
    out.tick_samples += r.tails.ticks;
    out.latency_samples += r.tails.deliveries;
  }
}

double run_s(const MeshPass& p) {
  return sum_of(p, [](const MeshRep& r) { return r.run_s; });
}

}  // namespace

WorkloadResult run_live_mesh(const Options& opt, Ledger& ledger, SpanRecorder& spans) {
  std::vector<MeshInputs> inputs;
  for (std::size_t i = 0; i < kMeshes; ++i) {
    inputs.push_back(make_inputs(derive_seed(opt.seed, kSeedStream + i)));
  }
  SpanRecorder no_spans(false);
  std::vector<MeshPass> plain;
  std::vector<MeshPass> traced;
  const double rss_mb = run_passes<MeshRep>(
      opt, inputs.size(),
      [&](std::size_t i, bool traced_run) {
        // Spans cover the first mesh of a traced pass: ~10^5 service calls,
        // enough for the percentiles without writing every mesh's rounds.
        SpanRecorder& rec = traced_run && i == 0 ? spans : no_spans;
        return run_rep(inputs[i], traced_run, rec, ledger);
      },
      plain, traced);

  WorkloadResult out;
  out.reps = plain.size() * inputs.size();
  out.traced_reps = traced.size() * inputs.size();
  out.threads = "1 thread";
  for (const MeshPass& p : plain) out.pass_run_s.push_back(run_s(p));
  const MeshPass fastest = fastest_runs(plain);
  set_tails(out, fastest);

  EndToEnd& e = out.e2e;
  e.setup_s = median_of_fastest(plain, [](const MeshRep& r) { return r.setup_s; });
  e.sim_speed = sum_of(fastest, [](const MeshRep& r) { return r.synthetic_s; }) / run_s(fastest);
  e.peak_rss_mb = rss_mb;
  e.mdr = sum_of(fastest, [](const MeshRep& r) { return double(r.delivered_unique); }) /
          sum_of(fastest, [](const MeshRep& r) { return double(r.published); });
  e.traffic_per_delivery =
      sum_of(fastest, [](const MeshRep& r) { return double(r.traffic); }) /
      sum_of(fastest, [](const MeshRep& r) { return double(r.delivered_unique); });
  e.live_msgs_per_s =
      sum_of(fastest, [](const MeshRep& r) { return double(r.tails.deliveries); }) /
      run_s(fastest);

  if (!opt.trace) return out;

  const MeshPass& t = traced.front();
  auto total = [&t](auto f) { return sum_of(t, f); };
  Layers& l = out.layers;
  const double offers = total([](const MeshRep& r) { return double(r.offers); });
  const double started = total([](const MeshRep& r) { return double(r.traffic); });
  const double events = total([](const MeshRep& r) { return double(r.events); });
  l.routing_offers = offers;
  l.routing_accept_ratio = offers > 0 ? started / offers : 0.0;
  l.routing_refused_no_tokens = total([](const MeshRep& r) { return double(r.refused_no_tokens); });
  l.routing_refused_untrusted = total([](const MeshRep& r) { return double(r.refused_untrusted); });
  l.net_transfers_started = started;
  l.net_abort_ratio =
      started > 0 ? total([](const MeshRep& r) { return double(r.aborted); }) / started : 0.0;
  l.msg_dropped_buffer = total([](const MeshRep& r) { return double(r.dropped_buffer); });
  l.msg_dropped_ttl = total([](const MeshRep& r) { return double(r.dropped_ttl); });
  for (const MeshRep& r : t.reps) {
    l.msg_buffer_peak = std::max(l.msg_buffer_peak, double(r.buffer_peak));
    l.net_links_peak = std::max(l.net_links_peak, double(r.links));
  }
  l.core_payments = total([](const MeshRep& r) { return double(r.payments); });
  l.core_reputation_updates = total([](const MeshRep& r) { return double(r.reputation_updates); });
  l.core_enrichments = total([](const MeshRep& r) { return double(r.enrichments); });
  const std::vector<double> service_us = spans.durations_us("LiveNode::service");
  l.live_service_us_p50 = quantile(service_us, 0.5);
  l.live_service_us_p99 = quantile(service_us, 0.99);
  l.live_publish_us = median(spans.durations_us("LiveNode::publish"));
  l.live_rounds = total([](const MeshRep& r) { return double(r.rounds); });
  l.live_accept_ratio = l.routing_accept_ratio;
  l.live_rejected_frames = total([](const MeshRep& r) { return double(r.rejected_frames); });
  l.obs_events = events;
  l.obs_ns_per_event =
      events > 0 ? (run_s(fastest_runs(traced)) - run_s(fastest)) * 1e9 / events : 0.0;
  return out;
}

}  // namespace perfbench
