/// \file main.cpp
/// perfbench: the repository's end-to-end benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload for about <s> host seconds, checks its outputs, and
/// prints the end-to-end metrics (--trace 0) or the per-layer metrics and the
/// tracing overhead (--trace 1). The last line of standard output is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. README.md in this
/// directory defines every workload and metric.

#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::EndToEnd;
using perfbench::Layers;
using perfbench::Metric;

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"setup_s", e.setup_s, "s"},
      {"sim_speed", e.sim_speed, "sim_s/s"},
      {"tick_p50_ms", e.tick_p50_ms, "ms"},
      {"tick_p90_ms", e.tick_p90_ms, "ms"},
      {"peak_rss_mb", e.peak_rss_mb, "MiB"},
      {"mdr", e.mdr, "ratio"},
      {"traffic_per_delivery", e.traffic_per_delivery, "count"},
      {"live_msgs_per_s", e.live_msgs_per_s, "1/s"},
      {"live_latency_p50_ms", e.live_latency_p50_ms, "ms"},
      {"live_latency_p99_ms", e.live_latency_p99_ms, "ms"},
  };
}

std::vector<Metric> layer_metrics(const Layers& l) {
  return {
      {"routing.commit_ms", l.routing_commit_ms, "ms"},
      {"routing.plan_ms", l.routing_plan_ms, "ms"},
      {"routing.pre_ms", l.routing_pre_ms, "ms"},
      {"routing.offers", l.routing_offers, "count"},
      {"routing.accept_ratio", l.routing_accept_ratio, "ratio"},
      {"routing.refused_no_tokens", l.routing_refused_no_tokens, "count"},
      {"routing.refused_untrusted", l.routing_refused_untrusted, "count"},
      {"routing.exchange_replans", l.routing_exchange_replans, "count"},
      {"net.transfer_ms", l.net_transfer_ms, "ms"},
      {"net.transfers_started", l.net_transfers_started, "count"},
      {"net.abort_ratio", l.net_abort_ratio, "ratio"},
      {"msg.dropped_buffer", l.msg_dropped_buffer, "count"},
      {"msg.dropped_ttl", l.msg_dropped_ttl, "count"},
      {"msg.buffer_peak", l.msg_buffer_peak, "count"},
      {"net.scan_ms", l.net_scan_ms, "ms"},
      {"net.scan_us_per_scan", l.net_scan_us_per_scan, "us"},
      {"net.contacts", l.net_contacts, "count"},
      {"net.links_peak", l.net_links_peak, "count"},
      {"scenario.unattributed_ms", l.scenario_unattributed_ms, "ms"},
      {"scenario.workload_ms", l.scenario_workload_ms, "ms"},
      {"sim.events", l.sim_events, "count"},
      {"sim.ns_per_event", l.sim_ns_per_event, "ns"},
      {"core.payments", l.core_payments, "count"},
      {"core.reputation_updates", l.core_reputation_updates, "count"},
      {"core.enrichments", l.core_enrichments, "count"},
      {"live.service_us_p50", l.live_service_us_p50, "us"},
      {"live.service_us_p99", l.live_service_us_p99, "us"},
      {"live.publish_us", l.live_publish_us, "us"},
      {"live.rounds", l.live_rounds, "count"},
      {"live.accept_ratio", l.live_accept_ratio, "ratio"},
      {"live.rejected_frames", l.live_rejected_frames, "count"},
      {"obs.events", l.obs_events, "count"},
      {"obs.ns_per_event", l.obs_ns_per_event, "ns"},
  };
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--span-dir") {
      opt.span_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!perfbench::is_sim_workload(opt.workload) && opt.workload != "live_mesh") {
    throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
  }
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n"
              << "usage: perfbench --workload <paper_economy|flood_churn|mega_field|live_mesh>"
                 " --seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]\n";
    return 2;
  }

  perfbench::Ledger ledger;
  perfbench::SpanRecorder spans(opt.trace);
  perfbench::WorkloadResult result;
  try {
    result = perfbench::is_sim_workload(opt.workload)
                 ? perfbench::run_sim_workload(opt, ledger, spans)
                 : perfbench::run_live_mesh(opt, ledger, spans);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  const std::vector<Metric> metrics =
      opt.trace ? layer_metrics(result.layers) : end_to_end_metrics(result.e2e);
  for (const Metric& m : metrics) {
    ledger.check(std::isfinite(m.value), m.name + " is finite");
  }

  std::cout << "workload=" << opt.workload << " seed=" << opt.seed
            << " trace=" << (opt.trace ? 1 : 0) << " reps=" << result.reps
            << " traced_reps=" << result.traced_reps << " threads=\"" << result.threads
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " tick_samples=" << result.tick_samples
            << " latency_samples=" << result.latency_samples << " pass_run_s=";
  for (std::size_t i = 0; i < result.pass_run_s.size(); ++i) {
    std::cout << (i ? "," : "") << result.pass_run_s[i];
  }
  std::cout << "\n";
  if (opt.trace) {
    std::filesystem::create_directories(opt.span_dir);
    const std::string path = opt.span_dir + "/" + opt.workload + ".seed" +
                             std::to_string(opt.seed) + ".spans.jsonl";
    ledger.check(spans.write_jsonl(path), "spans written to " + path);
    std::cout << "spans=" << path << " count=" << spans.spans().size() << "\n";
  }
  for (const std::string& f : ledger.failures()) std::cout << "FAILED: " << f << "\n";
  std::cout << perfbench::result_json(ledger, metrics) << std::endl;
  return 0;
}
