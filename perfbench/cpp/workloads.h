#pragma once

#include <string>
#include <vector>

#include "harness.h"

/// \file workloads.h
/// The benchmark's workloads. Each one generates its inputs from the seed,
/// runs for the requested host seconds, checks the program's outputs into
/// the Ledger, and fills the figures below; main.cpp prints them by name.

namespace perfbench {

/// End-to-end figures (the untraced run). Every workload fills every field;
/// README.md gives each metric's definition on the simulator and on the
/// live stack.
struct EndToEnd {
  double setup_s = 0.0;
  double sim_speed = 0.0;
  double tick_p50_ms = 0.0;
  double tick_p90_ms = 0.0;
  double peak_rss_mb = 0.0;
  double mdr = 0.0;
  double traffic_per_delivery = 0.0;
  double live_msgs_per_s = 0.0;
  double live_latency_p50_ms = 0.0;
  double live_latency_p99_ms = 0.0;
};

/// Per-layer figures (the traced run). A layer a workload does not run
/// reads 0 there.
struct Layers {
  double routing_commit_ms = 0.0;
  double routing_plan_ms = 0.0;
  double routing_pre_ms = 0.0;
  double routing_offers = 0.0;
  double routing_accept_ratio = 0.0;
  double routing_refused_no_tokens = 0.0;
  double routing_refused_untrusted = 0.0;
  double routing_exchange_replans = 0.0;
  double net_transfer_ms = 0.0;
  double net_transfers_started = 0.0;
  double net_abort_ratio = 0.0;
  double msg_dropped_buffer = 0.0;
  double msg_dropped_ttl = 0.0;
  double msg_buffer_peak = 0.0;
  double net_scan_ms = 0.0;
  double net_scan_us_per_scan = 0.0;
  double net_contacts = 0.0;
  double net_links_peak = 0.0;
  double scenario_unattributed_ms = 0.0;
  double scenario_workload_ms = 0.0;
  double sim_events = 0.0;
  double sim_ns_per_event = 0.0;
  double core_payments = 0.0;
  double core_reputation_updates = 0.0;
  double core_enrichments = 0.0;
  double live_service_us_p50 = 0.0;
  double live_service_us_p99 = 0.0;
  double live_publish_us = 0.0;
  double live_rounds = 0.0;
  double live_accept_ratio = 0.0;
  double live_rejected_frames = 0.0;
  double obs_events = 0.0;
  double obs_ns_per_event = 0.0;
};

/// What one workload run produced. Sample counts back the percentiles.
struct WorkloadResult {
  EndToEnd e2e;
  Layers layers;
  std::size_t reps = 0;          ///< untraced repetitions
  std::size_t traced_reps = 0;   ///< traced repetitions (--trace 1)
  std::size_t tick_samples = 0;  ///< samples behind the tick percentiles
  std::size_t latency_samples = 0;  ///< samples behind the latency percentiles
  std::string threads;  ///< thread layout the workload ran with
  /// Host seconds of run() (of the measured phase on the live stack) per
  /// untraced pass: how much the host's speed moved during the run.
  std::vector<double> pass_run_s;
};

[[nodiscard]] bool is_sim_workload(const std::string& name);

/// paper_economy, flood_churn, mega_field: Scenario construction + run().
WorkloadResult run_sim_workload(const Options& opt, Ledger& ledger, SpanRecorder& spans);

/// live_mesh: LiveNodes over loopback UDP with a synthetic clock.
WorkloadResult run_live_mesh(const Options& opt, Ledger& ledger, SpanRecorder& spans);

}  // namespace perfbench
