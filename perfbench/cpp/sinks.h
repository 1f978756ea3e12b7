#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "harness.h"
#include "routing/events.h"
#include "stats/metrics.h"

/// \file sinks.h
/// Event sinks the benchmark attaches to an obs::EventFanout, and the checks
/// that compare collectors. DeliveryClock is the latency probe of every run;
/// EventCounter and the trace replay belong to the traced run only.

namespace perfbench {

/// Times each (message, destination) delivery: on the live stack, host time
/// from the publish() call (set_origin) to the delivery event; on the
/// simulator (record_sim_times), the simulated times of the message's
/// creation event and of the delivery, which the workload maps to host time.
class DeliveryClock final : public dtnic::routing::RoutingEvents {
 public:
  /// Sim times as (created, delivered) seconds; float halves the memory the
  /// probe adds to the process it measures.
  using SimTimes = std::vector<std::pair<float, float>>;

  /// Record simulated times, read from \p sim_now, instead of host latencies.
  void record_sim_times(std::function<double()> sim_now) { sim_now_ = std::move(sim_now); }

  void on_created(const dtnic::msg::Message& m) override {
    created_at_.emplace(m.id(), Origin{Clock::now(), sim_now_ ? sim_now_() : 0.0});
  }
  void on_delivered(dtnic::routing::NodeId, dtnic::routing::NodeId,
                    const dtnic::msg::Message& m) override {
    const auto it = created_at_.find(m.id());
    if (it == created_at_.end()) {
      ++unmatched_;
      return;
    }
    if (sim_now_) {
      sim_times_.emplace_back(static_cast<float>(it->second.sim_s),
                              static_cast<float>(sim_now_()));
    } else {
      latencies_ms_.push_back(seconds_between(it->second.host, Clock::now()) * 1e3);
    }
    delivered_.insert(m.id());
  }

  /// Re-stamp \p id's origin, e.g. with the time just before publish().
  void set_origin(dtnic::routing::MessageId id, Clock::time_point t) {
    created_at_[id].host = t;
  }

  [[nodiscard]] const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  [[nodiscard]] SimTimes take_sim_times() { return std::move(sim_times_); }
  /// Messages delivered to at least one destination.
  [[nodiscard]] bool delivered(dtnic::routing::MessageId id) const {
    return delivered_.count(id) > 0;
  }
  [[nodiscard]] std::size_t delivered_unique() const { return delivered_.size(); }
  /// Deliveries of messages this clock never saw created (must stay 0).
  [[nodiscard]] std::uint64_t unmatched() const { return unmatched_; }

 private:
  struct Origin {
    Clock::time_point host;
    double sim_s = 0.0;
  };
  std::function<double()> sim_now_;
  std::unordered_map<dtnic::routing::MessageId, Origin> created_at_;
  std::vector<double> latencies_ms_;
  SimTimes sim_times_;
  std::unordered_set<dtnic::routing::MessageId> delivered_;
  std::uint64_t unmatched_ = 0;
};

/// Counts every event the fan-out dispatches, and the offers among them
/// (transfers started + refusals).
class EventCounter final : public dtnic::routing::RoutingEvents {
 public:
  void on_created(const dtnic::msg::Message&) override { ++events; }
  void on_transfer_started(dtnic::routing::NodeId, dtnic::routing::NodeId,
                           const dtnic::msg::Message&, dtnic::routing::TransferRole) override {
    ++events;
    ++started;
  }
  void on_relayed(dtnic::routing::NodeId, dtnic::routing::NodeId,
                  const dtnic::msg::Message&) override {
    ++events;
  }
  void on_delivered(dtnic::routing::NodeId, dtnic::routing::NodeId,
                    const dtnic::msg::Message&) override {
    ++events;
  }
  void on_refused(dtnic::routing::NodeId, dtnic::routing::NodeId, const dtnic::msg::Message&,
                  dtnic::routing::AcceptDecision) override {
    ++events;
    ++refused;
  }
  void on_aborted(dtnic::routing::NodeId, dtnic::routing::NodeId,
                  dtnic::routing::MessageId) override {
    ++events;
  }
  void on_dropped(dtnic::routing::NodeId, const dtnic::msg::Message&,
                  dtnic::routing::DropReason) override {
    ++events;
  }
  void on_tokens_paid(dtnic::routing::NodeId, dtnic::routing::NodeId, double) override {
    ++events;
  }
  void on_reputation_updated(dtnic::routing::NodeId, dtnic::routing::NodeId, double) override {
    ++events;
  }
  void on_enriched(dtnic::routing::NodeId, const dtnic::msg::Message&, int) override {
    ++events;
  }

  [[nodiscard]] std::uint64_t offers() const { return started + refused; }

  std::uint64_t events = 0;
  std::uint64_t started = 0;
  std::uint64_t refused = 0;
};

/// True when every MetricsCollector counter of \p a equals that of \p b.
[[nodiscard]] bool same_counters(const dtnic::stats::MetricsCollector& a,
                                 const dtnic::stats::MetricsCollector& b);

/// Check that obs::replay_trace of \p trace (a dtnic.trace.v1 stream)
/// reproduces \p live's counters; \p what names the run in a failure.
void check_replay(Ledger& ledger, const std::string& trace,
                  const dtnic::stats::MetricsCollector& live, const std::string& what);

}  // namespace perfbench
