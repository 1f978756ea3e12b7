#include "sinks.h"

#include <sstream>
#include <stdexcept>

#include "obs/trace_replay.h"

namespace perfbench {

bool same_counters(const dtnic::stats::MetricsCollector& a,
                   const dtnic::stats::MetricsCollector& b) {
  using dtnic::msg::Priority;
  for (const Priority p : {Priority::kHigh, Priority::kMedium, Priority::kLow}) {
    if (a.created_for(p) != b.created_for(p) || a.delivered_for(p) != b.delivered_for(p)) {
      return false;
    }
  }
  return a.created() == b.created() && a.delivered_unique() == b.delivered_unique() &&
         a.traffic() == b.traffic() && a.relay_arrivals() == b.relay_arrivals() &&
         a.deliveries_total() == b.deliveries_total() &&
         a.refused_no_tokens() == b.refused_no_tokens() &&
         a.refused_untrusted() == b.refused_untrusted() &&
         a.refused_duplicates() == b.refused_duplicates() && a.aborted() == b.aborted() &&
         a.dropped_buffer() == b.dropped_buffer() && a.dropped_ttl() == b.dropped_ttl() &&
         a.tokens_paid_total() == b.tokens_paid_total() && a.payments() == b.payments() &&
         a.reputation_updates() == b.reputation_updates() &&
         a.enrichments() == b.enrichments() && a.enrich_tags() == b.enrich_tags() &&
         a.mean_delivery_hops() == b.mean_delivery_hops() &&
         a.mean_delivery_latency_s() == b.mean_delivery_latency_s();
}

void check_replay(Ledger& ledger, const std::string& trace,
                  const dtnic::stats::MetricsCollector& live, const std::string& what) {
  dtnic::stats::MetricsCollector replayed;
  std::istringstream in(trace);
  try {
    dtnic::obs::replay_trace(in, replayed);
    ledger.check(same_counters(replayed, live),
                 "replay_trace of " + what + " reproduces its MetricsCollector counters");
  } catch (const std::exception& e) {
    ledger.check(false, "replay_trace of " + what + ": " + e.what());
  }
}

}  // namespace perfbench
