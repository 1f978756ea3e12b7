#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/incentive_router.h"
#include "msg/id_source.h"
#include "msg/keyword.h"
#include "msg/message.h"
#include "obs/event_fanout.h"
#include "routing/host.h"
#include "routing/oracle.h"
#include "routing/router.h"
#include "util/rng.h"

/// \file test_helpers.h
/// Shared fixtures: message factories and a two-host "micro world" that
/// drives the router contact protocol directly (no mobility/radio), so unit
/// tests can exercise plan/accept/receive flows deterministically.

namespace dtnic::test {

inline constexpr std::uint64_t kMB = 1024 * 1024;

/// Build a message with sequential ids and the given keywords (all truthful,
/// tagged by the source, also the latent truth).
class MessageFactory {
 public:
  explicit MessageFactory(msg::KeywordTable& keywords) : keywords_(keywords) {}

  msg::Message make(util::NodeId source, const std::vector<std::string>& tags,
                    util::SimTime at = util::SimTime::zero(), std::uint64_t size = kMB,
                    msg::Priority priority = msg::Priority::kMedium, double quality = 0.8) {
    msg::Message m(ids_.next(), source, at, size, priority, quality);
    std::vector<msg::KeywordId> truth;
    for (const std::string& t : tags) {
      const msg::KeywordId k = keywords_.intern(t);
      truth.push_back(k);
      m.annotate(msg::Annotation{k, source, true});
    }
    m.set_true_keywords(std::move(truth));
    return m;
  }

  msg::MessageIdSource& ids() { return ids_; }

 private:
  msg::KeywordTable& keywords_;
  msg::MessageIdSource ids_;
};

/// \p self's current transfer wishlist toward \p peer (Router::plan_into
/// into a fresh vector).
inline std::vector<routing::ForwardPlan> plan_of(routing::Host& self, routing::Host& peer,
                                                 util::SimTime now) {
  std::vector<routing::ForwardPlan> plans;
  self.router().plan_into(self, peer, now, plans);
  return plans;
}

/// Records every routing event for assertion.
class EventRecorder : public routing::RoutingEvents {
 public:
  struct Delivered {
    routing::NodeId from, to;
    routing::MessageId message;
  };
  struct Payment {
    routing::NodeId payer, payee;
    double amount;
  };

  void on_created(const msg::Message&) override { ++created; }
  void on_transfer_started(routing::NodeId, routing::NodeId, const msg::Message&,
                           routing::TransferRole) override {
    ++transfers_started;
  }
  void on_relayed(routing::NodeId, routing::NodeId, const msg::Message&) override {
    ++relayed;
  }
  void on_delivered(routing::NodeId from, routing::NodeId to, const msg::Message& m) override {
    deliveries.push_back({from, to, m.id()});
  }
  void on_refused(routing::NodeId, routing::NodeId, const msg::Message&,
                  routing::AcceptDecision why) override {
    refusals.push_back(why);
  }
  void on_aborted(routing::NodeId, routing::NodeId, routing::MessageId) override { ++aborted; }
  void on_dropped(routing::NodeId, const msg::Message&, routing::DropReason why) override {
    drops.push_back(why);
  }
  void on_tokens_paid(routing::NodeId payer, routing::NodeId payee, double amount) override {
    payments.push_back({payer, payee, amount});
  }

  int created = 0;
  int transfers_started = 0;
  int relayed = 0;
  int aborted = 0;
  std::vector<Delivered> deliveries;
  std::vector<routing::AcceptDecision> refusals;
  std::vector<routing::DropReason> drops;
  std::vector<Payment> payments;
};

/// A handful of hosts wired to one oracle and event recorder; the `contact`
/// and `exchange` helpers run the router protocol the way the scenario's
/// contact controller does, minus radios and clocks.
class MicroWorld {
 public:
  MicroWorld() = default;

  routing::Host& add_host(std::uint64_t buffer_bytes = 64 * kMB) {
    const auto id = util::NodeId(static_cast<util::NodeId::underlying>(hosts_.size()));
    hosts_.push_back(std::make_unique<routing::Host>(id, buffer_bytes,
                                                     msg::DropPolicy::kFifoOldest, fanout));
    return *hosts_.back();
  }

  routing::Host& host(std::size_t i) { return *hosts_.at(i); }
  std::size_t size() const { return hosts_.size(); }

  /// Run the link-up handshake (pre_exchange both, on_link_up both).
  void link_up(routing::Host& a, routing::Host& b, util::SimTime now,
               double distance_m = 50.0) {
    std::vector<routing::Host*> none;
    a.router().pre_exchange(a, now, none);
    b.router().pre_exchange(b, now, none);
    a.router().on_link_up(a, b, now, distance_m);
    b.router().on_link_up(b, a, now, distance_m);
  }

  /// Move every currently-planned transfer a->b instantly (accept() gating
  /// honored); returns the number of messages that arrived at b.
  int exchange(routing::Host& a, routing::Host& b, util::SimTime now) {
    int arrived = 0;
    for (const routing::ForwardPlan& plan : plan_of(a, b, now)) {
      const msg::Message* m = a.buffer().find(plan.message);
      if (m == nullptr) continue;
      const auto decision = b.router().accept(b, a, *m, plan, now);
      if (decision != routing::AcceptDecision::kAccept) {
        fanout.on_refused(a.id(), b.id(), *m, decision);
        continue;
      }
      msg::Message copy = *m;
      copy.record_hop(b.id(), now);
      a.router().prepare_send(a, b, copy, plan, now);
      a.router().on_sent(a, b, copy, plan, now);
      if (plan.role == routing::TransferRole::kDestination) {
        fanout.on_delivered(a.id(), b.id(), copy);
      } else {
        fanout.on_relayed(a.id(), b.id(), copy);
      }
      b.router().on_received(b, a, std::move(copy), plan, now);
      ++arrived;
    }
    return arrived;
  }

  /// Full bidirectional contact at \p now: link-up then both directions.
  void contact(routing::Host& a, routing::Host& b, util::SimTime now) {
    link_up(a, b, now);
    exchange(a, b, now);
    exchange(b, a, now);
    a.router().on_link_down(a, b, now);
    b.router().on_link_down(b, a, now);
  }

  msg::KeywordTable keywords;
  routing::StaticInterestOracle oracle;
  /// Hosts bind the fan-out by reference at construction; the recorder is
  /// its first (and usually only) sink. Tests may add more sinks.
  obs::EventFanout fanout;
  EventRecorder events;

 private:
  obs::SinkHandle events_handle_ = fanout.add_sink(events);
  std::vector<std::unique_ptr<routing::Host>> hosts_;
};

}  // namespace dtnic::test
