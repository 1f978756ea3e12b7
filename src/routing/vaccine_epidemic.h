#pragma once

#include <unordered_set>

#include "routing/epidemic.h"

/// \file vaccine_epidemic.h
/// Immunity-based epidemic routing (the thesis §1.1 names it as a classic
/// epidemic variant): when a destination receives a message it becomes
/// "immune" and an antipacket spreads on every subsequent contact. Immune
/// nodes purge their stored copy and refuse new ones, so the flood recedes
/// behind the delivery wavefront — epidemic reach at a fraction of its
/// steady-state buffer and traffic cost.
///
/// With interest-addressed (multi-destination) messages, immunization after
/// the FIRST delivery trades the remaining destinations for the traffic
/// saving; this is the classic antipacket semantics and is measured in the
/// baseline comparison bench.

namespace dtnic::routing {

class VaccineEpidemicRouter : public EpidemicRouter {
 public:
  explicit VaccineEpidemicRouter(const DestinationOracle& oracle)
      : EpidemicRouter(oracle, RouterKind::kVaccineEpidemic) {}

  void on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) override;
  [[nodiscard]] AcceptDecision accept(Host& self, const Peer& from, const msg::Message& m,
                                      const ForwardPlan& offer, util::SimTime now) override;
  void on_received(Host& self, Host& from, msg::Message m, const ForwardPlan& plan,
                   util::SimTime now) override;
  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;

  [[nodiscard]] bool immune_to(MessageId id) const { return immune_.count(id) > 0; }
  [[nodiscard]] std::size_t immunity_count() const { return immune_.size(); }

  [[nodiscard]] static VaccineEpidemicRouter* of(Host& host);

 private:
  /// Merge the peer's antipackets and purge newly immunized copies.
  void absorb_immunity(Host& self, const VaccineEpidemicRouter& other);

  std::unordered_set<MessageId> immune_;
};

}  // namespace dtnic::routing
