#include "routing/vaccine_epidemic.h"

namespace dtnic::routing {

VaccineEpidemicRouter* VaccineEpidemicRouter::of(Host& host) {
  if (!host.has_router()) return nullptr;
  Router& router = host.router();
  if (router.kind() != RouterKind::kVaccineEpidemic) return nullptr;
  return static_cast<VaccineEpidemicRouter*>(&router);
}

void VaccineEpidemicRouter::absorb_immunity(Host& self, const VaccineEpidemicRouter& other) {
  for (const MessageId id : other.immune_) {
    if (!immune_.insert(id).second) continue;
    if (self.buffer().remove(id)) {
      // The purge is the antipacket doing its job, not a capacity drop; no
      // drop event is emitted.
    }
  }
}

void VaccineEpidemicRouter::on_link_up(Host& self, Host& peer, util::SimTime now,
                                       double distance_m) {
  EpidemicRouter::on_link_up(self, peer, now, distance_m);
  if (const VaccineEpidemicRouter* other = VaccineEpidemicRouter::of(peer); other != nullptr) {
    absorb_immunity(self, *other);
  }
}

void VaccineEpidemicRouter::plan_into(Host& self, Host& peer, util::SimTime now,
                                      std::vector<ForwardPlan>& out) {
  EpidemicRouter::plan_into(self, peer, now, out);
  // Do not offer messages the peer is known to be immune to.
  const VaccineEpidemicRouter* other = VaccineEpidemicRouter::of(peer);
  std::erase_if(out, [this, other](const ForwardPlan& p) {
    if (immune_.count(p.message)) return true;
    return other != nullptr && other->immune_to(p.message);
  });
}

AcceptDecision VaccineEpidemicRouter::accept(Host& self, const Peer& from, const msg::Message& m,
                                             const ForwardPlan& offer, util::SimTime now) {
  if (immune_.count(m.id())) return AcceptDecision::kRefused;
  return EpidemicRouter::accept(self, from, m, offer, now);
}

void VaccineEpidemicRouter::on_received(Host& self, Host& from, msg::Message m,
                                        const ForwardPlan& plan, util::SimTime now) {
  const MessageId id = m.id();
  EpidemicRouter::on_received(self, from, std::move(m), plan, now);
  if (plan.role == TransferRole::kDestination) {
    // Delivered: immunize and stop carrying the copy ourselves.
    immune_.insert(id);
    (void)self.buffer().remove(id);
  }
}

}  // namespace dtnic::routing
