#include "routing/first_contact.h"

namespace dtnic::routing {

void FirstContactRouter::plan_into(Host& self, Host& peer, util::SimTime now,
                                   std::vector<ForwardPlan>& out) {
  (void)now;
  out.clear();
  for (const msg::Message* m : self.buffer().messages()) {
    if (peer.has_seen(m->id())) continue;
    const TransferRole role = oracle().is_destination(peer.id(), *m)
                                  ? TransferRole::kDestination
                                  : TransferRole::kRelay;
    out.push_back(ForwardPlan{m->id(), role});
  }
}

void FirstContactRouter::on_sent(Host& self, Host& peer, const msg::Message& m,
                                 const ForwardPlan& plan, util::SimTime now) {
  (void)peer; (void)plan; (void)now;
  // Single-copy: the copy now lives at the peer.
  self.buffer().remove(m.id());
}

}  // namespace dtnic::routing
