#include "routing/two_hop.h"

namespace dtnic::routing {

void TwoHopRouter::plan_into(Host& self, Host& peer, util::SimTime now,
                             std::vector<ForwardPlan>& out) {
  (void)now;
  out.clear();
  for (const msg::Message* m : self.buffer().messages()) {
    if (peer.has_seen(m->id())) continue;
    if (oracle().is_destination(peer.id(), *m)) {
      out.push_back(ForwardPlan{m->id(), TransferRole::kDestination});
      continue;
    }
    // Only the source sprays relay copies; relays wait for destinations.
    if (m->source() == self.id()) {
      out.push_back(ForwardPlan{m->id(), TransferRole::kRelay});
    }
  }
}

}  // namespace dtnic::routing
