#include "routing/direct_delivery.h"

namespace dtnic::routing {

void DirectDeliveryRouter::plan_into(Host& self, Host& peer, util::SimTime now,
                                     std::vector<ForwardPlan>& out) {
  (void)now;
  out.clear();
  for (const msg::Message* m : self.buffer().messages()) {
    if (peer.has_seen(m->id())) continue;
    if (!oracle().is_destination(peer.id(), *m)) continue;
    out.push_back(ForwardPlan{m->id(), TransferRole::kDestination});
  }
}

}  // namespace dtnic::routing
