#include "routing/epidemic.h"

namespace dtnic::routing {

void EpidemicRouter::plan_into(Host& self, Host& peer, util::SimTime now,
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

}  // namespace dtnic::routing
