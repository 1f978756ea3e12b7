#include "routing/spray_and_wait.h"

#include "util/assert.h"

namespace dtnic::routing {

SprayAndWaitRouter::SprayAndWaitRouter(const DestinationOracle& oracle, int initial_copies)
    : Router(oracle, RouterKind::kSprayAndWait), initial_copies_(initial_copies) {
  DTNIC_REQUIRE_MSG(initial_copies >= 1, "spray needs at least one copy");
}

int SprayAndWaitRouter::copies_of(const msg::Message& m) {
  return static_cast<int>(m.property_or(kCopiesProperty, 1.0));
}

void SprayAndWaitRouter::on_originated(Host& self, const msg::Message& m, util::SimTime now) {
  (void)now;
  msg::Message* stored = self.buffer().find_mutable(m.id());
  if (stored != nullptr) stored->set_property(kCopiesProperty, initial_copies_);
}

void SprayAndWaitRouter::plan_into(Host& self, Host& peer, util::SimTime now,
                                   std::vector<ForwardPlan>& out) {
  (void)now;
  out.clear();
  for (const msg::Message* m : self.buffer().messages()) {
    if (peer.has_seen(m->id())) continue;
    if (oracle().is_destination(peer.id(), *m)) {
      out.push_back(ForwardPlan{m->id(), TransferRole::kDestination});
    } else if (copies_of(*m) > 1) {
      out.push_back(ForwardPlan{m->id(), TransferRole::kRelay});
    }
  }
}

void SprayAndWaitRouter::prepare_send(Host& self, Host& peer, msg::Message& copy,
                                      const ForwardPlan& plan, util::SimTime now) {
  (void)peer; (void)now;
  if (plan.role != TransferRole::kRelay) return;
  const msg::Message* mine = self.buffer().find(copy.id());
  const int c = mine != nullptr ? copies_of(*mine) : 1;
  copy.set_property(kCopiesProperty, static_cast<double>(c / 2));  // floor half
}

void SprayAndWaitRouter::on_sent(Host& self, Host& peer, const msg::Message& m,
                                 const ForwardPlan& plan, util::SimTime now) {
  (void)peer; (void)now;
  if (plan.role != TransferRole::kRelay) return;
  msg::Message* mine = self.buffer().find_mutable(m.id());
  if (mine == nullptr) return;
  const int c = copies_of(*mine);
  mine->set_property(kCopiesProperty, static_cast<double>(c - c / 2));  // keep ceil half
}

}  // namespace dtnic::routing
