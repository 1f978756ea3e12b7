#include "routing/nectar.h"

#include <cmath>

#include "util/assert.h"

namespace dtnic::routing {

NectarRouter::NectarRouter(const StaticInterestOracle& oracle, const NectarParams& params)
    : Router(oracle, RouterKind::kNectar), interests_(oracle), params_(params) {
  DTNIC_REQUIRE(params.decay_per_hour >= 0.0);
  DTNIC_REQUIRE(params.meeting_gain > 0.0);
}

NectarRouter* NectarRouter::of(Host& host) {
  if (!host.has_router()) return nullptr;
  Router& router = host.router();
  if (router.kind() != RouterKind::kNectar) return nullptr;
  return static_cast<NectarRouter*>(&router);
}

double NectarRouter::decayed(const Entry& e, util::SimTime now) const {
  const double hours = (now.sec() - e.updated_s) / 3600.0;
  return e.index * std::exp(-params_.decay_per_hour * std::max(0.0, hours));
}

void NectarRouter::on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) {
  (void)self; (void)distance_m;
  Entry& e = meetings_[peer.id()];
  e.index = decayed(e, now) + params_.meeting_gain;
  e.updated_s = now.sec();
}

double NectarRouter::index_of(NodeId node, util::SimTime now) const {
  auto it = meetings_.find(node);
  if (it == meetings_.end()) return 0.0;
  const double value = decayed(it->second, now);
  return value < params_.prune_epsilon ? 0.0 : value;
}

double NectarRouter::index_toward(const msg::Message& m, util::SimTime now) const {
  double best = 0.0;
  for (msg::KeywordId k : m.keywords()) {
    for (NodeId subscriber : interests_.subscribers_of(k)) {
      best = std::max(best, index_of(subscriber, now));
    }
  }
  return best;
}

void NectarRouter::plan_into(Host& self, Host& peer, util::SimTime now,
                             std::vector<ForwardPlan>& out) {
  out.clear();
  const NectarRouter* other = NectarRouter::of(peer);
  for (const msg::Message* m : self.buffer().messages()) {
    if (peer.has_seen(m->id())) continue;
    if (oracle().is_destination(peer.id(), *m)) {
      out.push_back(ForwardPlan{m->id(), TransferRole::kDestination});
      continue;
    }
    if (other != nullptr && other->index_toward(*m, now) > index_toward(*m, now)) {
      out.push_back(ForwardPlan{m->id(), TransferRole::kRelay});
    }
  }
}

}  // namespace dtnic::routing
