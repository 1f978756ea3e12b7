#include "routing/prophet.h"

#include <cmath>

#include "util/assert.h"

namespace dtnic::routing {

ProphetRouter::ProphetRouter(const DestinationOracle& oracle, const ProphetParams& params)
    : Router(oracle, RouterKind::kProphet), params_(params) {
  DTNIC_REQUIRE(params.p_init > 0.0 && params.p_init <= 1.0);
  DTNIC_REQUIRE(params.gamma > 0.0 && params.gamma <= 1.0);
  DTNIC_REQUIRE(params.beta >= 0.0 && params.beta <= 1.0);
  DTNIC_REQUIRE(params.aging_unit_s > 0.0);
}

ProphetRouter* ProphetRouter::of(Host& host) {
  if (!host.has_router()) return nullptr;
  Router& router = host.router();
  if (router.kind() != RouterKind::kProphet) return nullptr;
  return static_cast<ProphetRouter*>(&router);
}

void ProphetRouter::age(util::SimTime now) {
  const double dt = now.sec() - last_aged_s_;
  if (dt <= 0.0) return;
  const double factor = std::pow(params_.gamma, dt / params_.aging_unit_s);
  for (auto it = table_.begin(); it != table_.end();) {
    it->second *= factor;
    if (it->second < params_.prune_epsilon) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  last_aged_s_ = now.sec();
}

void ProphetRouter::on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) {
  (void)self; (void)distance_m;
  age(now);
  // Direct component: meeting a subscriber raises P for its interests.
  for (msg::KeywordId k : oracle().interests_of(peer.id())) {
    double& p = table_[k];
    p += (1.0 - p) * params_.p_init;
  }
  // Transitive component through the peer's own table.
  if (const ProphetRouter* other = ProphetRouter::of(peer); other != nullptr) {
    for (const auto& [keyword, p_peer] : other->table_) {
      double& p = table_[keyword];
      p = std::max(p, p_peer * params_.beta * params_.p_init);
    }
  }
}

double ProphetRouter::predictability(msg::KeywordId k) const {
  auto it = table_.find(k);
  return it != table_.end() ? it->second : 0.0;
}

double ProphetRouter::predictability_for(const msg::Message& m) const {
  double best = 0.0;
  for (msg::KeywordId k : m.keywords()) best = std::max(best, predictability(k));
  return best;
}

void ProphetRouter::plan_into(Host& self, Host& peer, util::SimTime now,
                              std::vector<ForwardPlan>& out) {
  age(now);
  out.clear();
  const ProphetRouter* other = ProphetRouter::of(peer);
  for (const msg::Message* m : self.buffer().messages()) {
    if (peer.has_seen(m->id())) continue;
    if (oracle().is_destination(peer.id(), *m)) {
      out.push_back(ForwardPlan{m->id(), TransferRole::kDestination});
      continue;
    }
    if (other != nullptr && other->predictability_for(*m) > predictability_for(*m)) {
      out.push_back(ForwardPlan{m->id(), TransferRole::kRelay});
    }
  }
}

}  // namespace dtnic::routing
