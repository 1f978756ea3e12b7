#pragma once

#include "routing/router.h"

/// \file epidemic.h
/// Epidemic routing (Vahdat & Becker 2000): offer every carried message the
/// peer has not seen. Maximal delivery ratio, maximal overhead — the upper
/// baseline the paper's introduction positions data-centric routing against.

namespace dtnic::routing {

class EpidemicRouter : public Router {
 public:
  explicit EpidemicRouter(const DestinationOracle& oracle,
                          RouterKind kind = RouterKind::kEpidemic)
      : Router(oracle, kind) {}

  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;
};

}  // namespace dtnic::routing
