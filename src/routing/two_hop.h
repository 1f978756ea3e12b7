#pragma once

#include "routing/router.h"

/// \file two_hop.h
/// Two-hop relay (thesis §1.1): the source sprays copies to every node it
/// meets; relays hold their copy and hand it over only to destinations.
/// Delivery paths are therefore at most source -> relay -> destination.

namespace dtnic::routing {

class TwoHopRouter : public Router {
 public:
  explicit TwoHopRouter(const DestinationOracle& oracle)
      : Router(oracle, RouterKind::kTwoHop) {}

  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;
};

}  // namespace dtnic::routing
