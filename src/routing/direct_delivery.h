#pragma once

#include "routing/router.h"

/// \file direct_delivery.h
/// Direct-contact routing: a message leaves its source only when the source
/// meets a destination. Minimal overhead, minimal delivery ratio — the lower
/// baseline of §1.1.

namespace dtnic::routing {

class DirectDeliveryRouter : public Router {
 public:
  explicit DirectDeliveryRouter(const DestinationOracle& oracle)
      : Router(oracle, RouterKind::kDirectDelivery) {}

  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;
};

}  // namespace dtnic::routing
