#pragma once

#include "routing/router.h"

/// \file first_contact.h
/// First-Contact routing: a single copy of each message wanders the network,
/// handed to the first encountered node and removed from the sender. A cheap
/// forwarding-based baseline (one copy, no replication).

namespace dtnic::routing {

class FirstContactRouter : public Router {
 public:
  explicit FirstContactRouter(const DestinationOracle& oracle)
      : Router(oracle, RouterKind::kFirstContact) {}

  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;
  void on_sent(Host& self, Host& peer, const msg::Message& m, const ForwardPlan& plan,
               util::SimTime now) override;
};

}  // namespace dtnic::routing
