#pragma once

#include <unordered_map>

#include "routing/router.h"

/// \file nectar.h
/// NECTAR-style forwarding (thesis §1.1): each node maintains a
/// neighborhood index — an exponentially decayed meeting frequency per
/// encountered node — and hands a bundle to peers with a higher index
/// toward the bundle's destinations. Destinations here are the subscribers
/// of the message's keywords, so the index toward a message is the maximum
/// index over its subscriber set.

namespace dtnic::routing {

struct NectarParams {
  double decay_per_hour = 0.1;  ///< index multiplier decay, exponential
  double meeting_gain = 1.0;    ///< index increment per fresh encounter
  double prune_epsilon = 1e-3;
};

class NectarRouter : public Router {
 public:
  /// Requires the StaticInterestOracle (subscriber enumeration).
  NectarRouter(const StaticInterestOracle& oracle, const NectarParams& params);

  void on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) override;
  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;

  /// Decayed meeting frequency with \p node.
  [[nodiscard]] double index_of(NodeId node, util::SimTime now) const;
  /// Max index over the subscribers of the message's keywords.
  [[nodiscard]] double index_toward(const msg::Message& m, util::SimTime now) const;

  [[nodiscard]] static NectarRouter* of(Host& host);

 private:
  struct Entry {
    double index = 0.0;
    double updated_s = 0.0;
  };

  [[nodiscard]] double decayed(const Entry& e, util::SimTime now) const;

  const StaticInterestOracle& interests_;
  NectarParams params_;
  std::unordered_map<NodeId, Entry> meetings_;
};

}  // namespace dtnic::routing
