#pragma once

#include <unordered_map>

#include "routing/router.h"

/// \file prophet.h
/// PRoPHET (Lindgren et al., probabilistic routing using history of
/// encounters and transitivity), adapted to data-centric addressing: the
/// delivery predictability P(node, keyword) estimates how likely this node
/// is to reach a subscriber of `keyword`.
///   * direct update on meeting a subscriber:  P += (1-P)·P_init
///   * aging:                                  P ·= γ^(Δt/τ)
///   * transitivity via the encountered peer:  P = max(P, P_peer·β·P_init)
/// A message is handed to the peer when the peer's best predictability over
/// the message's keywords exceeds the sender's.

namespace dtnic::routing {

struct ProphetParams {
  double p_init = 0.75;
  double gamma = 0.98;
  double beta = 0.25;
  double aging_unit_s = 30.0;  ///< ONE's default time unit for aging
  double prune_epsilon = 1e-4;
};

class ProphetRouter : public Router {
 public:
  ProphetRouter(const DestinationOracle& oracle, const ProphetParams& params);

  void on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) override;
  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;

  /// Best predictability over the message's keywords (0 if none known).
  [[nodiscard]] double predictability_for(const msg::Message& m) const;
  [[nodiscard]] double predictability(msg::KeywordId k) const;

  [[nodiscard]] static ProphetRouter* of(Host& host);

 private:
  void age(util::SimTime now);

  ProphetParams params_;
  std::unordered_map<msg::KeywordId, double> table_;
  double last_aged_s_ = 0.0;
};

}  // namespace dtnic::routing
