#pragma once

#include "routing/router.h"

/// \file spray_and_wait.h
/// Binary Spray-and-Wait (Spyropoulos et al.): a message starts with L
/// logical copies; meeting a relay hands over half of the remaining copies;
/// a node holding a single copy waits for a destination. The copy counter
/// travels as a message property, mirroring ONE's implementation.

namespace dtnic::routing {

class SprayAndWaitRouter : public Router {
 public:
  /// Property key carrying the remaining logical copies of this copy.
  static constexpr const char* kCopiesProperty = "snw.copies";

  SprayAndWaitRouter(const DestinationOracle& oracle, int initial_copies);

  void plan_into(Host& self, Host& peer, util::SimTime now,
                 std::vector<ForwardPlan>& out) override;
  void prepare_send(Host& self, Host& peer, msg::Message& copy, const ForwardPlan& plan,
                    util::SimTime now) override;
  void on_sent(Host& self, Host& peer, const msg::Message& m, const ForwardPlan& plan,
               util::SimTime now) override;
  void on_originated(Host& self, const msg::Message& m, util::SimTime now) override;

  [[nodiscard]] int initial_copies() const { return initial_copies_; }

 private:
  /// Remaining copies on the buffered instance at \p self.
  [[nodiscard]] static int copies_of(const msg::Message& m);

  int initial_copies_;
};

}  // namespace dtnic::routing
