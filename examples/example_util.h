#pragma once

#include <iostream>
#include <memory>
#include <vector>

#include "core/incentive_router.h"
#include "core/operator_api.h"
#include "msg/id_source.h"
#include "msg/keyword.h"
#include "routing/host.h"
#include "routing/oracle.h"

/// \file example_util.h
/// A hand-driven "pocket network" for the example programs: a few devices
/// running the full incentive scheme, with contacts driven step by step so
/// each example can narrate what happens. (The benchmark harness uses the
/// full event-driven Scenario instead; this is the didactic path.)

namespace dtnic::examples {

class PocketNetwork {
 public:
  explicit PocketNetwork(core::IncentiveParams incentive = {}, core::DrmParams drm = {}) {
    pool_ = keywords.make_pool(64, "topic");
    world.incentive = incentive;
    world.drm = drm;
    world.keyword_pool = &pool_;
  }

  /// Add a device; returns its operator facade.
  core::DtnOperator& add_device(const std::string& name, core::BehaviorProfile profile = {},
                                std::uint64_t buffer_mb = 64) {
    const auto id =
        util::NodeId(static_cast<util::NodeId::underlying>(hosts_.size()));
    hosts_.push_back(std::make_unique<routing::Host>(id, buffer_mb * 1024 * 1024));
    names_.push_back(name);
    routing::chitchat::ChitChatParams chitchat;
    hosts_.back()->set_router(std::make_unique<core::IncentiveRouter>(
        oracle, chitchat, util::SimTime::seconds(5), &world, profile,
        util::Rng(1000 + id.value())));
    operators_.push_back(std::make_unique<core::DtnOperator>(*hosts_.back(), oracle,
                                                             keywords, ids));
    return *operators_.back();
  }

  [[nodiscard]] const std::string& name_of(util::NodeId id) const {
    return names_.at(id.value());
  }

  /// Run a full contact between two devices at time \p now: the ChitChat
  /// weight exchange, then message transfers in both directions (admission
  /// control honored). Returns how many messages moved.
  int contact(core::DtnOperator& x, core::DtnOperator& y, util::SimTime now) {
    routing::Host& a = x.host();
    routing::Host& b = y.host();
    std::vector<routing::Host*> none;
    a.router().pre_exchange(a, now, none);
    b.router().pre_exchange(b, now, none);
    a.router().on_link_up(a, b, now, 30.0);
    b.router().on_link_up(b, a, now, 30.0);
    return transfer_all(a, b, now) + transfer_all(b, a, now);
  }

  msg::KeywordTable keywords;
  routing::StaticInterestOracle oracle;
  msg::MessageIdSource ids;
  core::IncentiveWorld world;

 private:
  int transfer_all(routing::Host& from, routing::Host& to, util::SimTime now) {
    int moved = 0;
    int refused = 0;
    std::string last_reason;
    std::vector<routing::ForwardPlan> plans;
    from.router().plan_into(from, to, now, plans);
    for (const routing::ForwardPlan& plan : plans) {
      const msg::Message* m = from.buffer().find(plan.message);
      if (m == nullptr) continue;
      const auto decision = to.router().accept(to, from, *m, plan, now);
      if (decision != routing::AcceptDecision::kAccept) {
        ++refused;
        last_reason = routing::accept_name(decision);
        continue;
      }
      msg::Message copy = *m;
      copy.record_hop(to.id(), now);
      from.router().prepare_send(from, to, copy, plan, now);
      from.router().on_sent(from, to, copy, plan, now);
      to.router().on_received(to, from, std::move(copy), plan, now);
      ++moved;
    }
    if (refused > 0) {
      std::cout << "    [" << name_of(to.id()) << " refused " << refused
                << " offer(s): " << last_reason << "]\n";
    }
    return moved;
  }

  std::vector<std::unique_ptr<routing::Host>> hosts_;
  std::vector<std::unique_ptr<core::DtnOperator>> operators_;
  std::vector<std::string> names_;
  std::vector<msg::KeywordId> pool_;
};

}  // namespace dtnic::examples
