#include "routing/host.h"

#include "routing/chitchat/chitchat_router.h"
#include "routing/router.h"
#include "util/assert.h"

namespace dtnic::routing {

namespace {
/// Shared do-nothing sink so Host::events() never dereferences null.
RoutingEvents g_null_events;
}  // namespace

Host::Host(NodeId id, std::uint64_t buffer_capacity_bytes, msg::DropPolicy drop_policy)
    : Host(id, buffer_capacity_bytes, drop_policy, g_null_events) {}

Host::Host(NodeId id, std::uint64_t buffer_capacity_bytes, msg::DropPolicy drop_policy,
           RoutingEvents& events)
    : id_(id), buffer_(buffer_capacity_bytes, drop_policy), events_(&events) {
  DTNIC_REQUIRE_MSG(id.valid(), "host id must be valid");
}

const chitchat::InterestTable* Host::interest_table() const {
  if (router_ == nullptr || !is_chitchat_kind(router_->kind())) return nullptr;
  return &static_cast<const ChitChatRouter&>(*router_).interests();
}

double Host::message_strength(const msg::Message& m) const {
  if (router_ == nullptr || !is_chitchat_kind(router_->kind())) return 0.0;
  // The router's own strength, so Peer-mediated queries return the exact
  // bits of a direct ChitChatRouter::of(host)->message_strength(m) call.
  return static_cast<const ChitChatRouter&>(*router_).message_strength(m);
}

void Host::set_rank(int rank) {
  DTNIC_REQUIRE_MSG(rank >= 1, "rank 1 is the top of the hierarchy; ranks are >= 1");
  rank_ = rank;
}

void Host::set_router(std::unique_ptr<Router> router) {
  DTNIC_REQUIRE_MSG(router != nullptr, "router must not be null");
  router_ = std::move(router);
  router_->attach(*this);
}

Router& Host::router() {
  DTNIC_REQUIRE_MSG(router_ != nullptr, "host has no router");
  return *router_;
}

}  // namespace dtnic::routing
