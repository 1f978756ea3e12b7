#include "scenario/router_factory.h"

#include "core/incentive_router.h"
#include "core/pi_router.h"
#include "routing/chitchat/chitchat_router.h"
#include "routing/direct_delivery.h"
#include "routing/epidemic.h"
#include "routing/first_contact.h"
#include "routing/nectar.h"
#include "routing/prophet.h"
#include "routing/spray_and_wait.h"
#include "routing/two_hop.h"
#include "routing/vaccine_epidemic.h"
#include "util/assert.h"

namespace dtnic::scenario {

namespace {

using routing::RouterKind;
using RouterPtr = std::unique_ptr<routing::Router>;

void require_base(const RouterBuildContext& ctx) {
  DTNIC_REQUIRE_MSG(ctx.cfg != nullptr && ctx.oracle != nullptr,
                    "router build context needs a config and a destination oracle");
}

RouterPtr build_incentive(const RouterBuildContext& ctx) {
  require_base(ctx);
  DTNIC_REQUIRE_MSG(ctx.world != nullptr, "incentive scheme needs an IncentiveWorld");
  DTNIC_REQUIRE_MSG(ctx.master_rng != nullptr, "incentive scheme needs a master RNG");
  // The only scheme that forks the master RNG; the fork both derives the
  // per-node stream and advances the parent, exactly as the pre-factory
  // Scheme switch did (see RouterBuildContext::master_rng).
  return std::make_unique<core::IncentiveRouter>(
      *ctx.oracle, ctx.cfg->chitchat, ctx.contact_quantum, ctx.world, ctx.behavior,
      ctx.master_rng->fork(ctx.rng_stream_tag + ctx.node_index * 16));
}

RouterPtr build_pi_incentive(const RouterBuildContext& ctx) {
  require_base(ctx);
  DTNIC_REQUIRE_MSG(ctx.world != nullptr && ctx.pi_bank != nullptr,
                    "pi-incentive scheme needs an IncentiveWorld and an escrow bank");
  return std::make_unique<core::PiRouter>(*ctx.oracle, ctx.cfg->chitchat,
                                          ctx.contact_quantum, ctx.world, ctx.pi_bank,
                                          ctx.cfg->pi);
}

RouterPtr build_chitchat(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::ChitChatRouter>(*ctx.oracle, ctx.cfg->chitchat,
                                                   ctx.contact_quantum);
}

RouterPtr build_epidemic(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::EpidemicRouter>(*ctx.oracle);
}

RouterPtr build_direct(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::DirectDeliveryRouter>(*ctx.oracle);
}

RouterPtr build_spray_and_wait(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::SprayAndWaitRouter>(*ctx.oracle, ctx.cfg->spray_copies);
}

RouterPtr build_first_contact(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::FirstContactRouter>(*ctx.oracle);
}

RouterPtr build_vaccine_epidemic(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::VaccineEpidemicRouter>(*ctx.oracle);
}

RouterPtr build_prophet(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::ProphetRouter>(*ctx.oracle, ctx.cfg->prophet);
}

RouterPtr build_nectar(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::NectarRouter>(*ctx.oracle, ctx.cfg->nectar);
}

RouterPtr build_two_hop(const RouterBuildContext& ctx) {
  require_base(ctx);
  return std::make_unique<routing::TwoHopRouter>(*ctx.oracle);
}

}  // namespace

const std::vector<RouterSpec>& router_registry() {
  static const std::vector<RouterSpec> registry = {
      {Scheme::kIncentive, "incentive", RouterKind::kIncentive, &build_incentive},
      {Scheme::kPiIncentive, "pi-incentive", RouterKind::kPiIncentive, &build_pi_incentive},
      {Scheme::kChitChat, "chitchat", RouterKind::kChitChat, &build_chitchat},
      {Scheme::kEpidemic, "epidemic", RouterKind::kEpidemic, &build_epidemic},
      {Scheme::kDirectDelivery, "direct", RouterKind::kDirectDelivery, &build_direct},
      {Scheme::kSprayAndWait, "spray-and-wait", RouterKind::kSprayAndWait,
       &build_spray_and_wait},
      {Scheme::kFirstContact, "first-contact", RouterKind::kFirstContact,
       &build_first_contact},
      {Scheme::kVaccineEpidemic, "vaccine-epidemic", RouterKind::kVaccineEpidemic,
       &build_vaccine_epidemic},
      {Scheme::kProphet, "prophet", RouterKind::kProphet, &build_prophet},
      {Scheme::kNectar, "nectar", RouterKind::kNectar, &build_nectar},
      {Scheme::kTwoHop, "two-hop", RouterKind::kTwoHop, &build_two_hop},
  };
  return registry;
}

const RouterSpec& router_spec(Scheme s) {
  for (const RouterSpec& spec : router_registry()) {
    if (spec.scheme == s) return spec;
  }
  DTNIC_REQUIRE_MSG(false, "scheme missing from the router registry");
  return router_registry().front();  // unreachable
}

const RouterSpec* find_router_spec(std::string_view name) {
  for (const RouterSpec& spec : router_registry()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<routing::Router> build_router(const RouterBuildContext& ctx) {
  require_base(ctx);
  RouterPtr router = router_spec(ctx.cfg->scheme).build(ctx);
  if (routing::is_chitchat_kind(router->kind())) {
    static_cast<routing::ChitChatRouter&>(*router).interests().reserve(ctx.keyword_pool_size);
  }
  return router;
}

}  // namespace dtnic::scenario
