#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/behavior.h"
#include "routing/router.h"
#include "scenario/config.h"
#include "util/rng.h"
#include "util/sim_time.h"

/// \file router_factory.h
/// One registry mapping each routing scheme to its name, RouterKind tag, and
/// builder. Replaces the Scheme switch that used to live in scenario.cpp and
/// the parallel name tables in config_io.cpp / config.cpp: scheme parsing,
/// scheme printing, simulator router construction, and the live `dtnic`
/// daemon all consult the same table, so adding a scheme is one registry row.

namespace dtnic::core {
struct IncentiveWorld;
class PiEscrowBank;
}  // namespace dtnic::core

namespace dtnic::scenario {

/// Everything a router builder may need. All referenced objects must outlive
/// the router. Optional services (world, pi_bank, master_rng) are only
/// required by the schemes that use them; build() checks.
struct RouterBuildContext {
  const ScenarioConfig* cfg = nullptr;
  /// Concrete oracle type: most routers take the DestinationOracle base, but
  /// Nectar reads static interests directly.
  const routing::StaticInterestOracle* oracle = nullptr;
  util::SimTime contact_quantum = util::SimTime::zero();
  /// Size of the interned keyword pool (ids 0 .. size-1). ChitChat-family
  /// interest tables are pre-sized to it, so acquiring a pool keyword never
  /// grows a table mid-run.
  std::size_t keyword_pool_size = 0;
  /// Shared incentive services (incentive / pi-incentive schemes).
  const core::IncentiveWorld* world = nullptr;
  core::PiEscrowBank* pi_bank = nullptr;
  /// Per-node behavior profile (incentive scheme).
  core::BehaviorProfile behavior;
  /// Master RNG + stable stream tag for schemes that fork a per-node stream.
  /// DETERMINISM: Rng::fork mutates the parent, so ONLY builders of schemes
  /// that historically forked (kIncentive) may call it — and they fork
  /// exactly once with tag `rng_stream_tag + node_index * 16`, preserving
  /// the seed repo's fork sequence bit-for-bit.
  util::Rng* master_rng = nullptr;
  std::uint64_t rng_stream_tag = 0;
  std::size_t node_index = 0;
};

/// One registry row: scheme tag <-> wire/config name <-> RouterKind <-> builder.
struct RouterSpec {
  Scheme scheme;
  const char* name;
  routing::RouterKind kind;
  std::unique_ptr<routing::Router> (*build)(const RouterBuildContext&);
};

/// All registered schemes, in Scheme enum order.
[[nodiscard]] const std::vector<RouterSpec>& router_registry();

/// The spec for \p s (every Scheme value is registered).
[[nodiscard]] const RouterSpec& router_spec(Scheme s);

/// Lookup by config/wire name; nullptr when unknown.
[[nodiscard]] const RouterSpec* find_router_spec(std::string_view name);

/// Build a router for ctx.cfg->scheme. Throws std::invalid_argument when the
/// context lacks a service the scheme requires.
[[nodiscard]] std::unique_ptr<routing::Router> build_router(const RouterBuildContext& ctx);

}  // namespace dtnic::scenario
