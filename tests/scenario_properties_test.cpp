#include <gtest/gtest.h>

#include <ostream>

#include "core/incentive_router.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"

/// End-to-end property sweeps: invariants that must hold for ANY seed and
/// behavior mix, checked on compact scenarios across a seed matrix.

namespace dtnic::scenario {
namespace {

struct SweepCase {
  std::uint64_t seed;
  double selfish;
  double malicious;
  Scheme scheme;
};

/// gtest prints a parameter it cannot format as its raw bytes, padding
/// included, and ctest copies that text into the test name; printing the
/// fields keeps the names identical from build to build.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "{seed " << c.seed << ", selfish " << c.selfish << ", malicious " << c.malicious
      << ", " << scheme_name(c.scheme) << "}";
}

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto& c = info.param;
  std::string name = std::string(scheme_name(c.scheme)) + "_s" + std::to_string(c.seed) +
                     "_self" + std::to_string(static_cast<int>(c.selfish * 100)) + "_mal" +
                     std::to_string(static_cast<int>(c.malicious * 100));
  for (char& ch : name) {
    if (ch == '-') ch = '_';  // gtest names must be alphanumeric/underscore
  }
  return name;
}

class ScenarioSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ScenarioSweep, GlobalInvariantsHold) {
  const SweepCase& c = GetParam();
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(30, 1.0);
  cfg.messages_per_node_per_hour = 1.0;
  cfg.seed = c.seed;
  cfg.selfish_fraction = c.selfish;
  cfg.malicious_fraction = c.malicious;
  cfg.scheme = c.scheme;
  cfg.incentive.initial_tokens = 15.0;

  Scenario sim(cfg);
  const RunResult r = sim.run();

  // Delivery sanity.
  EXPECT_LE(r.delivered, r.created);
  EXPECT_GE(r.mdr, 0.0);
  EXPECT_LE(r.mdr, 1.0);
  EXPECT_GE(r.deliveries_total, r.delivered);
  // Priority buckets partition the totals.
  EXPECT_EQ(r.created_high + r.created_medium + r.created_low, r.created);
  EXPECT_EQ(r.delivered_high + r.delivered_medium + r.delivered_low, r.delivered);

  if (c.scheme == Scheme::kIncentive) {
    // Token conservation: payments move tokens, never mint or burn them.
    EXPECT_NEAR(r.total_tokens,
                static_cast<double>(cfg.num_nodes) * cfg.incentive.initial_tokens, 1e-6);
    // Every ledger stays non-negative.
    for (std::size_t i = 0; i < sim.node_count(); ++i) {
      const auto id = util::NodeId(static_cast<util::NodeId::underlying>(i));
      const auto* router = core::IncentiveRouter::of(sim.host(id));
      ASSERT_NE(router, nullptr);
      EXPECT_GE(router->ledger().balance(), 0.0);
      EXPECT_GE(router->ledger().total_earned(), 0.0);
      EXPECT_GE(router->ledger().total_spent(), 0.0);
    }
    // Ratings stay on the 0..5 scale.
    const auto& samples = r.malicious_rating.samples();
    for (const auto& s : samples) {
      EXPECT_GE(s.value, 0.0);
      EXPECT_LE(s.value, cfg.drm.rating_max);
    }
  } else {
    EXPECT_EQ(r.payments, 0u);
    EXPECT_DOUBLE_EQ(r.tokens_paid, 0.0);
  }

  // Buffers never exceed capacity.
  for (std::size_t i = 0; i < sim.node_count(); ++i) {
    const auto id = util::NodeId(static_cast<util::NodeId::underlying>(i));
    EXPECT_LE(sim.host(id).buffer().used_bytes(), cfg.buffer_capacity_bytes);
  }

  // Suppression only happens when someone is selfish.
  if (c.selfish == 0.0) EXPECT_EQ(r.contacts_suppressed, 0u);

  // Energy was consumed iff transfers happened.
  if (r.traffic > 0) EXPECT_GT(r.total_energy_j, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ScenarioSweep,
    ::testing::Values(SweepCase{1, 0.0, 0.0, Scheme::kIncentive},
                      SweepCase{2, 0.3, 0.0, Scheme::kIncentive},
                      SweepCase{3, 0.0, 0.2, Scheme::kIncentive},
                      SweepCase{4, 0.3, 0.2, Scheme::kIncentive},
                      SweepCase{5, 0.6, 0.3, Scheme::kIncentive},
                      SweepCase{6, 1.0, 0.0, Scheme::kIncentive},
                      SweepCase{7, 0.3, 0.0, Scheme::kChitChat},
                      SweepCase{8, 0.0, 0.0, Scheme::kChitChat},
                      SweepCase{9, 0.2, 0.0, Scheme::kEpidemic},
                      SweepCase{10, 0.2, 0.0, Scheme::kDirectDelivery},
                      SweepCase{11, 0.2, 0.0, Scheme::kSprayAndWait},
                      SweepCase{12, 0.2, 0.0, Scheme::kFirstContact}),
    case_name);

/// Determinism across the full pipeline for every scheme.
class SchemeDeterminism : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeDeterminism, IdenticalRunsForIdenticalSeeds) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(25, 1.0);
  cfg.scheme = GetParam();
  cfg.seed = 99;
  cfg.selfish_fraction = 0.2;
  const RunResult a = ExperimentRunner::run_once(cfg);
  const RunResult b = ExperimentRunner::run_once(cfg);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.traffic, b.traffic);
  EXPECT_EQ(a.relay_arrivals, b.relay_arrivals);
  EXPECT_EQ(a.contacts, b.contacts);
  EXPECT_EQ(a.contacts_suppressed, b.contacts_suppressed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_DOUBLE_EQ(a.tokens_paid, b.tokens_paid);
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeDeterminism,
                         ::testing::Values(Scheme::kIncentive, Scheme::kChitChat,
                                           Scheme::kEpidemic, Scheme::kDirectDelivery,
                                           Scheme::kSprayAndWait, Scheme::kFirstContact));

/// Behavioral trend: more selfishness cannot increase formed contacts.
TEST(ScenarioTrends, ContactsMonotoneInSelfishness) {
  std::uint64_t prev = 0;
  bool first = true;
  for (const double selfish : {0.0, 0.5, 1.0}) {
    ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 1.5);
    cfg.scheme = Scheme::kChitChat;
    cfg.seed = 11;
    cfg.selfish_fraction = selfish;
    const RunResult r = ExperimentRunner::run_once(cfg);
    if (!first) EXPECT_LE(r.contacts, prev);
    prev = r.contacts;
    first = false;
  }
}

/// Behavioral trend: enrichment widens reach (more (msg, dest) deliveries).
TEST(ScenarioTrends, EnrichmentWidensReach) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(50, 2.0);
  cfg.scheme = Scheme::kIncentive;
  cfg.seed = 17;
  cfg.interests_per_node = 5;
  cfg.keywords_per_message = 2;
  cfg.latent_extra_keywords = 3;
  cfg.enrich_probability = 0.8;
  const RunResult with = ExperimentRunner::run_once(cfg);
  cfg.enrichment_enabled = false;
  const RunResult without = ExperimentRunner::run_once(cfg);
  EXPECT_GT(with.deliveries_total, without.deliveries_total);
}

/// Behavioral trend: a larger token allowance cannot hurt delivery much;
/// starved allowances clearly do (Fig. 5.3's monotone backbone).
TEST(ScenarioTrends, TokensGateDelivery) {
  auto run_with_tokens = [](double tokens) {
    ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 2.0);
    cfg.scheme = Scheme::kIncentive;
    cfg.seed = 23;
    cfg.messages_per_node_per_hour = 1.0;
    cfg.incentive.initial_tokens = tokens;
    return ExperimentRunner::run_once(cfg);
  };
  const RunResult starved = run_with_tokens(1.0);
  const RunResult generous = run_with_tokens(500.0);
  EXPECT_GT(generous.mdr, starved.mdr);
  EXPECT_GT(starved.refused_no_tokens, generous.refused_no_tokens);
}

/// Failure injection: congested fast-moving worlds break links mid-transfer;
/// aborts must occur and never corrupt delivery accounting.
TEST(ScenarioFailures, AbortsHappenAndAccountingHolds) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(60, 2.0);
  cfg.max_speed_mps = 12.0;  // vehicles: contacts break quickly
  cfg.min_speed_mps = 6.0;
  cfg.messages_per_node_per_hour = 2.0;
  cfg.message_size_bytes = 4 * 1024 * 1024;  // 16 s per transfer at 250 kBps
  cfg.seed = 31;
  Scenario sim(cfg);
  const RunResult r = sim.run();
  EXPECT_GT(r.aborted, 0u);
  EXPECT_LE(r.delivered, r.created);
  // Token conservation survives aborted transfers (no half-payments).
  EXPECT_NEAR(r.total_tokens,
              static_cast<double>(cfg.num_nodes) * cfg.incentive.initial_tokens, 1e-6);
}

/// The seen-set enforces pay-once per (message, destination) even when the
/// destination's buffer has evicted the copy since.
TEST(ScenarioFailures, NoDoublePaymentAfterEviction) {
  ScenarioConfig cfg = ScenarioConfig::scaled_defaults(40, 2.0);
  cfg.buffer_capacity_bytes = 4 * cfg.message_size_bytes;  // heavy eviction
  cfg.messages_per_node_per_hour = 2.0;
  cfg.seed = 37;
  Scenario sim(cfg);
  const RunResult r = sim.run();
  EXPECT_GT(r.dropped_buffer, 0u);
  // Unique (message, destination) deliveries bound the number of payments
  // from destinations; with prepayments included, payments can exceed
  // deliveries but conservation must hold exactly.
  EXPECT_NEAR(r.total_tokens,
              static_cast<double>(cfg.num_nodes) * cfg.incentive.initial_tokens, 1e-6);
  EXPECT_EQ(r.deliveries_total, static_cast<std::uint64_t>(sim.metrics().deliveries_total()));
}

}  // namespace
}  // namespace dtnic::scenario
