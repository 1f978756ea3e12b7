#include <gtest/gtest.h>

#include "core/pi_router.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"
#include "test_helpers.h"

namespace dtnic::core {
namespace {

using routing::ForwardPlan;
using routing::Host;
using routing::TransferRole;
using test::MicroWorld;
using util::NodeId;
using util::SimTime;

constexpr auto kT0 = SimTime::zero();

class PiFixture : public ::testing::Test {
 protected:
  PiFixture() : factory(w.keywords) {
    pool = w.keywords.make_pool(20);
    world.keyword_pool = &pool;
    world.incentive.initial_tokens = 50.0;
    world.host_by_id = [this](NodeId id) -> Host* {
      return id.value() < w.size() ? &w.host(id.value()) : nullptr;
    };
    params.attachment = 8.0;
    params.deliverer_share = 0.5;
  }

  Host& make_node(const std::vector<std::string>& interests = {}) {
    Host& h = w.add_host();
    auto router = std::make_unique<PiRouter>(w.oracle, chitchat, SimTime::seconds(5),
                                             &world, &bank, params);
    std::vector<msg::KeywordId> kws;
    for (const auto& name : interests) kws.push_back(w.keywords.intern(name));
    router->set_direct_interests(kws, kT0);
    w.oracle.set_interests(h.id(), kws);
    h.set_router(std::move(router));
    return h;
  }

  msg::MessageId originate(Host& src, const std::vector<std::string>& tags) {
    auto m = factory.make(src.id(), tags);
    const auto id = m.id();
    src.mark_seen(id);
    (void)src.buffer().add(std::move(m), true);
    src.router().on_originated(src, *src.buffer().find(id), kT0);
    return id;
  }

  static PiRouter& router_of(Host& h) { return *PiRouter::of(h); }

  MicroWorld w;
  test::MessageFactory factory;
  std::vector<msg::KeywordId> pool;
  IncentiveWorld world;
  routing::chitchat::ChitChatParams chitchat;
  PiEscrowBank bank;
  PiParams params;
};

// --- PiEscrowBank --------------------------------------------------------------

TEST(PiEscrowBank, DepositClearLifecycle) {
  PiEscrowBank bank;
  bank.deposit(msg::MessageId(1), 4.0);
  bank.deposit(msg::MessageId(1), 2.0);
  bank.deposit(msg::MessageId(2), 1.0);
  EXPECT_DOUBLE_EQ(bank.held(msg::MessageId(1)), 6.0);
  EXPECT_DOUBLE_EQ(bank.total_held(), 7.0);
  EXPECT_DOUBLE_EQ(bank.clear(msg::MessageId(1)), 6.0);
  EXPECT_DOUBLE_EQ(bank.clear(msg::MessageId(1)), 0.0);  // already cleared
  EXPECT_DOUBLE_EQ(bank.total_held(), 1.0);
  EXPECT_DOUBLE_EQ(bank.held(msg::MessageId(99)), 0.0);
}

// --- PiRouter --------------------------------------------------------------------

TEST_F(PiFixture, SourceEscrowsTheAttachment) {
  Host& src = make_node();
  const auto id = originate(src, {"flood"});
  EXPECT_DOUBLE_EQ(router_of(src).ledger().balance(), 42.0);  // 50 - 8
  EXPECT_DOUBLE_EQ(bank.held(id), 8.0);
}

TEST_F(PiFixture, BrokeSourceEscrowsWhatItHas) {
  world.incentive.initial_tokens = 3.0;
  Host& src = make_node();
  const auto id = originate(src, {"flood"});
  EXPECT_DOUBLE_EQ(router_of(src).ledger().balance(), 0.0);
  EXPECT_DOUBLE_EQ(bank.held(id), 3.0);
}

TEST_F(PiFixture, DirectDeliveryPaysDelivererEverything) {
  Host& src = make_node();
  Host& dest = make_node({"flood"});
  const auto id = originate(src, {"flood"});
  w.link_up(src, dest, kT0);
  ASSERT_EQ(w.exchange(src, dest, kT0), 1);
  // No intermediate relays: the deliverer (the source) collects the full 8.
  EXPECT_DOUBLE_EQ(bank.held(id), 0.0);
  EXPECT_DOUBLE_EQ(router_of(src).ledger().balance(), 50.0);
  EXPECT_DOUBLE_EQ(router_of(dest).ledger().balance(), 50.0);  // destinations pay nothing
}

TEST_F(PiFixture, RelayedDeliverySplitsEscrowAcrossPath) {
  Host& src = make_node();
  Host& relay = make_node();
  Host& dest = make_node({"flood"});
  const auto id = originate(src, {"flood"});

  // Hand-carry src -> relay -> dest.
  ForwardPlan relay_plan{id, TransferRole::kRelay};
  msg::Message copy = *src.buffer().find(id);
  copy.record_hop(relay.id(), kT0);
  relay.router().on_received(relay, src, std::move(copy), relay_plan, kT0);

  ForwardPlan deliver{id, TransferRole::kDestination};
  msg::Message final_copy = *relay.buffer().find(id);
  final_copy.record_hop(dest.id(), kT0);
  dest.router().on_received(dest, relay, std::move(final_copy), deliver, kT0);

  // Deliverer (relay) gets 50% = 4; the only other path node is the source
  // itself... which is excluded along with dest — wait: path = [src, relay,
  // dest]; intermediates exclude the deliverer and dest, leaving nobody, so
  // the relay collects the remainder too.
  EXPECT_DOUBLE_EQ(bank.held(id), 0.0);
  EXPECT_DOUBLE_EQ(router_of(relay).ledger().balance(), 58.0);
  EXPECT_DOUBLE_EQ(router_of(src).ledger().balance(), 42.0);  // paid, not reimbursed
  // Conservation: 42 + 58 + 50 = 150 = 3 x 50.
  const double total = router_of(src).ledger().balance() +
                       router_of(relay).ledger().balance() +
                       router_of(dest).ledger().balance() + bank.total_held();
  EXPECT_DOUBLE_EQ(total, 150.0);
}

TEST_F(PiFixture, TwoRelayPathPaysIntermediateToo) {
  Host& src = make_node();
  Host& r1 = make_node();
  Host& r2 = make_node();
  Host& dest = make_node({"flood"});
  const auto id = originate(src, {"flood"});

  auto carry = [&](Host& from, Host& to, TransferRole role) {
    ForwardPlan plan{id, role};
    msg::Message copy = *from.buffer().find(id);
    copy.record_hop(to.id(), kT0);
    to.router().on_received(to, from, std::move(copy), plan, kT0);
  };
  carry(src, r1, TransferRole::kRelay);
  carry(r1, r2, TransferRole::kRelay);
  carry(r2, dest, TransferRole::kDestination);

  // Escrow 8: deliverer r2 gets 4; intermediates (r1) share the other 4.
  EXPECT_DOUBLE_EQ(router_of(r2).ledger().balance(), 54.0);
  EXPECT_DOUBLE_EQ(router_of(r1).ledger().balance(), 54.0);
  EXPECT_DOUBLE_EQ(router_of(dest).ledger().balance(), 50.0);
  EXPECT_DOUBLE_EQ(bank.held(id), 0.0);
}

TEST_F(PiFixture, SecondDeliveryClearsNothing) {
  Host& src = make_node();
  Host& dest1 = make_node({"flood"});
  Host& dest2 = make_node({"flood"});
  const auto id = originate(src, {"flood"});
  w.link_up(src, dest1, kT0);
  ASSERT_EQ(w.exchange(src, dest1, kT0), 1);
  const double after_first = router_of(src).ledger().balance();
  w.link_up(src, dest2, SimTime::seconds(5));
  ASSERT_EQ(w.exchange(src, dest2, SimTime::seconds(5)), 1);
  EXPECT_DOUBLE_EQ(router_of(src).ledger().balance(), after_first);
  EXPECT_EQ(bank.held(id), 0.0);
}

TEST_F(PiFixture, DestinationsNeverRefuseForTokens) {
  world.incentive.initial_tokens = 0.0;  // everyone broke
  Host& src = make_node();
  Host& dest = make_node({"flood"});
  const auto id = originate(src, {"flood"});
  w.link_up(src, dest, kT0);
  const auto plans = test::plan_of(src, dest, kT0);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(dest.router().accept(dest, src, *src.buffer().find(id), plans[0], kT0),
            routing::AcceptDecision::kAccept);
}

// --- end-to-end ------------------------------------------------------------------

TEST(PiScenario, RunsConservesTokensAndNeverRefusesReceivers) {
  scenario::ScenarioConfig cfg = scenario::ScenarioConfig::scaled_defaults(40, 2.0);
  cfg.scheme = scenario::Scheme::kPiIncentive;
  cfg.incentive.initial_tokens = 20.0;
  cfg.pi.attachment = 5.0;
  cfg.seed = 21;
  scenario::Scenario sim(cfg);
  const auto r = sim.run();
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.tokens_paid, 0.0);
  EXPECT_EQ(r.refused_no_tokens, 0u);  // receivers never pay under PI
  EXPECT_NEAR(r.total_tokens, 40 * 20.0, 1e-6);  // ledgers + escrow bank
  EXPECT_EQ(r.scheme, "pi-incentive");
}

}  // namespace
}  // namespace dtnic::core
