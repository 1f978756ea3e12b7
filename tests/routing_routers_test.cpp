#include <gtest/gtest.h>

#include "routing/chitchat/chitchat_router.h"
#include "routing/direct_delivery.h"
#include "routing/epidemic.h"
#include "routing/first_contact.h"
#include "routing/spray_and_wait.h"
#include "test_helpers.h"

namespace dtnic::routing {
namespace {

using test::MicroWorld;
using util::SimTime;

constexpr auto kT0 = SimTime::zero();

// --- Host ---------------------------------------------------------------------

TEST(Host, SeenSetAndRank) {
  MicroWorld w;
  Host& h = w.add_host();
  EXPECT_FALSE(h.has_seen(MessageId(1)));
  h.mark_seen(MessageId(1));
  EXPECT_TRUE(h.has_seen(MessageId(1)));
  h.set_rank(3);
  EXPECT_EQ(h.rank(), 3);
  EXPECT_THROW(h.set_rank(0), std::invalid_argument);
}

TEST(Host, RouterRequiredBeforeUse) {
  MicroWorld w;
  Host& h = w.add_host();
  EXPECT_FALSE(h.has_router());
  EXPECT_THROW((void)h.router(), std::invalid_argument);
  h.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  EXPECT_TRUE(h.has_router());
}

// --- StaticInterestOracle --------------------------------------------------------

TEST(Oracle, DestinationByDirectInterest) {
  MicroWorld w;
  test::MessageFactory factory(w.keywords);
  Host& a = w.add_host();
  const auto kw = w.keywords.intern("flood");
  w.oracle.set_interests(a.id(), {kw});
  const msg::Message m = factory.make(util::NodeId(9), {"flood", "rescue"});
  EXPECT_TRUE(w.oracle.is_destination(a.id(), m));
  const msg::Message other = factory.make(util::NodeId(9), {"parade"});
  EXPECT_FALSE(w.oracle.is_destination(a.id(), other));
}

TEST(Oracle, SubscribersOf) {
  MicroWorld w;
  Host& a = w.add_host();
  Host& b = w.add_host();
  const auto kw = w.keywords.intern("fire");
  w.oracle.set_interests(b.id(), {kw});
  w.oracle.set_interests(a.id(), {kw});
  const auto subs = w.oracle.subscribers_of(kw);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0], a.id());
  EXPECT_TRUE(w.oracle.interests_of(util::NodeId(99)).empty());
}

// --- Epidemic ----------------------------------------------------------------------

TEST(Epidemic, OffersEverythingUnseen) {
  MicroWorld w;
  test::MessageFactory factory(w.keywords);
  Host& a = w.add_host();
  Host& b = w.add_host();
  a.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  b.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  for (int i = 0; i < 3; ++i) {
    auto m = factory.make(a.id(), {"k" + std::to_string(i)});
    a.mark_seen(m.id());
    (void)a.buffer().add(std::move(m), true);
  }
  EXPECT_EQ(w.exchange(a, b, kT0), 3);
  EXPECT_EQ(b.buffer().size(), 3u);
  // Everything is already seen at b: nothing moves again.
  EXPECT_EQ(w.exchange(a, b, kT0), 0);
}

TEST(Epidemic, MarksDestinationRole) {
  MicroWorld w;
  test::MessageFactory factory(w.keywords);
  Host& a = w.add_host();
  Host& b = w.add_host();
  a.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  b.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  w.oracle.set_interests(b.id(), {w.keywords.intern("flood")});
  auto m = factory.make(a.id(), {"flood"});
  a.mark_seen(m.id());
  (void)a.buffer().add(std::move(m), true);
  (void)w.exchange(a, b, kT0);
  ASSERT_EQ(w.events.deliveries.size(), 1u);
  EXPECT_EQ(w.events.deliveries[0].to, b.id());
  EXPECT_EQ(w.events.relayed, 0);
}

TEST(Epidemic, SenderKeepsCopy) {
  MicroWorld w;
  test::MessageFactory factory(w.keywords);
  Host& a = w.add_host();
  Host& b = w.add_host();
  a.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  b.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  auto m = factory.make(a.id(), {"x"});
  const auto id = m.id();
  a.mark_seen(id);
  (void)a.buffer().add(std::move(m), true);
  (void)w.exchange(a, b, kT0);
  EXPECT_TRUE(a.buffer().contains(id));  // replication, not hand-off
  EXPECT_TRUE(b.buffer().contains(id));
}

// --- DirectDelivery ------------------------------------------------------------------

TEST(DirectDelivery, OnlyDestinationsReceive) {
  MicroWorld w;
  test::MessageFactory factory(w.keywords);
  Host& src = w.add_host();
  Host& relay = w.add_host();
  Host& dest = w.add_host();
  for (Host* h : {&src, &relay, &dest}) {
    h->set_router(std::make_unique<DirectDeliveryRouter>(w.oracle));
  }
  w.oracle.set_interests(dest.id(), {w.keywords.intern("flood")});
  auto m = factory.make(src.id(), {"flood"});
  src.mark_seen(m.id());
  (void)src.buffer().add(std::move(m), true);
  EXPECT_EQ(w.exchange(src, relay, kT0), 0);  // relay is not a destination
  EXPECT_EQ(w.exchange(src, dest, kT0), 1);
  EXPECT_EQ(w.events.deliveries.size(), 1u);
}

// --- FirstContact ---------------------------------------------------------------------

TEST(FirstContact, SingleCopyMoves) {
  MicroWorld w;
  test::MessageFactory factory(w.keywords);
  Host& a = w.add_host();
  Host& b = w.add_host();
  a.set_router(std::make_unique<FirstContactRouter>(w.oracle));
  b.set_router(std::make_unique<FirstContactRouter>(w.oracle));
  auto m = factory.make(a.id(), {"x"});
  const auto id = m.id();
  a.mark_seen(id);
  (void)a.buffer().add(std::move(m), true);
  (void)w.exchange(a, b, kT0);
  EXPECT_FALSE(a.buffer().contains(id));  // handed off
  EXPECT_TRUE(b.buffer().contains(id));
}

// --- SprayAndWait -----------------------------------------------------------------------

TEST(SprayAndWait, BinarySplitHalvesCopies) {
  MicroWorld w;
  test::MessageFactory factory(w.keywords);
  Host& a = w.add_host();
  Host& b = w.add_host();
  a.set_router(std::make_unique<SprayAndWaitRouter>(w.oracle, 8));
  b.set_router(std::make_unique<SprayAndWaitRouter>(w.oracle, 8));
  auto m = factory.make(a.id(), {"x"});
  const auto id = m.id();
  a.mark_seen(id);
  (void)a.buffer().add(std::move(m), true);
  a.router().on_originated(a, *a.buffer().find(id), kT0);
  EXPECT_DOUBLE_EQ(a.buffer().find(id)->property_or("snw.copies", 0), 8.0);

  (void)w.exchange(a, b, kT0);
  EXPECT_DOUBLE_EQ(a.buffer().find(id)->property_or("snw.copies", 0), 4.0);
  EXPECT_DOUBLE_EQ(b.buffer().find(id)->property_or("snw.copies", 0), 4.0);
}

TEST(SprayAndWait, WaitPhaseOnlyDelivers) {
  MicroWorld w;
  test::MessageFactory factory(w.keywords);
  Host& a = w.add_host();
  Host& relay = w.add_host();
  Host& dest = w.add_host();
  for (Host* h : {&a, &relay, &dest}) {
    h->set_router(std::make_unique<SprayAndWaitRouter>(w.oracle, 1));
  }
  w.oracle.set_interests(dest.id(), {w.keywords.intern("flood")});
  auto m = factory.make(a.id(), {"flood"});
  const auto id = m.id();
  a.mark_seen(id);
  (void)a.buffer().add(std::move(m), true);
  a.router().on_originated(a, *a.buffer().find(id), kT0);
  // One copy: no relay spraying, but destinations still get it.
  EXPECT_EQ(w.exchange(a, relay, kT0), 0);
  EXPECT_EQ(w.exchange(a, dest, kT0), 1);
}

TEST(SprayAndWait, RejectsZeroCopies) {
  MicroWorld w;
  EXPECT_THROW(SprayAndWaitRouter(w.oracle, 0), std::invalid_argument);
}

// --- ChitChat ----------------------------------------------------------------------------

class ChitChatFixture : public ::testing::Test {
 protected:
  ChitChatFixture() : factory(w.keywords) {
    params.growth_rate = 0.05;
    params.decay_beta = 0.01;
  }

  Host& make_node(const std::vector<std::string>& interests) {
    Host& h = w.add_host();
    auto router = std::make_unique<ChitChatRouter>(w.oracle, params,
                                                   SimTime::seconds(5));
    std::vector<msg::KeywordId> kws;
    for (const auto& name : interests) kws.push_back(w.keywords.intern(name));
    router->set_direct_interests(kws, kT0);
    w.oracle.set_interests(h.id(), kws);
    h.set_router(std::move(router));
    return h;
  }

  MicroWorld w;
  test::MessageFactory factory;
  chitchat::ChitChatParams params;
};

TEST_F(ChitChatFixture, DeliversToDirectInterest) {
  Host& src = make_node({"alpha"});
  Host& dest = make_node({"flood"});
  auto m = factory.make(src.id(), {"flood"});
  src.mark_seen(m.id());
  (void)src.buffer().add(std::move(m), true);
  w.link_up(src, dest, kT0);
  EXPECT_EQ(w.exchange(src, dest, kT0), 1);
  EXPECT_EQ(w.events.deliveries.size(), 1u);
}

TEST_F(ChitChatFixture, ForwardsOnlyToStrongerRelays) {
  Host& src = make_node({"alpha"});
  Host& weak = make_node({"beta"});     // no interest overlap with the message
  Host& strong = make_node({"flood"});  // direct interest -> destination though
  Host& carrier = make_node({"gamma"});

  // Give the carrier a transient "flood" interest by meeting `strong` first.
  w.link_up(carrier, strong, kT0);
  ASSERT_GT(ChitChatRouter::of(carrier)->interests().weight(w.keywords.find("flood")), 0.0);

  auto m = factory.make(src.id(), {"flood"});
  const auto id = m.id();
  src.mark_seen(id);
  (void)src.buffer().add(std::move(m), true);

  // weak has zero strength for "flood": S_v == S_u == 0, no forward.
  w.link_up(src, weak, SimTime::seconds(100));
  EXPECT_EQ(w.exchange(src, weak, SimTime::seconds(100)), 0);

  // carrier has transient strength > 0 = S_u: relay forward happens.
  w.link_up(src, carrier, SimTime::seconds(200));
  EXPECT_EQ(w.exchange(src, carrier, SimTime::seconds(200)), 1);
  EXPECT_EQ(w.events.relayed, 1);
  EXPECT_TRUE(carrier.buffer().contains(id));
}

TEST_F(ChitChatFixture, MessageStrengthSumsWeights) {
  Host& node = make_node({"a", "b"});
  const msg::Message m = factory.make(util::NodeId(9), {"a", "b", "c"});
  const auto* router = ChitChatRouter::of(node);
  ASSERT_NE(router, nullptr);
  EXPECT_DOUBLE_EQ(router->message_strength(m), 1.0);  // 0.5 + 0.5 + 0
}

TEST_F(ChitChatFixture, TsrExchangeAcquiresTransientInterests) {
  Host& a = make_node({"photography"});
  Host& b = make_node({"cooking"});
  w.link_up(a, b, kT0);
  auto* ra = ChitChatRouter::of(a);
  EXPECT_GT(ra->interests().weight(w.keywords.find("cooking")), 0.0);
  EXPECT_FALSE(ra->interests().has_direct(w.keywords.find("cooking")));
}

TEST_F(ChitChatFixture, SharedInterestWithConnectedNeighborDoesNotDecay) {
  Host& node = make_node({"alpha"});
  Host& neighbor = make_node({"alpha"});
  Host& newcomer = make_node({"beta"});
  // Pump node's "alpha" weight above 0.5 via the neighbor.
  w.link_up(node, neighbor, kT0);
  auto* router = ChitChatRouter::of(node);
  const double grown = router->interests().weight(w.keywords.find("alpha"));
  ASSERT_GT(grown, 0.5);

  // Hours later a new contact triggers pre_exchange. With the neighbor still
  // connected (passed in the neighbor span), "alpha" must not decay...
  std::vector<Host*> still_connected{&neighbor};
  router->pre_exchange(node, SimTime::hours(5), still_connected);
  EXPECT_DOUBLE_EQ(router->interests().weight(w.keywords.find("alpha")), grown);

  // ...whereas with no neighbors it decays toward the 0.5 floor.
  std::vector<Host*> nobody;
  router->pre_exchange(node, SimTime::hours(10), nobody);
  EXPECT_LT(router->interests().weight(w.keywords.find("alpha")), grown);
  (void)newcomer;
}

TEST_F(ChitChatFixture, NonChitChatNeighborsDoNotBlockDecay) {
  Host& node = make_node({"alpha"});
  Host& neighbor = make_node({"alpha"});
  w.link_up(node, neighbor, kT0);
  auto* router = ChitChatRouter::of(node);
  const double grown = router->interests().weight(w.keywords.find("alpha"));

  Host& plain = w.add_host();
  plain.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  std::vector<Host*> only_plain{&plain};
  router->pre_exchange(node, SimTime::hours(5), only_plain);
  EXPECT_LT(router->interests().weight(w.keywords.find("alpha")), grown);
}

TEST_F(ChitChatFixture, OfNonChitChatHostIsNull) {
  Host& plain = w.add_host();
  plain.set_router(std::make_unique<EpidemicRouter>(w.oracle));
  EXPECT_EQ(ChitChatRouter::of(plain), nullptr);
  Host& bare = w.add_host();
  EXPECT_EQ(ChitChatRouter::of(bare), nullptr);
}

TEST_F(ChitChatFixture, DuplicateSuppressedByPlanAndAccept) {
  Host& src = make_node({"x"});
  Host& dest = make_node({"flood"});
  auto m = factory.make(src.id(), {"flood"});
  const auto id = m.id();
  src.mark_seen(id);
  (void)src.buffer().add(std::move(m), true);
  w.link_up(src, dest, kT0);
  EXPECT_EQ(w.exchange(src, dest, kT0), 1);
  // plan() now excludes the message (peer has seen it)...
  EXPECT_TRUE(test::plan_of(src, dest, kT0).empty());
  // ...and even a direct offer is refused as a duplicate.
  const ForwardPlan offer{id, TransferRole::kDestination};
  EXPECT_EQ(dest.router().accept(dest, src, *src.buffer().find(id), offer, kT0),
            AcceptDecision::kDuplicate);
}

}  // namespace
}  // namespace dtnic::routing
