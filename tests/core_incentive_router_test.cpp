#include <gtest/gtest.h>

#include "core/incentive_router.h"
#include "core/operator_api.h"
#include "test_helpers.h"

namespace dtnic::core {
namespace {

using routing::AcceptDecision;
using routing::ForwardPlan;
using routing::Host;
using routing::TransferRole;
using test::MicroWorld;
using util::NodeId;
using util::SimTime;

constexpr auto kT0 = SimTime::zero();

class IncentiveRouterFixture : public ::testing::Test {
 protected:
  IncentiveRouterFixture() : factory(w.keywords) {
    pool = w.keywords.make_pool(40);
    world.keyword_pool = &pool;
    world.drm.rating_noise_sd = 0.0;  // deterministic judgements
    world.incentive.initial_tokens = 100.0;
    chitchat.growth_rate = 0.05;
    chitchat.decay_beta = 0.01;
  }

  Host& make_node(const std::vector<std::string>& interests,
                  BehaviorProfile profile = {}, std::uint64_t rng_seed = 1) {
    Host& h = w.add_host();
    auto router = std::make_unique<IncentiveRouter>(w.oracle, chitchat, SimTime::seconds(5),
                                                    &world, profile, util::Rng(rng_seed));
    std::vector<msg::KeywordId> kws;
    for (const auto& name : interests) kws.push_back(w.keywords.intern(name));
    router->set_direct_interests(kws, kT0);
    w.oracle.set_interests(h.id(), kws);
    h.set_router(std::move(router));
    return h;
  }

  msg::Message& seed_message(Host& src, const std::vector<std::string>& tags,
                             msg::Priority priority = msg::Priority::kMedium,
                             double quality = 0.8) {
    auto m = factory.make(src.id(), tags, kT0, test::kMB, priority, quality);
    const auto id = m.id();
    src.mark_seen(id);
    (void)src.buffer().add(std::move(m), true);
    return *src.buffer().find_mutable(id);
  }

  static IncentiveRouter& router_of(Host& h) {
    IncentiveRouter* r = IncentiveRouter::of(h);
    EXPECT_NE(r, nullptr);
    return *r;
  }

  MicroWorld w;
  test::MessageFactory factory;
  std::vector<msg::KeywordId> pool;
  IncentiveWorld world;
  routing::chitchat::ChitChatParams chitchat;
};

TEST_F(IncentiveRouterFixture, RequiresWorld) {
  EXPECT_THROW(IncentiveRouter(w.oracle, chitchat, SimTime::seconds(5), nullptr, {},
                               util::Rng(1)),
               std::invalid_argument);
}

TEST_F(IncentiveRouterFixture, StartsWithInitialTokens) {
  Host& a = make_node({"x"});
  EXPECT_DOUBLE_EQ(router_of(a).ledger().balance(), 100.0);
}

TEST_F(IncentiveRouterFixture, PlansCarryPromises) {
  Host& src = make_node({"a"});
  Host& dest = make_node({"flood"});
  seed_message(src, {"flood"});
  w.link_up(src, dest, kT0);
  const auto plans = test::plan_of(src, dest, kT0);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].role, TransferRole::kDestination);
  EXPECT_GT(plans[0].promise, 0.0);
  EXPECT_LE(plans[0].promise, world.incentive.max_incentive);
}

TEST_F(IncentiveRouterFixture, DestinationPaysDelivererOnReceive) {
  Host& src = make_node({"a"});
  Host& dest = make_node({"flood"});
  seed_message(src, {"flood"});
  w.link_up(src, dest, kT0);
  ASSERT_EQ(w.exchange(src, dest, kT0), 1);
  ASSERT_EQ(w.events.payments.size(), 1u);
  EXPECT_EQ(w.events.payments[0].payer, dest.id());
  EXPECT_EQ(w.events.payments[0].payee, src.id());
  EXPECT_GT(w.events.payments[0].amount, 0.0);
  EXPECT_LT(router_of(dest).ledger().balance(), 100.0);
  EXPECT_GT(router_of(src).ledger().balance(), 100.0);
  // Token conservation across the pair.
  EXPECT_NEAR(router_of(src).ledger().balance() + router_of(dest).ledger().balance(), 200.0,
              1e-9);
}

TEST_F(IncentiveRouterFixture, FirstDelivererOnlyPaidOnce) {
  Host& src = make_node({"a"});
  Host& dest = make_node({"flood"});
  seed_message(src, {"flood"});
  w.link_up(src, dest, kT0);
  ASSERT_EQ(w.exchange(src, dest, kT0), 1);
  // Second copy (same id) refused as duplicate: no second payment possible.
  EXPECT_EQ(w.exchange(src, dest, kT0), 0);
  EXPECT_EQ(w.events.payments.size(), 1u);
}

TEST_F(IncentiveRouterFixture, BrokeDestinationRefuses) {
  world.incentive.initial_tokens = 0.0;
  Host& src = make_node({"a"});
  Host& dest = make_node({"flood"});
  seed_message(src, {"flood"});
  w.link_up(src, dest, kT0);
  const auto plans = test::plan_of(src, dest, kT0);
  ASSERT_EQ(plans.size(), 1u);
  ASSERT_GT(plans[0].promise, 0.0);
  EXPECT_EQ(dest.router().accept(dest, src, *src.buffer().find(plans[0].message), plans[0],
                                 kT0),
            AcceptDecision::kNoTokens);
}

TEST_F(IncentiveRouterFixture, UntrustedSenderRefused) {
  Host& src = make_node({"a"});
  Host& dest = make_node({"flood"});
  // Poison dest's opinion of src below the trust threshold (2.0).
  router_of(dest).ratings().add_message_rating(src.id(), 0.5);
  seed_message(src, {"flood"});
  w.link_up(src, dest, kT0);
  const auto plans = test::plan_of(src, dest, kT0);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(dest.router().accept(dest, src, *src.buffer().find(plans[0].message), plans[0],
                                 kT0),
            AcceptDecision::kUntrustedSender);
}

TEST_F(IncentiveRouterFixture, ReputationExchangeSpreadsOpinions) {
  Host& a = make_node({"a"});
  Host& b = make_node({"b"});
  router_of(a).ratings().add_message_rating(NodeId(77), 1.0);
  w.link_up(a, b, kT0);
  // b had no opinion on 77: adopts a's.
  EXPECT_DOUBLE_EQ(router_of(b).ratings().rating_of(NodeId(77)), 1.0);
}

TEST_F(IncentiveRouterFixture, OpinionsAboutThePeerItselfNotMerged) {
  Host& a = make_node({"a"});
  Host& b = make_node({"b"});
  // a holds a terrible first-hand opinion of b; the exchange must not push
  // that opinion INTO b's own store (b would distrust... itself aside, the
  // merge of "about you" opinions is skipped entirely).
  router_of(a).ratings().add_message_rating(b.id(), 0.5);
  w.link_up(a, b, kT0);
  EXPECT_FALSE(router_of(b).ratings().knows(b.id()));
  // Third-party opinions do flow the other way on the same contact.
  router_of(b).ratings().add_message_rating(NodeId(55), 1.5);
  w.link_up(a, b, SimTime::seconds(10));
  EXPECT_TRUE(router_of(a).ratings().knows(NodeId(55)));
}

TEST_F(IncentiveRouterFixture, SelfOpinionNotMerged) {
  Host& a = make_node({"a"});
  Host& b = make_node({"b"});
  router_of(a).ratings().add_message_rating(b.id(), 5.0);  // a praises b
  w.link_up(a, b, kT0);
  // b must not absorb opinions about itself.
  EXPECT_FALSE(router_of(b).ratings().knows(b.id()));
}

TEST_F(IncentiveRouterFixture, DestinationRatesSourceOnDelivery) {
  Host& src = make_node({"a"});
  Host& dest = make_node({"flood"});
  seed_message(src, {"flood"}, msg::Priority::kMedium, 0.8);
  w.link_up(src, dest, kT0);
  ASSERT_EQ(w.exchange(src, dest, kT0), 1);
  // Deterministic judgement: all tags truthful, q=0.8, confidence 0.9:
  // R = 0.5*5*0.9 + 0.5*4 = 4.25.
  EXPECT_TRUE(router_of(dest).ratings().knows(src.id()));
  EXPECT_NEAR(router_of(dest).ratings().rating_of(src.id()), 4.25, 1e-9);
}

TEST_F(IncentiveRouterFixture, MaliciousRelayGetsPoorRatingDownstream) {
  BehaviorProfile malicious;
  malicious.type = BehaviorType::kMalicious;
  malicious.malicious_tags = 3;

  Host& src = make_node({"a"});
  Host& bad = make_node({"carrier"}, malicious, /*rng_seed=*/7);
  Host& dest = make_node({"flood"});

  seed_message(src, {"flood"});
  // src -> bad as relay: bad has transient interest via link_up growth.
  w.link_up(src, bad, kT0);
  w.link_up(bad, dest, kT0);  // gives bad the TSR of dest too
  // Force-relay: construct the relay offer directly (interest dynamics are
  // exercised elsewhere; here we test the DRM consequences).
  const msg::Message* m = src.buffer().find(msg::MessageId(0));
  ASSERT_NE(m, nullptr);
  ForwardPlan relay_plan{m->id(), TransferRole::kRelay};
  msg::Message copy = *m;
  copy.record_hop(bad.id(), kT0);
  bad.router().on_received(bad, src, std::move(copy), relay_plan, kT0);

  // The malicious router planted irrelevant tags on its stored copy.
  const msg::Message* at_bad = bad.buffer().find(m->id());
  ASSERT_NE(at_bad, nullptr);
  const auto planted = at_bad->annotations_by(bad.id());
  ASSERT_EQ(planted.size(), 3u);
  for (const auto& a : planted) EXPECT_FALSE(a.truthful);

  // Deliver to the destination; it judges the planted tags.
  ForwardPlan dest_plan{m->id(), TransferRole::kDestination, 2.0, 0.0};
  msg::Message final_copy = *at_bad;
  final_copy.record_hop(dest.id(), kT0);
  dest.router().on_received(dest, bad, std::move(final_copy), dest_plan, kT0);
  EXPECT_TRUE(router_of(dest).ratings().knows(bad.id()));
  EXPECT_LT(router_of(dest).ratings().rating_of(bad.id()), 1.0);
}

TEST_F(IncentiveRouterFixture, HonestEnrichmentAddsTruthfulTags) {
  BehaviorProfile eager;
  eager.enrich_probability = 1.0;
  eager.honest_max_tags = 2;

  Host& src = make_node({"a"});
  Host& relay = make_node({"carrier"}, eager, /*rng_seed=*/3);

  // The message knows more truth than the source tagged.
  auto m = factory.make(src.id(), {"flood"});
  std::vector<msg::KeywordId> truth = m.true_keywords();
  truth.push_back(w.keywords.intern("rescue"));
  truth.push_back(w.keywords.intern("bridge"));
  m.set_true_keywords(truth);
  const auto id = m.id();
  src.mark_seen(id);
  (void)src.buffer().add(std::move(m), true);

  ForwardPlan relay_plan{id, TransferRole::kRelay};
  msg::Message copy = *src.buffer().find(id);
  copy.record_hop(relay.id(), kT0);
  relay.router().on_received(relay, src, std::move(copy), relay_plan, kT0);

  const msg::Message* stored = relay.buffer().find(id);
  ASSERT_NE(stored, nullptr);
  const auto added = stored->annotations_by(relay.id());
  EXPECT_EQ(added.size(), 2u);
  for (const auto& a : added) EXPECT_TRUE(a.truthful);
}

TEST_F(IncentiveRouterFixture, EnrichmentDisabledWorldwide) {
  world.enrichment_enabled = false;
  BehaviorProfile eager;
  eager.enrich_probability = 1.0;
  Host& src = make_node({"a"});
  Host& relay = make_node({"carrier"}, eager);
  auto& m = seed_message(src, {"flood"});
  ForwardPlan relay_plan{m.id(), TransferRole::kRelay};
  msg::Message copy = m;
  copy.record_hop(relay.id(), kT0);
  relay.router().on_received(relay, src, std::move(copy), relay_plan, kT0);
  EXPECT_TRUE(relay.buffer().find(m.id())->annotations_by(relay.id()).empty());
}

TEST_F(IncentiveRouterFixture, TagRewardIncreasesAward) {
  // Deliverer hands over a copy whose en-route tags match the destination's
  // interests: the award exceeds the bare promise payment.
  Host& carrier1 = make_node({"c1"});
  Host& carrier2 = make_node({"c2"});
  Host& dest = make_node({"flood", "rescue"});

  auto plain = factory.make(NodeId(0), {"flood"});
  const auto id1 = plain.id();
  carrier1.mark_seen(id1);
  (void)carrier1.buffer().add(std::move(plain), true);

  auto enriched = factory.make(NodeId(1), {"flood"});
  const auto id2 = enriched.id();
  // A relay (node 0) added a truthful tag the destination cares about.
  std::vector<msg::KeywordId> truth = enriched.true_keywords();
  const auto rescue = w.keywords.intern("rescue");
  truth.push_back(rescue);
  enriched.set_true_keywords(truth);
  enriched.annotate({rescue, carrier1.id(), true});
  carrier2.mark_seen(id2);
  (void)carrier2.buffer().add(std::move(enriched), true);

  const double promise = 2.0;
  ForwardPlan plan1{id1, TransferRole::kDestination, promise, 0.0};
  msg::Message c1 = *carrier1.buffer().find(id1);
  c1.record_hop(dest.id(), kT0);
  dest.router().on_received(dest, carrier1, std::move(c1), plan1, kT0);
  const double paid_plain = w.events.payments.back().amount;

  ForwardPlan plan2{id2, TransferRole::kDestination, promise, 0.0};
  msg::Message c2 = *carrier2.buffer().find(id2);
  c2.record_hop(dest.id(), kT0);
  dest.router().on_received(dest, carrier2, std::move(c2), plan2, kT0);
  const double paid_enriched = w.events.payments.back().amount;

  EXPECT_GT(paid_enriched, paid_plain);
}

TEST_F(IncentiveRouterFixture, RelayPrepaysAboveThreshold) {
  Host& src = make_node({"a"});
  Host& eager_relay = make_node({"flood2"});
  // Pump the relay's weight for the message keyword close to 1 by repeated
  // growth from a node with the same direct interest.
  Host& teacher = make_node({"flood"});
  auto* relay_router = routing::ChitChatRouter::of(eager_relay);
  for (int i = 0; i < 400; ++i) {
    relay_router->interests().grow_from(
        routing::ChitChatRouter::of(teacher)->interests(), kT0, 10.0);
  }
  const auto flood = w.keywords.find("flood");
  ASSERT_GT(relay_router->interests().weight(flood), 0.8);

  seed_message(src, {"flood"});
  w.link_up(src, eager_relay, kT0);
  const auto plans = test::plan_of(src, eager_relay, kT0);
  ASSERT_FALSE(plans.empty());
  ASSERT_EQ(plans[0].role, TransferRole::kRelay);
  EXPECT_GT(plans[0].prepay, 0.0);
  EXPECT_NEAR(plans[0].prepay, world.incentive.relay_prepay_fraction * plans[0].promise,
              1e-12);

  // On receive, the relay pays the pre-payment to the sender.
  ASSERT_EQ(w.exchange(src, eager_relay, kT0), 1);
  ASSERT_FALSE(w.events.payments.empty());
  EXPECT_EQ(w.events.payments.back().payer, eager_relay.id());
  EXPECT_EQ(w.events.payments.back().payee, src.id());
  EXPECT_NEAR(w.events.payments.back().amount, plans[0].prepay, 1e-12);
}

TEST_F(IncentiveRouterFixture, PlansOrderedByPriorityThenQuality) {
  Host& src = make_node({"a"});
  Host& dest = make_node({"flood"});
  seed_message(src, {"flood"}, msg::Priority::kLow, 0.9);      // id 0
  seed_message(src, {"flood"}, msg::Priority::kHigh, 0.3);     // id 1
  seed_message(src, {"flood"}, msg::Priority::kMedium, 0.7);   // id 2
  seed_message(src, {"flood"}, msg::Priority::kHigh, 0.8);     // id 3
  w.link_up(src, dest, kT0);
  const auto plans = test::plan_of(src, dest, kT0);
  ASSERT_EQ(plans.size(), 4u);
  EXPECT_EQ(plans[0].message, msg::MessageId(3));  // high, q=.8
  EXPECT_EQ(plans[1].message, msg::MessageId(1));  // high, q=.3
  EXPECT_EQ(plans[2].message, msg::MessageId(2));  // medium
  EXPECT_EQ(plans[3].message, msg::MessageId(0));  // low
}

TEST_F(IncentiveRouterFixture, ComputePromiseSpecialCaseHighPriorityToOfficer) {
  Host& sergeant = make_node({"a"});
  sergeant.set_rank(1);
  Host& soldier = make_node({"b"});
  soldier.set_rank(2);
  // Message whose keywords the soldier has no strength for, high priority.
  seed_message(sergeant, {"secret"}, msg::Priority::kHigh, 0.9);
  const double promise = router_of(sergeant).compute_promise(
      sergeant, soldier, *sergeant.buffer().find(msg::MessageId(0)));
  EXPECT_DOUBLE_EQ(promise, world.incentive.max_incentive);
}

TEST_F(IncentiveRouterFixture, AwardScaledByDelivererReputation) {
  Host& carrier = make_node({"c"});
  Host& dest = make_node({"flood"});
  // Destination distrusts nobody yet but rates carrier poorly-ish (above the
  // trust threshold so the transfer is still accepted).
  router_of(dest).ratings().add_message_rating(carrier.id(), 2.5);

  auto m = factory.make(NodeId(5), {"flood"});
  const auto id = m.id();
  carrier.mark_seen(id);
  (void)carrier.buffer().add(std::move(m), true);

  ForwardPlan plan{id, TransferRole::kDestination, 4.0, 0.0};
  msg::Message copy = *carrier.buffer().find(id);
  copy.record_hop(dest.id(), kT0);
  dest.router().on_received(dest, carrier, std::move(copy), plan, kT0);
  ASSERT_EQ(w.events.payments.size(), 1u);
  // factor = rating/5 = 0.5 (no path ratings), award = 0.5 * 4.0.
  EXPECT_NEAR(w.events.payments[0].amount, 2.0, 1e-9);
}

TEST_F(IncentiveRouterFixture, LinkDownForgetsContactDistance) {
  Host& a = make_node({"a"});
  Host& b = make_node({"flood"});
  w.link_up(a, b, kT0, /*distance=*/10.0);
  a.router().on_link_down(a, b, kT0);
  // No crash and promises still computable (falls back to range).
  seed_message(a, {"flood"});
  EXPECT_GT(router_of(a).compute_promise(a, b, *a.buffer().find(msg::MessageId(0))), 0.0);
}

}  // namespace
}  // namespace dtnic::core
