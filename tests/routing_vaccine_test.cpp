#include <gtest/gtest.h>

#include "routing/vaccine_epidemic.h"
#include "scenario/experiment.h"
#include "test_helpers.h"

namespace dtnic::routing {
namespace {

using test::MicroWorld;
using util::SimTime;

constexpr auto kT0 = SimTime::zero();

class VaccineFixture : public ::testing::Test {
 protected:
  VaccineFixture() : factory(w.keywords) {}

  Host& make_node(const std::vector<std::string>& interests = {}) {
    Host& h = w.add_host();
    h.set_router(std::make_unique<VaccineEpidemicRouter>(w.oracle));
    std::vector<msg::KeywordId> kws;
    for (const auto& name : interests) kws.push_back(w.keywords.intern(name));
    w.oracle.set_interests(h.id(), kws);
    return h;
  }

  msg::MessageId seed(Host& src, const std::vector<std::string>& tags) {
    auto m = factory.make(src.id(), tags);
    const auto id = m.id();
    src.mark_seen(id);
    (void)src.buffer().add(std::move(m), true);
    return id;
  }

  MicroWorld w;
  test::MessageFactory factory;
};

TEST_F(VaccineFixture, DeliveryImmunizesAndDropsTheCopy) {
  Host& src = make_node();
  Host& dest = make_node({"flood"});
  const auto id = seed(src, {"flood"});
  w.link_up(src, dest, kT0);
  EXPECT_EQ(w.exchange(src, dest, kT0), 1);
  auto* router = VaccineEpidemicRouter::of(dest);
  ASSERT_NE(router, nullptr);
  EXPECT_TRUE(router->immune_to(id));
  EXPECT_FALSE(dest.buffer().contains(id));  // antipacket replaces the copy
  EXPECT_EQ(w.events.deliveries.size(), 1u);
}

TEST_F(VaccineFixture, AntipacketSpreadsAndPurges) {
  Host& src = make_node();
  Host& carrier = make_node();
  Host& dest = make_node({"flood"});
  const auto id = seed(src, {"flood"});

  // Spread the copy to a carrier, then deliver from src to the destination.
  w.link_up(src, carrier, kT0);
  EXPECT_EQ(w.exchange(src, carrier, kT0), 1);
  ASSERT_TRUE(carrier.buffer().contains(id));
  w.link_up(src, dest, kT0);
  EXPECT_EQ(w.exchange(src, dest, kT0), 1);

  // dest gossips its immunity to the carrier, which purges its copy.
  w.link_up(carrier, dest, SimTime::seconds(10));
  EXPECT_FALSE(carrier.buffer().contains(id));
  EXPECT_TRUE(VaccineEpidemicRouter::of(carrier)->immune_to(id));

  // ...and the carrier now refuses fresh copies and never re-offers.
  EXPECT_TRUE(test::plan_of(carrier, dest, SimTime::seconds(10)).empty());
  const ForwardPlan offer{id, TransferRole::kRelay};
  EXPECT_EQ(carrier.router().accept(carrier, src, *src.buffer().find(id), offer,
                                    SimTime::seconds(10)),
            AcceptDecision::kRefused);
}

TEST_F(VaccineFixture, ImmunePeerIsNotOffered) {
  Host& src = make_node();
  Host& dest = make_node({"flood"});
  Host& other = make_node();
  const auto id = seed(src, {"flood"});
  w.link_up(src, dest, kT0);
  (void)w.exchange(src, dest, kT0);
  // src itself is not immune (it still carries the copy for other
  // destinations), but it must not offer the message to the immune dest.
  (void)id;
  w.link_up(src, other, SimTime::seconds(5));
  EXPECT_EQ(test::plan_of(src, other, SimTime::seconds(5)).size(), 1u);
  EXPECT_TRUE(test::plan_of(src, dest, SimTime::seconds(5)).empty());
}

TEST(VaccineScenario, CutsTrafficVersusPlainEpidemic) {
  scenario::ScenarioConfig cfg = scenario::ScenarioConfig::scaled_defaults(50, 2.0);
  cfg.seed = 9;
  cfg.messages_per_node_per_hour = 1.0;
  cfg.scheme = scenario::Scheme::kEpidemic;
  const auto plain = scenario::ExperimentRunner::run_once(cfg);
  cfg.scheme = scenario::Scheme::kVaccineEpidemic;
  const auto vaccine = scenario::ExperimentRunner::run_once(cfg);
  EXPECT_LT(vaccine.traffic, plain.traffic);
  EXPECT_GT(vaccine.delivered, 0u);
  EXPECT_EQ(vaccine.scheme, "vaccine-epidemic");
}

}  // namespace
}  // namespace dtnic::routing
