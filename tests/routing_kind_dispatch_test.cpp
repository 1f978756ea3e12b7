#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/incentive_router.h"
#include "core/pi_router.h"
#include "routing/chitchat/chitchat_router.h"
#include "routing/epidemic.h"
#include "routing/prophet.h"
#include "test_helpers.h"
#include "util/rng.h"

/// Tests for the exchange hot-path machinery: the RouterKind tag dispatch
/// behind the ::of() accessors, and the shared immutable message core's
/// copy-on-write semantics.

namespace dtnic {
namespace {

using test::kMB;
using util::SimTime;

msg::KeywordId kw(int k) {
  return msg::KeywordId(static_cast<util::KeywordId::underlying>(k));
}

TEST(RouterKindDispatch, OfAccessorsDiscriminateExactly) {
  routing::StaticInterestOracle oracle;
  routing::chitchat::ChitChatParams params;
  core::IncentiveWorld world;
  core::PiEscrowBank bank;

  routing::Host chit(util::NodeId(0), kMB);
  chit.set_router(
      std::make_unique<routing::ChitChatRouter>(oracle, params, SimTime::seconds(5.0)));
  routing::Host inc(util::NodeId(1), kMB);
  inc.set_router(std::make_unique<core::IncentiveRouter>(
      oracle, params, SimTime::seconds(5.0), &world, core::BehaviorProfile{},
      util::Rng(1)));
  routing::Host pi(util::NodeId(2), kMB);
  pi.set_router(std::make_unique<core::PiRouter>(oracle, params, SimTime::seconds(5.0),
                                                 &world, &bank, core::PiParams{}));
  routing::Host epi(util::NodeId(3), kMB);
  epi.set_router(std::make_unique<routing::EpidemicRouter>(oracle));

  // Every ChitChat-derived router is visible through ChitChatRouter::of.
  EXPECT_NE(routing::ChitChatRouter::of(chit), nullptr);
  EXPECT_NE(routing::ChitChatRouter::of(inc), nullptr);
  EXPECT_NE(routing::ChitChatRouter::of(pi), nullptr);
  EXPECT_EQ(routing::ChitChatRouter::of(epi), nullptr);

  // The incentive accessors match only their exact scheme — a PI host must
  // not be mistaken for the destination-pays router or vice versa.
  EXPECT_NE(core::IncentiveRouter::of(inc), nullptr);
  EXPECT_EQ(core::IncentiveRouter::of(chit), nullptr);
  EXPECT_EQ(core::IncentiveRouter::of(pi), nullptr);
  EXPECT_NE(core::PiRouter::of(pi), nullptr);
  EXPECT_EQ(core::PiRouter::of(inc), nullptr);
  EXPECT_EQ(routing::ProphetRouter::of(epi), nullptr);
}

TEST(MessageSharedCore, CopiesDivergeIndependently) {
  msg::Message original(util::MessageId(7), util::NodeId(1), SimTime::seconds(10.0),
                        2 * kMB, msg::Priority::kHigh, 0.9);
  (void)original.annotate(msg::Annotation{kw(1), util::NodeId(1), true});
  original.set_true_keywords({kw(1)});
  // The constructor records the source as hop 0, so the path starts at 1.
  ASSERT_EQ(original.path().size(), 1u);

  msg::Message copy = original;

  // Per-copy state: annotations, path, and ratings diverge per copy.
  (void)copy.annotate(msg::Annotation{kw(2), util::NodeId(3), false});
  copy.record_hop(util::NodeId(3), SimTime::seconds(20.0));
  copy.add_path_rating(msg::PathRating{util::NodeId(3), util::NodeId(1), 4.0});
  EXPECT_TRUE(copy.has_keyword(kw(2)));
  EXPECT_FALSE(original.has_keyword(kw(2)));
  EXPECT_EQ(original.keywords().size(), 1u);
  EXPECT_EQ(copy.keywords().size(), 2u);
  EXPECT_EQ(original.path().size(), 1u);
  EXPECT_EQ(copy.path().size(), 2u);
  EXPECT_TRUE(original.path_ratings().empty());
  EXPECT_EQ(copy.path_ratings().size(), 1u);

  // Core state: a post-copy setter copy-on-writes, leaving the other copy
  // (and the immutable identity fields) untouched.
  copy.set_mime_type("video/mp4");
  copy.set_location(msg::GeoTag{1.0, 2.0});
  EXPECT_EQ(original.mime_type(), "image/jpeg");
  EXPECT_EQ(copy.mime_type(), "video/mp4");
  EXPECT_FALSE(original.location().has_value());
  EXPECT_EQ(copy.id(), original.id());
  EXPECT_EQ(copy.source(), original.source());
  EXPECT_EQ(copy.size_bytes(), original.size_bytes());
  EXPECT_EQ(copy.true_keywords(), original.true_keywords());
}

}  // namespace
}  // namespace dtnic
