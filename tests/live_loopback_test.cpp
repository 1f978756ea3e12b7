#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "live/live_node.h"
#include "obs/trace_replay.h"
#include "obs/trace_sink.h"
#include "scenario/config.h"
#include "stats/metrics.h"
#include "util/sim_time.h"

/// Two in-process LiveNodes over real loopback UDP sockets (ephemeral ports),
/// stepped with a synthetic clock: the same code the dtnic daemon runs, but
/// deterministic and fast. The live-smoke ctest covers the two-process path;
/// this suite covers the protocol logic — discovery, digest exchange,
/// end-to-end delivery with settlement, and link expiry.

namespace dtnic::live {
namespace {

using routing::NodeId;
using util::SimTime;

constexpr double kStep = 0.05;  ///< service cadence (s); << hello interval

LiveNodeConfig base_config(std::uint32_t node) {
  LiveNodeConfig cfg;
  cfg.node = NodeId(node);
  cfg.listen_port = 0;  // ephemeral: tests never collide on ports
  cfg.hello_interval_s = 0.2;
  cfg.peer_timeout_s = 0.7;
  cfg.scenario.scheme = scenario::Scheme::kIncentive;
  cfg.scenario.seed = 42;
  cfg.keywords = {"news", "weather", "sports", "music"};
  return cfg;
}

/// Step both nodes until \p done or the deadline; real sockets need a few
/// service rounds per protocol phase even on loopback.
template <typename Pred>
bool run_until(LiveNode& a, LiveNode& b, SimTime& now, double deadline_s, Pred done) {
  while (now.sec() < deadline_s) {
    a.service(now);
    b.service(now);
    if (done()) return true;
    now = now + SimTime::seconds(kStep);
  }
  return done();
}

TEST(LiveLoopback, DiscoveryBringsBothLinksUp) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  // b has no seed: it learns a's endpoint from the incoming HELLO.

  SimTime now = SimTime::zero();
  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));
  EXPECT_EQ(a.links_up(), 1u);
  EXPECT_EQ(b.links_up(), 1u);
  EXPECT_EQ(a.rejected_frames(), 0u);
  EXPECT_EQ(b.rejected_frames(), 0u);
}

TEST(LiveLoopback, MismatchedKeywordPoolNeverLinks) {
  LiveNode a(base_config(1));
  LiveNodeConfig other = base_config(2);
  other.keywords = {"news", "weather", "sports", "jazz"};  // different pool
  LiveNode b(other);
  ASSERT_NE(a.keyword_pool_hash(), b.keyword_pool_hash());

  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  b.add_seed_peer(NodeId(1), Endpoint{"127.0.0.1", a.local_port()});
  SimTime now = SimTime::zero();
  EXPECT_FALSE(run_until(a, b, now, 1.5,
                         [&] { return a.link_up(NodeId(2)) || b.link_up(NodeId(1)); }));
  // Each side drops the other's incompatible HELLOs and counts them.
  EXPECT_GT(a.rejected_frames(), 0u);
  EXPECT_GT(b.rejected_frames(), 0u);
}

TEST(LiveLoopback, DigestExchangeFeedsOracleAndGrowsInterests) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();
  b.subscribe({"news", "sports"}, now);
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});

  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));
  // a's ChitChat table picked up b's direct interests via the RTSR growth
  // phase on the reconstructed digest (weights halved, but present).
  auto* chitchat = routing::ChitChatRouter::of(a.host());
  ASSERT_NE(chitchat, nullptr);
  const msg::KeywordId news = a.keywords().find("news");
  ASSERT_TRUE(news.valid());
  const msg::KeywordId query[] = {news};
  EXPECT_GT(chitchat->interests().sum_weights(query), 0.0);
}

TEST(LiveLoopback, EndToEndDeliveryWithSettlement) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();
  b.subscribe({"news"}, now);
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});

  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));

  const double a_tokens_before = a.tokens();
  const double b_tokens_before = b.tokens();
  const msg::MessageId id =
      a.publish({"news", "weather"}, now, 8192, msg::Priority::kHigh, 1.0);
  EXPECT_EQ(id.value(), 1u * 0x100000u + 0u);  // node-namespaced id space

  ASSERT_TRUE(run_until(a, b, now, 10.0,
                        [&] { return b.metrics().delivered_unique() == 1; }));

  // Sender side: one creation, one transfer started, nothing refused.
  EXPECT_EQ(a.metrics().created(), 1u);
  EXPECT_EQ(a.metrics().traffic(), 1u);
  EXPECT_EQ(a.metrics().aborted(), 0u);

  // Receiver side: delivered as destination (b subscribes to "news"),
  // copy stored, tokens paid for the relevant content.
  EXPECT_EQ(b.metrics().delivered_unique(), 1u);
  EXPECT_EQ(b.metrics().relay_arrivals(), 0u);
  EXPECT_NE(b.host().buffer().find(id), nullptr);
  EXPECT_TRUE(b.host().has_seen(id));
  EXPECT_GT(b.metrics().tokens_paid_total(), 0.0);
  EXPECT_LT(b.tokens(), b_tokens_before);

  // The RECEIPT credits the sender (payment may be clipped by b's balance,
  // so compare against the actual paid amount).
  ASSERT_TRUE(run_until(a, b, now, 12.0,
                        [&] { return a.tokens() > a_tokens_before; }));
  EXPECT_DOUBLE_EQ(a.tokens() - a_tokens_before, b.metrics().tokens_paid_total());

  // DRM: b judged the source and updated its rating store.
  EXPECT_GT(b.metrics().reputation_updates(), 0u);

  // No spurious re-offer: the message stays delivered exactly once.
  const double settle_until = now.sec() + 1.0;
  run_until(a, b, now, settle_until, [] { return false; });
  EXPECT_EQ(b.metrics().delivered_unique(), 1u);
  EXPECT_EQ(b.metrics().deliveries_total(), 1u);
}

TEST(LiveLoopback, DuplicateOfferIsRefused) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();
  b.subscribe({"news"}, now);
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));

  a.publish({"news"}, now, 1024, msg::Priority::kMedium, 1.0);
  ASSERT_TRUE(run_until(a, b, now, 10.0,
                        [&] { return b.metrics().delivered_unique() == 1; }));

  // Publish the same content from b's side of the exchange: b already has
  // the id marked seen, so a fresh offer of that id must be refused — which
  // the protocol exercises when links flap. Simulate by tearing the link
  // down (timeout) and re-establishing: the offered-set is per-PeerState,
  // but b's seen-set persists, so re-offers get kDuplicate.
  const double silent_until = now.sec() + 2.0;
  while (now.sec() < silent_until) {  // only b services: a goes silent for b
    b.service(now);
    now = now + SimTime::seconds(kStep);
  }
  EXPECT_FALSE(b.link_up(NodeId(1)));

  ASSERT_TRUE(run_until(a, b, now, now.sec() + 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));
  const double resettle_until = now.sec() + 2.0;
  run_until(a, b, now, resettle_until, [] { return false; });
  // Still exactly one delivery; the re-offer (if any) was refused as a
  // duplicate rather than double-delivered.
  EXPECT_EQ(b.metrics().delivered_unique(), 1u);
  EXPECT_EQ(b.metrics().deliveries_total(), 1u);
}

TEST(LiveLoopback, SilentPeerExpiresAndTransfersAbort) {
  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));

  // b stops servicing entirely; a must notice within the timeout.
  const double deadline = now.sec() + 3.0;
  while (now.sec() < deadline && a.link_up(NodeId(2))) {
    a.service(now);
    now = now + SimTime::seconds(kStep);
  }
  EXPECT_FALSE(a.link_up(NodeId(2)));
}

TEST(LiveLoopback, TraceReplayReproducesLiveCounters) {
  // The acceptance contract: a live run's trace replays into a fresh
  // MetricsCollector with identical counters, exactly like a sim trace.
  std::stringstream trace_a;
  std::stringstream trace_b;

  LiveNode a(base_config(1));
  LiveNode b(base_config(2));
  SimTime now = SimTime::zero();

  obs::TraceOptions options;
  options.seed = 42;
  options.scheme = "incentive";
  options.clock = [&now]() { return now; };
  obs::TraceSink sink_a(trace_a, options);
  obs::TraceSink sink_b(trace_b, options);
  auto handle_a = a.events().add_sink(sink_a);
  auto handle_b = b.events().add_sink(sink_b);

  b.subscribe({"news"}, now);
  a.add_seed_peer(NodeId(2), Endpoint{"127.0.0.1", b.local_port()});
  ASSERT_TRUE(run_until(a, b, now, 5.0,
                        [&] { return a.link_up(NodeId(2)) && b.link_up(NodeId(1)); }));
  a.publish({"news"}, now, 4096, msg::Priority::kHigh, 1.0);
  ASSERT_TRUE(run_until(a, b, now, 10.0,
                        [&] { return b.metrics().delivered_unique() == 1; }));
  const double drain_until = now.sec() + 1.0;
  run_until(a, b, now, drain_until, [] { return false; });
  sink_a.flush();
  sink_b.flush();

  for (auto* pair : {&a, &b}) {
    std::stringstream& trace = pair == &a ? trace_a : trace_b;
    const stats::MetricsCollector& live = pair->metrics();
    stats::MetricsCollector replayed;
    obs::replay_trace(trace, replayed);
    EXPECT_EQ(replayed.created(), live.created());
    EXPECT_EQ(replayed.delivered_unique(), live.delivered_unique());
    EXPECT_EQ(replayed.relay_arrivals(), live.relay_arrivals());
    EXPECT_EQ(replayed.traffic(), live.traffic());
    EXPECT_EQ(replayed.tokens_paid_total(), live.tokens_paid_total());
    EXPECT_EQ(replayed.reputation_updates(), live.reputation_updates());
    EXPECT_EQ(replayed.mean_delivery_latency_s(), live.mean_delivery_latency_s());
  }
}

/// A hand-driven peer: a bare UDP socket that speaks just enough of the
/// protocol (a compatible HELLO, then INTEREST_DIGEST frames) to feed crafted
/// digests to a node.
class RawPeer {
 public:
  RawPeer(NodeId id, const LiveNode& target)
      : id_(id), socket_(0), target_{"127.0.0.1", target.local_port()},
        pool_hash_(target.keyword_pool_hash()) {}

  void hello() {
    wire::HelloFrame h;
    h.node = id_;
    h.proto = wire::kProtocolVersion;
    h.keyword_pool_hash = pool_hash_;
    send(h);
  }
  void digest(std::vector<wire::InterestEntry> entries) {
    wire::InterestDigestFrame d;
    d.node = id_;
    d.entries = std::move(entries);
    send(d);
  }

 private:
  void send(const wire::Frame& f) {
    std::vector<std::uint8_t> bytes;
    wire::encode_frame(f, bytes);
    socket_.send_to(target_, bytes);
  }

  NodeId id_;
  UdpSocket socket_;
  Endpoint target_;
  std::uint64_t pool_hash_;
};

void expect_same_entries(const std::vector<routing::chitchat::InterestTable::Entry>& got,
                         const std::vector<routing::chitchat::InterestTable::Entry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].keyword, want[i].keyword);
    EXPECT_EQ(got[i].weight, want[i].weight);
    EXPECT_EQ(got[i].direct, want[i].direct);
    EXPECT_EQ(got[i].last_seen.sec(), want[i].last_seen.sec());
  }
}

/// INTEREST_DIGEST validation: the remote table is indexed by keyword id, so
/// a digest with an out-of-pool id, a non-finite or out-of-range weight, or a
/// repeated keyword is rejected whole — counted, with the peer's previous
/// table, the oracle, and our own interests left untouched.
class CraftedDigest : public ::testing::Test {
 protected:
  static constexpr NodeId kRaw{7};

  CraftedDigest() : node_(base_config(2)), raw_(kRaw, node_) {}

  void SetUp() override {
    raw_.hello();
    ASSERT_TRUE(service_until([&] { return node_.link_up(kRaw); }));
    raw_.digest({{kw("news"), 0.5, true}, {kw("music"), 0.25, false}});
    ASSERT_TRUE(service_until([&] { return has_digest(); }));
    ASSERT_EQ(node_.rejected_frames(), 0u);
  }

  msg::KeywordId kw(const std::string& label) { return node_.keywords().find(label); }

  bool has_digest() const {
    const RemotePeer* peer = node_.remote_peer(kRaw);
    return peer != nullptr && peer->interest_table() != nullptr;
  }

  const routing::chitchat::InterestTable& peer_table() const {
    return *node_.remote_peer(kRaw)->interest_table();
  }
  const routing::chitchat::InterestTable& own_table() {
    return routing::ChitChatRouter::of(node_.host())->interests();
  }

  /// Service the node in 1 ms rounds (well inside the link timeout) until
  /// \p done; loopback delivery needs a round or two.
  template <typename Pred>
  bool service_until(Pred done) {
    for (int round = 0; round < 300 && !done(); ++round) {
      node_.service(now_);
      now_ = now_ + SimTime::seconds(0.001);
    }
    return done();
  }

  void expect_rejected(std::vector<wire::InterestEntry> entries) {
    const auto peer_before = peer_table().entries();
    const auto own_before = own_table().entries();
    const auto oracle_before = node_.oracle().interests_of(kRaw);
    const std::uint64_t rejected = node_.rejected_frames();
    raw_.digest(std::move(entries));
    ASSERT_TRUE(service_until([&] { return node_.rejected_frames() > rejected; }));
    EXPECT_EQ(node_.rejected_frames(), rejected + 1);
    EXPECT_TRUE(node_.link_up(kRaw));
    expect_same_entries(peer_table().entries(), peer_before);
    expect_same_entries(own_table().entries(), own_before);
    EXPECT_EQ(node_.oracle().interests_of(kRaw), oracle_before);
  }

  LiveNode node_;
  RawPeer raw_;
  SimTime now_ = SimTime::zero();
};

TEST_F(CraftedDigest, ValidDigestFeedsPeerTableAndOracle) {
  const auto entries = peer_table().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].keyword, kw("news"));
  EXPECT_TRUE(entries[0].direct);
  EXPECT_EQ(entries[1].keyword, kw("music"));
  EXPECT_EQ(entries[1].weight, 0.25);
  EXPECT_EQ(node_.oracle().interests_of(kRaw).count(kw("news")), 1u);
  EXPECT_EQ(node_.oracle().interests_of(kRaw).count(kw("music")), 0u);
  EXPECT_TRUE(own_table().has(kw("news")));  // growth phase ran
}

TEST_F(CraftedDigest, RejectsKeywordOutsidePool) {
  const auto pool = static_cast<msg::KeywordId::underlying>(node_.keywords().size());
  expect_rejected({{kw("news"), 0.5, true}, {msg::KeywordId(pool), 0.5, false}});
  expect_rejected({{msg::KeywordId(0xFFFFFFF0u), 0.5, true}});
  // Would have grown a dense table to ~64 GB before validation existed.
  EXPECT_LE(peer_table().capacity(), node_.keywords().size());
}

TEST_F(CraftedDigest, RejectsNonFiniteWeight) {
  expect_rejected({{kw("sports"), std::numeric_limits<double>::quiet_NaN(), false}});
  expect_rejected({{kw("sports"), std::numeric_limits<double>::infinity(), true}});
  expect_rejected({{kw("sports"), -std::numeric_limits<double>::infinity(), false}});
}

TEST_F(CraftedDigest, RejectsWeightOutsideUnitRange) {
  expect_rejected({{kw("weather"), -0.01, false}});
  expect_rejected({{kw("news"), 0.5, true}, {kw("weather"), 1.0 + 1e-9, false}});
}

TEST_F(CraftedDigest, RejectsRepeatedKeyword) {
  expect_rejected({{kw("weather"), 0.5, true}, {kw("weather"), 0.1, false}});
}

TEST_F(CraftedDigest, BoundaryDigestIsAcceptedAfterRejections) {
  expect_rejected({{kw("weather"), 2.0, false}});
  // Weights exactly 0 and max_weight, and the last pool id, are all valid.
  const std::uint64_t rejected = node_.rejected_frames();
  raw_.digest({{kw("news"), 0.0, false}, {kw("music"), 1.0, true}});
  ASSERT_TRUE(service_until([&] { return peer_table().has_direct(kw("music")); }));
  EXPECT_EQ(node_.rejected_frames(), rejected);
  const auto entries = peer_table().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].weight, 0.0);
  EXPECT_EQ(entries[1].weight, 1.0);
  EXPECT_EQ(node_.oracle().interests_of(kRaw).count(kw("music")), 1u);
  EXPECT_EQ(node_.oracle().interests_of(kRaw).count(kw("news")), 0u);
}

}  // namespace
}  // namespace dtnic::live
