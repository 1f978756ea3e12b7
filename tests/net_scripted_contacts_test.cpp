#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "net/scripted_contacts.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"

namespace dtnic::net {
namespace {

using util::NodeId;
using util::SimTime;

ContactEvent ev(double up, double down, unsigned a, unsigned b, double dist = 50.0) {
  return ContactEvent{SimTime::seconds(up), SimTime::seconds(down), NodeId(a), NodeId(b),
                      dist};
}

struct Recorded {
  bool up;
  NodeId a;
  NodeId b;
  double time_s;
};

class ScriptedFixture : public ::testing::Test {
 protected:
  void attach(ScriptedConnectivity& sc) {
    sc.on_link_up([this](NodeId a, NodeId b, double) {
      events.push_back({true, a, b, sim.now().sec()});
    });
    sc.on_link_down([this](NodeId a, NodeId b) {
      events.push_back({false, a, b, sim.now().sec()});
    });
  }

  sim::Simulator sim;
  std::vector<Recorded> events;
};

TEST_F(ScriptedFixture, ReplaysEventsAtScriptedTimes) {
  ScriptedConnectivity sc(sim, {ev(10, 30, 0, 1), ev(20, 40, 1, 2)});
  attach(sc);
  sc.start();
  sim.run_until(SimTime::seconds(15));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].up);
  EXPECT_DOUBLE_EQ(events[0].time_s, 10.0);
  EXPECT_EQ(sc.neighbors_of(NodeId(0)), std::vector<NodeId>{NodeId(1)});

  sim.run_until(SimTime::seconds(25));
  EXPECT_EQ(sc.connected_pairs().size(), 2u);
  sim.run_until(SimTime::seconds(50));
  ASSERT_EQ(events.size(), 4u);
  EXPECT_FALSE(events.back().up);
  EXPECT_TRUE(sc.connected_pairs().empty());
  EXPECT_EQ(sc.contacts_formed(), 2u);
}

TEST_F(ScriptedFixture, OverlappingEventsMerge) {
  ScriptedConnectivity sc(sim, {ev(0, 20, 0, 1), ev(10, 30, 0, 1)});
  attach(sc);
  sc.start();
  sim.run_until(SimTime::seconds(100));
  // One up at t=0, one down at t=30; the middle overlap is silent.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].up);
  EXPECT_DOUBLE_EQ(events[0].time_s, 0.0);
  EXPECT_FALSE(events[1].up);
  EXPECT_DOUBLE_EQ(events[1].time_s, 30.0);
  EXPECT_EQ(sc.contacts_formed(), 1u);
}

TEST_F(ScriptedFixture, GateSuppressesScriptedContacts) {
  ScriptedConnectivity sc(sim, {ev(5, 15, 0, 1)});
  attach(sc);
  sc.set_participation_gate([](NodeId id) { return id.value() != 1; });
  sc.start();
  sim.run_until(SimTime::seconds(100));
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(sc.contacts_suppressed(), 1u);
  EXPECT_EQ(sc.contacts_formed(), 0u);
}

TEST_F(ScriptedFixture, ValidatesEvents) {
  EXPECT_THROW(ScriptedConnectivity(sim, {ev(10, 10, 0, 1)}), std::invalid_argument);
  EXPECT_THROW(ScriptedConnectivity(sim, {ev(0, 10, 2, 2)}), std::invalid_argument);
  ScriptedConnectivity empty(sim, {});
  EXPECT_FALSE(empty.max_node().valid());
  ScriptedConnectivity sc(sim, {ev(0, 1, 3, 9)});
  EXPECT_EQ(sc.max_node(), NodeId(9));
  EXPECT_EQ(sc.event_count(), 1u);
}

// --- trace text format -------------------------------------------------------

TEST(ScriptedTraceFormat, ParseAndSerializeRoundTrip) {
  const std::vector<ContactEvent> original{
      ev(1.5, 20, 0, 3, 42.0), ev(30, 40.25, 2, 1),
      // Values a 6-significant-digit stream format would round.
      ev(43200.25, 43210.75, 4, 7, 42.123456789)};
  std::ostringstream os;
  ScriptedConnectivity::serialize(os, original);
  std::istringstream is(os.str());
  const auto parsed = ScriptedConnectivity::parse(is);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed[0].up.sec(), 1.5);
  EXPECT_DOUBLE_EQ(parsed[0].down.sec(), 20.0);
  EXPECT_EQ(parsed[0].a, NodeId(0));
  EXPECT_EQ(parsed[0].b, NodeId(3));
  EXPECT_DOUBLE_EQ(parsed[0].distance_m, 42.0);
  EXPECT_DOUBLE_EQ(parsed[1].down.sec(), 40.25);
  EXPECT_EQ(parsed[2].up.sec(), 43200.25);
  EXPECT_EQ(parsed[2].down.sec(), 43210.75);
  EXPECT_EQ(parsed[2].distance_m, 42.123456789);
}

TEST(ScriptedTraceFormat, ParseErrorsCarryLineNumbers) {
  std::istringstream bad1("10 5 0 1\n");  // down before up
  EXPECT_THROW((void)ScriptedConnectivity::parse(bad1), std::invalid_argument);
  std::istringstream bad2("abc\n");
  EXPECT_THROW((void)ScriptedConnectivity::parse(bad2), std::invalid_argument);
  // Each rejected line sits after a valid one, so the message must name it.
  const auto expect_line_error = [](const std::string& bad_line) {
    std::istringstream in("0 10 0 1\n" + bad_line + "\n");
    try {
      (void)ScriptedConnectivity::parse(in);
      ADD_FAILURE() << "accepted '" << bad_line << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("trace line 2: ", 0), 0u) << e.what();
    }
  };
  expect_line_error("0 10 4294967296 1");  // would wrap to node 0
  expect_line_error("0 10 2 4294967295");  // NodeId::kInvalid itself
  expect_line_error("0 10 2 3 abc");       // unparseable distance
  expect_line_error("0 10 2 3 -1");        // negative distance
  expect_line_error("0 10 2 3 5 extra");   // trailing token
  std::istringstream comments("# header only\n\n");
  EXPECT_TRUE(ScriptedConnectivity::parse(comments).empty());
  EXPECT_THROW((void)ScriptedConnectivity::load_file("/no/such/trace.txt"),
               std::runtime_error);
}

TEST(ScriptedTraceFormat, FromRecordedTrace) {
  ContactTrace trace;
  trace.record_up(NodeId(0), NodeId(1), SimTime::seconds(5));
  trace.record_down(NodeId(0), NodeId(1), SimTime::seconds(25));
  trace.finalize(SimTime::seconds(100));
  const auto events = ScriptedConnectivity::from_trace(trace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].up.sec(), 5.0);
  EXPECT_DOUBLE_EQ(events[0].down.sec(), 25.0);
}

// --- end-to-end replay through the scenario -----------------------------------

TEST(TraceReplayScenario, RecordThenReplayReproducesContacts) {
  // 1. Run a mobility-driven scenario and record its contact trace.
  scenario::ScenarioConfig cfg = scenario::ScenarioConfig::scaled_defaults(25, 1.0);
  cfg.seed = 12;
  scenario::Scenario original(cfg);
  const auto original_result = original.run();
  ASSERT_GT(original_result.contacts, 0u);

  // 2. Serialize the trace to a file. Contacts that formed exactly at the
  // horizon are zero-length in the finalized trace and cannot be replayed.
  const auto events = ScriptedConnectivity::from_trace(original.contact_trace());
  const std::string path = ::testing::TempDir() + "/dtnic_replay_trace.txt";
  {
    std::ofstream out(path);
    ScriptedConnectivity::serialize(out, events);
  }

  // 3. Replay it: same contacts drive the same routing world.
  scenario::ScenarioConfig replay_cfg = cfg;
  replay_cfg.contact_trace_file = path;
  scenario::Scenario replay(replay_cfg);
  const auto replay_result = replay.run();
  EXPECT_EQ(replay_result.contacts, events.size());
  EXPECT_LE(original_result.contacts - replay_result.contacts, 5u);
  // Identical workload streams: the same messages are created...
  EXPECT_EQ(replay_result.created, original_result.created);
  // ...and delivery closely tracks the original (tie-breaking among
  // same-instant contacts may reorder individual transfers).
  const auto diff = replay_result.delivered > original_result.delivered
                        ? replay_result.delivered - original_result.delivered
                        : original_result.delivered - replay_result.delivered;
  EXPECT_LE(diff, original_result.created / 5 + 1);
  EXPECT_GT(replay_result.delivered, 0u);
  std::remove(path.c_str());
}

TEST(TraceReplayScenario, RejectsTraceBeyondPopulation) {
  const std::string path = ::testing::TempDir() + "/dtnic_big_trace.txt";
  {
    std::ofstream out(path);
    out << "0 10 0 99\n";  // node 99 does not exist in a 10-node world
  }
  scenario::ScenarioConfig cfg = scenario::ScenarioConfig::scaled_defaults(10, 0.5);
  cfg.contact_trace_file = path;
  EXPECT_THROW(scenario::Scenario{cfg}, std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dtnic::net
