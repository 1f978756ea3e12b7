#include "net/scripted_contacts.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/assert.h"
#include "util/num_format.h"
#include "util/string_util.h"

namespace dtnic::net {

using util::NodeId;
using util::SimTime;

ScriptedConnectivity::ScriptedConnectivity(sim::Simulator& sim,
                                           std::vector<ContactEvent> events)
    : sim_(sim), events_(std::move(events)) {
  NodeId::underlying max_value = 0;
  bool any = false;
  for (const ContactEvent& e : events_) {
    DTNIC_REQUIRE_MSG(e.a.valid() && e.b.valid(), "contact endpoints must be valid");
    DTNIC_REQUIRE_MSG(e.a != e.b, "a node cannot contact itself");
    DTNIC_REQUIRE_MSG(e.up < e.down, "contact must end after it begins");
    DTNIC_REQUIRE_MSG(e.distance_m >= 0.0, "distance must be non-negative");
    max_value = std::max({max_value, e.a.value(), e.b.value()});
    any = true;
  }
  if (any) max_node_ = NodeId(max_value);
}

std::uint64_t ScriptedConnectivity::pair_key(NodeId a, NodeId b) {
  const auto lo = std::min(a.value(), b.value());
  const auto hi = std::max(a.value(), b.value());
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void ScriptedConnectivity::start() {
  DTNIC_REQUIRE_MSG(!started_, "already started");
  started_ = true;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    DTNIC_REQUIRE_MSG(events_[i].up >= sim_.now(), "trace event in the past");
    (void)sim_.schedule_at(events_[i].up, [this, i] { begin_contact(i); });
    (void)sim_.schedule_at(events_[i].down, [this, i] { end_contact(i); });
  }
}

void ScriptedConnectivity::begin_contact(std::size_t index) {
  const ContactEvent& e = events_[index];
  const std::uint64_t key = pair_key(e.a, e.b);
  int& count = up_count_[key];
  ++count;
  if (count > 1) return;  // overlapping script entries: already up
  const bool participates = !gate_ || (gate_(e.a) && gate_(e.b));
  if (!participates) {
    suppressed_.insert(key);
    ++contacts_suppressed_;
    return;
  }
  adjacency_[e.a].insert(e.b);
  adjacency_[e.b].insert(e.a);
  ++contacts_formed_;
  if (link_up_) link_up_(e.a, e.b, e.distance_m);
}

void ScriptedConnectivity::end_contact(std::size_t index) {
  const ContactEvent& e = events_[index];
  const std::uint64_t key = pair_key(e.a, e.b);
  auto it = up_count_.find(key);
  DTNIC_ASSERT(it != up_count_.end() && it->second > 0);
  if (--it->second > 0) return;  // another overlapping entry keeps it up
  up_count_.erase(it);
  if (suppressed_.erase(key) > 0) return;  // was gated: nothing to tear down
  adjacency_[e.a].erase(e.b);
  adjacency_[e.b].erase(e.a);
  if (link_down_) link_down_(e.a, e.b);
}

std::vector<NodeId> ScriptedConnectivity::neighbors_of(NodeId id) const {
  auto it = adjacency_.find(id);
  if (it == adjacency_.end()) return {};
  std::vector<NodeId> out(it->second.begin(), it->second.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<NodeId, NodeId>> ScriptedConnectivity::connected_pairs() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (const auto& [key, count] : up_count_) {
    if (count <= 0 || suppressed_.count(key)) continue;
    out.emplace_back(NodeId(static_cast<NodeId::underlying>(key >> 32)),
                     NodeId(static_cast<NodeId::underlying>(key & 0xffffffffULL)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ContactEvent> ScriptedConnectivity::parse(std::istream& in) {
  std::vector<ContactEvent> events;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const std::string entry = util::trim(line);
    if (entry.empty()) continue;
    const auto fail = [line_no](const std::string& why) {
      throw std::invalid_argument("trace line " + std::to_string(line_no) + ": " + why);
    };
    std::istringstream fields(entry);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(std::move(token));
    if (tokens.size() != 4 && tokens.size() != 5) {
      fail("expected 'up_s down_s node_a node_b [distance_m]'");
    }
    ContactEvent e;
    long long ids[2] = {0, 0};
    try {
      e.up = SimTime::seconds(util::parse_double(tokens[0]));
      e.down = SimTime::seconds(util::parse_double(tokens[1]));
      ids[0] = util::parse_int(tokens[2]);
      ids[1] = util::parse_int(tokens[3]);
      if (tokens.size() == 5) e.distance_m = util::parse_double(tokens[4]);
    } catch (const std::invalid_argument& err) {
      fail(err.what());
    }
    for (const long long id : ids) {
      // kInvalid is the "no node" sentinel, so the largest usable id is one
      // below it; anything wider would wrap when narrowed.
      if (id < 0 || id >= static_cast<long long>(NodeId::kInvalid)) {
        fail("node id out of range: " + std::to_string(id));
      }
    }
    e.a = NodeId(static_cast<NodeId::underlying>(ids[0]));
    e.b = NodeId(static_cast<NodeId::underlying>(ids[1]));
    if (!(e.distance_m >= 0.0)) fail("distance must be non-negative");
    if (!(e.up < e.down)) fail("contact must end after it begins");  // NaN fails too
    events.push_back(e);
  }
  return events;
}

std::vector<ContactEvent> ScriptedConnectivity::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open contact trace: " + path);
  return parse(in);
}

void ScriptedConnectivity::serialize(std::ostream& os,
                                     const std::vector<ContactEvent>& events) {
  // Shortest round-trip doubles, so parse(serialize(x)) reproduces every
  // time and distance exactly.
  std::string line = "# up_s down_s node_a node_b distance_m\n";
  for (const ContactEvent& e : events) {
    util::append_double(line, e.up.sec());
    line += ' ';
    util::append_double(line, e.down.sec());
    line += ' ';
    util::append_u64(line, e.a.value());
    line += ' ';
    util::append_u64(line, e.b.value());
    line += ' ';
    util::append_double(line, e.distance_m);
    line += '\n';
    os << line;
    line.clear();
  }
}

std::vector<ContactEvent> ScriptedConnectivity::from_trace(const ContactTrace& trace) {
  std::vector<ContactEvent> events;
  events.reserve(trace.count());
  for (const ContactTrace::Contact& c : trace.contacts()) {
    if (!(c.up < c.down)) continue;  // zero-length contacts are unplayable
    events.push_back(ContactEvent{c.up, c.down, c.a, c.b});
  }
  return events;
}

}  // namespace dtnic::net
