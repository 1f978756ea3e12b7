#pragma once

#include <iosfwd>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/contact_source.h"
#include "net/contact_trace.h"
#include "sim/simulator.h"
#include "util/sim_time.h"

/// \file scripted_contacts.h
/// Trace-driven connectivity: replays a list of (up, down, a, b) contact
/// events instead of detecting contacts from mobility. This is how recorded
/// real-world traces (Haggle, MIT Reality, ...) — or traces captured from a
/// previous dtnic run — drive an experiment. The participation gate applies
/// per replayed encounter exactly as it does for detected ones.

namespace dtnic::net {

/// One scripted contact: the pair is connected during [up, down).
struct ContactEvent {
  util::SimTime up;
  util::SimTime down;
  util::NodeId a;
  util::NodeId b;
  double distance_m = 50.0;  ///< reported at link-up (Friis input)
};

class ScriptedConnectivity final : public ContactSource {
 public:
  /// Events may be in any order; validated on construction (up < down,
  /// distinct valid endpoints). Overlapping events for the same pair are
  /// merged at replay (the pair stays up until the last down).
  ScriptedConnectivity(sim::Simulator& sim, std::vector<ContactEvent> events);

  void on_link_up(LinkUpFn fn) override { link_up_ = std::move(fn); }
  void on_link_down(LinkDownFn fn) override { link_down_ = std::move(fn); }
  void set_participation_gate(ParticipationGate gate) override { gate_ = std::move(gate); }

  void start() override;

  [[nodiscard]] std::vector<util::NodeId> neighbors_of(util::NodeId id) const override;
  [[nodiscard]] std::vector<std::pair<util::NodeId, util::NodeId>> connected_pairs()
      const override;
  [[nodiscard]] std::uint64_t contacts_formed() const override { return contacts_formed_; }
  [[nodiscard]] std::uint64_t contacts_suppressed() const override {
    return contacts_suppressed_;
  }

  /// Largest node id referenced by the script (invalid id if empty).
  [[nodiscard]] util::NodeId max_node() const { return max_node_; }
  [[nodiscard]] std::size_t event_count() const { return events_.size(); }

  /// --- trace text format ---------------------------------------------------
  /// One event per line: `up_s down_s node_a node_b [distance_m]`,
  /// `#` comments. parse() throws std::invalid_argument with a line number
  /// on malformed input: a missing, unparseable or extra field, a node id
  /// outside [0, NodeId::kInvalid), a negative distance, or up >= down.
  /// serialize() writes shortest round-trip doubles, so parse(serialize(x))
  /// reproduces x exactly.
  [[nodiscard]] static std::vector<ContactEvent> parse(std::istream& in);
  [[nodiscard]] static std::vector<ContactEvent> load_file(const std::string& path);
  static void serialize(std::ostream& os, const std::vector<ContactEvent>& events);
  /// Convert a recorded ContactTrace into replayable events.
  [[nodiscard]] static std::vector<ContactEvent> from_trace(const ContactTrace& trace);

 private:
  void begin_contact(std::size_t index);
  void end_contact(std::size_t index);
  static std::uint64_t pair_key(util::NodeId a, util::NodeId b);

  sim::Simulator& sim_;
  std::vector<ContactEvent> events_;
  util::NodeId max_node_;

  LinkUpFn link_up_;
  LinkDownFn link_down_;
  ParticipationGate gate_;

  /// Reference counts per pair (overlapping scripted events merge).
  std::unordered_map<std::uint64_t, int> up_count_;
  std::unordered_set<std::uint64_t> suppressed_;
  std::unordered_map<util::NodeId, std::unordered_set<util::NodeId>> adjacency_;
  std::uint64_t contacts_formed_ = 0;
  std::uint64_t contacts_suppressed_ = 0;
  bool started_ = false;
};

}  // namespace dtnic::net
