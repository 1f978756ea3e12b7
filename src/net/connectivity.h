#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mobility/mobility_model.h"
#include "net/contact_source.h"
#include "net/radio.h"
#include "net/spatial_grid.h"
#include "sim/simulator.h"
#include "util/ids.h"

/// \file connectivity.h
/// Contact detection. Positions are sampled every scan interval; a pair of
/// nodes within radio range forms a contact (link up) and loses it when the
/// range is exceeded (link down). A participation gate is consulted once per
/// fresh encounter per node — this is how selfish nodes "switch off the
/// communication medium" (paper §5.A: the radio is open 1 of 10 encounters).
///
/// The scan is incremental and allocation-free at steady state: the spatial
/// grid keeps persistent per-node slots and only moves nodes whose cell
/// changed, the in-range pair list arrives sorted by (lo, hi) key, and the
/// previous scan's list is diffed against it with one linear merge — no
/// per-scan hash set, and link up/down callbacks fire in sorted pair order,
/// deterministically across platforms and hash layouts.

namespace dtnic::net {

using util::NodeId;

class ConnectivityManager final : public ContactSource {
 public:
  ConnectivityManager(sim::Simulator& sim, const RadioParams& radio,
                      util::SimTime scan_interval);

  /// Register a node; \p mobility must outlive the manager.
  void add_node(NodeId id, mobility::MobilityModel* mobility);

  void on_link_up(LinkUpFn fn) override { link_up_ = std::move(fn); }
  void on_link_down(LinkDownFn fn) override { link_down_ = std::move(fn); }
  void set_participation_gate(ParticipationGate gate) override { gate_ = std::move(gate); }

  /// Begin periodic scanning (first scan at the current time).
  void start() override;
  void stop();

  /// Run a single scan immediately (also used by tests).
  void scan();

  [[nodiscard]] bool connected(NodeId a, NodeId b) const;
  /// Current neighbors of \p id, already sorted (kept sorted incrementally;
  /// no per-call sort).
  [[nodiscard]] std::vector<NodeId> neighbors_of(NodeId id) const override;
  /// Visit the current neighbors of \p id in sorted order without
  /// materializing a vector (contact-controller hot path).
  template <class Visitor>
  void for_each_neighbor(NodeId id, Visitor&& visit) const {
    const auto it = adjacency_.find(id);
    if (it == adjacency_.end()) return;
    for (NodeId n : it->second) visit(n);
  }
  /// All currently connected pairs, sorted (deterministic iteration).
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> connected_pairs() const override;
  [[nodiscard]] std::size_t active_links() const { return links_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Nodes currently holding a non-empty neighbor set (bounded-growth
  /// invariant: never exceeds the nodes with at least one live link).
  [[nodiscard]] std::size_t adjacency_entries() const { return adjacency_.size(); }

  /// Position of a node at the current simulation time. Positions computed
  /// by the latest scan are cached for the rest of that tick, so routers
  /// querying mid-scan do not re-invoke the mobility models.
  [[nodiscard]] util::Vec2 position_of(NodeId id);

  /// Total contacts formed so far (suppressed encounters excluded).
  [[nodiscard]] std::uint64_t contacts_formed() const override { return contacts_formed_; }
  /// Encounters suppressed by the participation gate.
  [[nodiscard]] std::uint64_t contacts_suppressed() const override {
    return contacts_suppressed_;
  }

  /// Wall-clock nanoseconds spent inside scan() so far, excluding time spent
  /// in nested link up/down callbacks (see util::ScopedTimer), and the
  /// number of scans run. Observability only; never affects the simulation.
  [[nodiscard]] std::uint64_t scan_ns() const { return scan_ns_; }
  [[nodiscard]] std::uint64_t scans() const { return scans_; }

 private:
  enum class PairState : std::uint8_t { kConnected, kSuppressed };

  /// (lo, hi) id pair packed into one key; key order == lexicographic pair
  /// order, which the merge in scan() relies on.
  static std::uint64_t pair_key(NodeId a, NodeId b);

  void add_adjacency(NodeId node, NodeId neighbor);
  /// Remove \p neighbor from \p node's adjacency list without ever creating
  /// an entry; erases the list once empty.
  void drop_adjacency(NodeId node, NodeId neighbor);

  /// Sample mobility for every node, move grid slots whose cell changed and
  /// insert first-seen nodes.
  void refresh_positions(util::SimTime now);

  sim::Simulator& sim_;
  RadioParams radio_;
  util::SimTime scan_interval_;
  sim::EventId scan_task_{};

  struct NodeEntry {
    NodeId id;
    mobility::MobilityModel* mobility;
  };
  std::vector<NodeEntry> nodes_;
  std::unordered_map<NodeId, std::size_t> node_index_;

  SpatialGrid grid_;
  std::vector<std::size_t> grid_slots_;  ///< grid slot per node index

  /// Known pairs (connected or suppressed), sorted by key; the previous
  /// scan's list is merged against the current in-range list each scan.
  struct PairRec {
    std::uint64_t key;
    PairState state;
  };
  std::vector<PairRec> pairs_;
  /// Neighbor lists, kept sorted by incremental insertion/removal.
  std::unordered_map<NodeId, std::vector<NodeId>> adjacency_;
  std::size_t links_ = 0;

  // Scratch buffers reused across scans (steady state allocates nothing).
  std::vector<PairRec> next_pairs_;
  std::vector<SpatialGrid::Pair> scan_pairs_;
  std::vector<std::uint64_t> downs_;

  // Per-tick position cache filled by scan().
  std::vector<util::Vec2> positions_;
  util::SimTime positions_time_ = util::SimTime::zero();
  bool positions_cached_ = false;

  LinkUpFn link_up_;
  LinkDownFn link_down_;
  ParticipationGate gate_;

  std::uint64_t contacts_formed_ = 0;
  std::uint64_t contacts_suppressed_ = 0;
  std::uint64_t scan_ns_ = 0;
  std::uint64_t scans_ = 0;
};

}  // namespace dtnic::net
