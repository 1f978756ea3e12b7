#pragma once

#include <memory>
#include <unordered_set>

#include "msg/buffer.h"
#include "net/energy.h"
#include "routing/events.h"
#include "routing/peer.h"
#include "routing/types.h"

/// \file host.h
/// A DTN node: identity, bounded message buffer, battery, user role, and the
/// routing strategy plugged into it. Movement and radio live outside (the
/// scenario wires a MobilityModel and the ConnectivityManager to the host id).
///
/// Host is the in-process implementation of the transport-neutral Peer
/// interface (see peer.h): exchange-phase code that interrogates a contacted
/// device goes through Peer, so the identical planning/admission logic also
/// runs against a live::RemotePeer reconstructed from wire digests. The
/// overrides are final, so calls through a concrete Host& devirtualize.

namespace dtnic::routing {

class Router;

class Host final : public Peer {
 public:
  Host(NodeId id, std::uint64_t buffer_capacity_bytes,
       msg::DropPolicy drop_policy = msg::DropPolicy::kFifoOldest);
  /// Bind the event sink for the host's lifetime. The scenario passes its
  /// obs::EventFanout here (as the RoutingEvents base), so any number of
  /// observers can register on the fan-out without the host knowing;
  /// \p events must outlive the host.
  Host(NodeId id, std::uint64_t buffer_capacity_bytes, msg::DropPolicy drop_policy,
       RoutingEvents& events);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] NodeId id() const final { return id_; }

  [[nodiscard]] msg::MessageBuffer& buffer() { return buffer_; }
  [[nodiscard]] const msg::MessageBuffer& buffer() const { return buffer_; }

  [[nodiscard]] net::Battery& battery() { return battery_; }
  [[nodiscard]] const net::Battery& battery() const { return battery_; }

  /// User role R_u in the incentive formula: 1 is the top of the hierarchy
  /// (e.g. sergeant), larger is lower (paper §3.2 software factors).
  [[nodiscard]] int rank() const final { return rank_; }
  void set_rank(int rank);

  void set_router(std::unique_ptr<Router> router);
  [[nodiscard]] Router& router();
  [[nodiscard]] bool has_router() const { return router_ != nullptr; }

  /// Every message id this node has ever carried (as source, relay, or
  /// destination). Used for duplicate suppression so a message evicted from
  /// the buffer is not re-accepted — and, for destinations, so the incentive
  /// award is paid exactly once (the paper's first-deliverer rule is
  /// enforced at the receiving side).
  [[nodiscard]] bool has_seen(MessageId id) const final { return seen_.count(id) > 0; }
  void mark_seen(MessageId id) { seen_.insert(id); }

  /// --- Peer (transport-neutral view of this node as a contact) ------------
  /// The attached ChitChat-family router's interest table (nullptr for other
  /// schemes), and its Σw strength — so planning against a Host
  /// through the Peer interface is bit-identical to the direct router calls
  /// it replaces.
  [[nodiscard]] const chitchat::InterestTable* interest_table() const final;
  [[nodiscard]] double message_strength(const msg::Message& m) const final;

  /// Event sink bound at construction; never null (defaults to a
  /// process-wide null sink). Observers register on the scenario's
  /// obs::EventFanout rather than swapping this binding.
  [[nodiscard]] RoutingEvents& events() { return *events_; }

 private:
  NodeId id_;
  msg::MessageBuffer buffer_;
  net::Battery battery_;
  int rank_ = 1;
  std::unique_ptr<Router> router_;
  std::unordered_set<MessageId> seen_;
  RoutingEvents* events_;
};

}  // namespace dtnic::routing
