#pragma once

#include <unordered_set>

#include "routing/chitchat/interest_table.h"
#include "routing/peer.h"
#include "wire/frames.h"

/// \file remote_peer.h
/// The live overlay's implementation of routing::Peer: a contacted node
/// reconstructed from wire state. Identity and rank come from HELLO, the
/// interest table from the latest INTEREST_DIGEST (restored slot-for-slot,
/// so sum_weights over a message's keywords equals the strength the remote
/// node would compute for itself), and the seen-set is accumulated from the
/// peer's own traffic — ids it offered us, sent us, or acknowledged.
///
/// The planning code (ChitChatRouter::plan_for_peer, promise computation,
/// DtnOperator) runs against this object unchanged from the simulator.

namespace dtnic::live {

class RemotePeer final : public routing::Peer {
 public:
  /// \p keyword_pool_size pre-sizes the reconstructed table to the agreed
  /// pool, so digests never grow it.
  RemotePeer(routing::NodeId id, const routing::chitchat::ChitChatParams& params,
             std::size_t keyword_pool_size)
      : id_(id), table_(params, keyword_pool_size) {}

  [[nodiscard]] routing::NodeId id() const final { return id_; }
  [[nodiscard]] int rank() const final { return rank_; }
  [[nodiscard]] bool has_seen(msg::MessageId id) const final { return seen_.count(id) > 0; }
  [[nodiscard]] const routing::chitchat::InterestTable* interest_table() const final {
    return has_digest_ ? &table_ : nullptr;
  }
  [[nodiscard]] double message_strength(const msg::Message& m) const final {
    return table_.sum_weights(m.keywords());
  }

  void set_rank(int rank) { rank_ = rank; }
  void mark_seen(msg::MessageId id) { seen_.insert(id); }

  /// Replace the table with the digest's snapshot (the digest is a full
  /// dump, so stale slots are dropped and the entries restored afresh). The
  /// caller validates the digest first (LiveNode::handle_digest).
  void apply_digest(const wire::InterestDigestFrame& digest, util::SimTime now) {
    table_.clear();
    for (const wire::InterestEntry& e : digest.entries) {
      table_.restore(e.keyword, e.weight, e.direct, now);
    }
    has_digest_ = true;
  }

 private:
  routing::NodeId id_;
  int rank_ = 1;
  bool has_digest_ = false;
  routing::chitchat::InterestTable table_;
  std::unordered_set<msg::MessageId> seen_;
};

}  // namespace dtnic::live
