#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "msg/message.h"

/// \file buffer.h
/// Per-node bounded message store (Table 5.1: 250 MB per node). Insertion
/// order is preserved; when space runs out the oldest relayed message is
/// evicted first (ONE's default FIFO drop policy). Messages originated by
/// the node itself are protected from eviction.

namespace dtnic::msg {

/// Which buffered copy is sacrificed when space runs out.
enum class DropPolicy {
  kFifoOldest,        ///< ONE's default: oldest relayed copy goes first
  kLowPriorityFirst,  ///< incentive scheme: lowest-priority (then lowest
                      ///< quality, then oldest) relayed copy goes first —
                      ///< the paper's "prioritizes messages based on the
                      ///< quality as well as the assigned priority"
};

class MessageBuffer {
 public:
  explicit MessageBuffer(std::uint64_t capacity_bytes,
                         DropPolicy policy = DropPolicy::kFifoOldest);

  enum class AddResult {
    kAdded,        ///< stored (possibly after evicting older messages)
    kDuplicate,    ///< a copy with this id is already present
    kTooLarge,     ///< larger than total capacity, or eviction could not free room
    kNotAdmitted,  ///< kLowPriorityFirst: every eviction candidate is at least
                   ///< as valuable as the incoming copy, so it is refused
  };

  struct AddOutcome {
    AddResult result = AddResult::kAdded;
    std::vector<Message> evicted;  ///< messages dropped to make room
  };

  /// Store a copy. \p own marks messages this node originated; they are
  /// evicted only when no relayed copy remains.
  AddOutcome add(Message m, bool own = false);

  /// Would add() succeed right now? Used by admission control so a copy that
  /// the drop policy would refuse is never transferred in the first place.
  [[nodiscard]] bool would_admit(const Message& m, bool own = false) const;

  [[nodiscard]] bool contains(MessageId id) const;
  [[nodiscard]] const Message* find(MessageId id) const;
  [[nodiscard]] Message* find_mutable(MessageId id);

  /// Remove a message; returns true if it was present.
  bool remove(MessageId id);

  /// Drop all messages whose TTL has passed; returns the dropped messages
  /// so the caller can report them to the metrics collector.
  std::vector<Message> drop_expired(SimTime now);

  [[nodiscard]] std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  [[nodiscard]] std::uint64_t used_bytes() const { return used_bytes_; }
  [[nodiscard]] std::uint64_t free_bytes() const { return capacity_bytes_ - used_bytes_; }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] bool empty() const { return order_.empty(); }

  /// Messages in insertion order (oldest first). Stable while not mutated.
  [[nodiscard]] std::vector<const Message*> messages() const;

  /// Visit every message in insertion order without materializing a pointer
  /// vector; the hot-path (per-contact plan/promise) alternative to
  /// messages(). The buffer must not be mutated during the visit.
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    for (const Slot& slot : order_) visit(slot.message);
  }

  /// Monotone counter bumped by every mutation (add/remove/expiry); lets the
  /// contact controller skip re-planning links whose endpoints are unchanged.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  [[nodiscard]] DropPolicy drop_policy() const { return policy_; }

 private:
  struct Slot {
    Message message;
    bool own = false;
  };

  using SlotList = std::list<Slot>;
  using SlotIndex = std::unordered_map<MessageId, SlotList::iterator>;

  /// The next eviction victim under the configured policy, or end().
  SlotList::iterator pick_victim();

  DropPolicy policy_;
  std::uint64_t capacity_bytes_;
  std::uint64_t revision_ = 0;
  std::uint64_t used_bytes_ = 0;
  SlotList order_;
  SlotIndex index_;
};

}  // namespace dtnic::msg
