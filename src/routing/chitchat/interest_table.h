#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "msg/message.h"
#include "util/sim_time.h"

/// \file interest_table.h
/// ChitChat's Real-time Transient Social Relationship (RTSR) state: every
/// interest keyword carries a weight in [0, 1]. Direct interests are defined
/// by the user (weight starts at 0.5 and decays toward 0.5); transient
/// interests are acquired from encountered devices (decay toward 0). The
/// decay/growth algorithms follow Paper I §2.3; calibration constants and
/// the contact-quantum interpretation are documented in DESIGN.md §5.

namespace dtnic::routing::chitchat {

using msg::KeywordId;
using util::SimTime;

struct ChitChatParams {
  double initial_weight = 0.5;  ///< weight of a freshly defined direct interest
  double max_weight = 1.0;      ///< cap from the growth algorithm
  /// Decay constant β [1/s]. The thesis' worked example uses β=2, which
  /// erases transient interests within seconds; we default to 0.01 so
  /// transient relationships persist on the inter-contact timescale
  /// (DESIGN.md §5.2 records this calibration).
  double decay_beta = 0.01;
  /// Growth rate γ [1/s]: Δ = γ · w_v(I) · quantum / ψ per exchange.
  double growth_rate = 0.02;
  /// Cap on the contact quantum credited per exchange, seconds.
  double growth_contact_cap_s = 10.0;
  /// Transient entries whose weight falls below this are forgotten.
  double prune_epsilon = 1e-3;
  /// Relay handoff needs S_v > S_u + this margin (0 = strict inequality).
  double forward_margin = 0.0;
};

/// Dense, keyword-indexed interest table. KeywordIds are interned densely
/// (0 .. pool-1), so every slot lives at its keyword's index: weights and
/// last-seen stamps in flat arrays, membership and directness in 64-bit
/// bitsets. Decay, growth and the link-up last-seen refresh are word-level
/// loops over set bits; lookups are a bounds check and an array load. Every
/// slot is updated by the same arithmetic as Algorithms 1-2 prescribe and
/// independently of every other slot, so results do not depend on the
/// visiting order (DESIGN.md §5.16).
class InterestTable {
 public:
  /// \p keyword_capacity pre-sizes the table for ids [0, capacity) — the
  /// keyword pool — so acquiring a keyword never reallocates. Ids beyond it
  /// still work; the table grows to cover them.
  explicit InterestTable(const ChitChatParams& params, std::size_t keyword_capacity = 0);

  /// Grow the table to hold ids [0, \p keyword_capacity). Never shrinks.
  void reserve(std::size_t keyword_capacity);
  /// Number of keyword ids the table holds without growing.
  [[nodiscard]] std::size_t capacity() const { return weight_.size(); }

  /// Define a direct (self-chosen) interest; weight starts at 0.5.
  void add_direct(KeywordId k, SimTime now);

  [[nodiscard]] bool has(KeywordId k) const { return test(present_, k.value()); }
  [[nodiscard]] bool has_direct(KeywordId k) const { return test(direct_, k.value()); }
  /// Weight of \p k; 0 if unknown.
  [[nodiscard]] double weight(KeywordId k) const {
    return k.value() < weight_.size() ? weight_[k.value()] : 0.0;
  }
  [[nodiscard]] double sum_weights(std::span<const KeywordId> keywords) const;
  /// Mean weight over \p keywords (0 for an empty list).
  [[nodiscard]] double mean_weight(std::span<const KeywordId> keywords) const;
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Monotone counter bumped whenever a weight changes or a slot appears or
  /// disappears (add_direct / decay / grow_from / restore / clear). Strength
  /// caches key on it: while the generation holds, every sum_weights result
  /// is still valid.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Decay phase. \p connected_has(I) reports whether some *currently
  /// connected* device shares interest I — such interests do not decay and
  /// their last-seen timestamp refreshes (Algorithm 1).
  void decay(SimTime now, const std::function<bool(KeywordId)>& connected_has);

  /// Decay against the interest tables of the currently connected ChitChat
  /// neighbors: equivalent to the predicate overload with "any table has(I)",
  /// computed a word at a time by OR-ing the neighbors' membership bitsets.
  void decay_against(SimTime now, std::span<const InterestTable* const> connected);

  /// Growth phase: absorb the peer's (already decayed) interests
  /// (Algorithm 2). \p contact_quantum_s is the capped contact-time credit
  /// for this exchange. Unknown interests are acquired as transient.
  void grow_from(const InterestTable& peer, SimTime now, double contact_quantum_s);

  /// Record that a connected device shares interest \p k at \p now.
  void note_seen(KeywordId k, SimTime now);

  /// note_seen for every interest both this table and \p peer hold: the
  /// link-up refresh after grow_from, one AND per bitset word.
  void note_seen_shared(const InterestTable& peer, SimTime now);

  /// Reinstate a slot verbatim — weight, directness, last-seen — bypassing
  /// the growth algorithm. Only deserialization uses this (the live
  /// overlay's INTEREST_DIGEST frames reconstruct a remote peer's table);
  /// protocol code must go through add_direct / grow_from.
  void restore(KeywordId k, double weight, bool direct, SimTime now);

  /// Forget every slot, keeping the capacity (digest replacement).
  void clear();

  struct Entry {
    KeywordId keyword;
    double weight = 0.0;
    bool direct = false;
    SimTime last_seen;
  };
  /// Snapshot in ascending keyword id order.
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Visit every slot as (keyword, weight, direct) in ascending keyword id
  /// order, without allocating.
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    for_each_bit(present_, [&](std::size_t k) {
      visit(KeywordId(static_cast<KeywordId::underlying>(k)), weight_[k], test(direct_, k));
    });
  }

  [[nodiscard]] const ChitChatParams& params() const { return params_; }

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  [[nodiscard]] static bool test(const std::vector<Word>& bits, std::size_t k) {
    return k / kWordBits < bits.size() && ((bits[k / kWordBits] >> (k % kWordBits)) & 1u) != 0;
  }
  /// Call \p visit(k) for every set bit k of \p bits, ascending.
  template <class Visit>
  static void for_each_bit(const std::vector<Word>& bits, Visit&& visit) {
    for (std::size_t w = 0; w < bits.size(); ++w) {
      for (Word word = bits[w]; word != 0; word &= word - 1) {
        visit(w * kWordBits + static_cast<std::size_t>(std::countr_zero(word)));
      }
    }
  }

  /// Make \p k a present slot (weight 0 if it was absent); capacity grows
  /// geometrically when \p k lies beyond it.
  void insert(std::size_t k);

  /// Algorithm 1 over all slots. \p connected_mask(w, present_word) returns
  /// the bits of word w whose interest a connected device shares; both
  /// public decay entry points funnel here.
  template <class ConnectedMask>
  void decay_impl(SimTime now, ConnectedMask&& connected_mask);

  /// ψ of Algorithm 2 for the six direct/transient/absent combinations.
  [[nodiscard]] static int psi(bool self_has, bool self_direct, bool peer_direct);

  ChitChatParams params_;
  std::vector<double> weight_;     ///< by keyword id; 0 when absent
  std::vector<double> last_seen_;  ///< T_l: last time a device with I was connected
  std::vector<Word> present_;      ///< bit k: keyword k has a slot
  std::vector<Word> direct_;       ///< bit k: the slot is a direct interest
  std::size_t size_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace dtnic::routing::chitchat
