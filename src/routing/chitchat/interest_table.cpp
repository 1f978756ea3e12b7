#include "routing/chitchat/interest_table.h"

#include <algorithm>

#include "util/assert.h"

namespace dtnic::routing::chitchat {

InterestTable::InterestTable(const ChitChatParams& params, std::size_t keyword_capacity)
    : params_(params) {
  reserve(keyword_capacity);
}

void InterestTable::reserve(std::size_t keyword_capacity) {
  if (keyword_capacity <= capacity()) return;
  weight_.resize(keyword_capacity, 0.0);
  last_seen_.resize(keyword_capacity, 0.0);
  const std::size_t words = (keyword_capacity + kWordBits - 1) / kWordBits;
  present_.resize(words, 0);
  direct_.resize(words, 0);
}

void InterestTable::insert(std::size_t k) {
  if (k >= capacity()) reserve(std::max(k + 1, 2 * capacity()));
  Word& word = present_[k / kWordBits];
  const Word bit = Word{1} << (k % kWordBits);
  if ((word & bit) != 0) return;
  word |= bit;
  ++size_;
}

void InterestTable::add_direct(KeywordId k, SimTime now) {
  DTNIC_REQUIRE(k.valid());
  insert(k.value());
  direct_[k.value() / kWordBits] |= Word{1} << (k.value() % kWordBits);
  weight_[k.value()] = std::max(weight_[k.value()], params_.initial_weight);
  last_seen_[k.value()] = now.sec();
  ++generation_;
}

double InterestTable::sum_weights(std::span<const KeywordId> keywords) const {
  double sum = 0.0;
  for (KeywordId k : keywords) sum += weight(k);
  return sum;
}

double InterestTable::mean_weight(std::span<const KeywordId> keywords) const {
  if (keywords.empty()) return 0.0;
  return sum_weights(keywords) / static_cast<double>(keywords.size());
}

template <class ConnectedMask>
void InterestTable::decay_impl(SimTime now, ConnectedMask&& connected_mask) {
  const double now_s = now.sec();
  bool changed = false;
  for (std::size_t w = 0; w < present_.size(); ++w) {
    const Word live = present_[w];
    if (live == 0) continue;
    const Word connected = connected_mask(w, live);
    for (Word word = live; word != 0; word &= word - 1) {
      const int bit = std::countr_zero(word);
      const Word mask = Word{1} << bit;
      const std::size_t k = w * kWordBits + static_cast<std::size_t>(bit);
      if ((connected & mask) != 0) {
        // A connected device shares I: the weight holds and T_l refreshes.
        last_seen_[k] = now_s;
        continue;
      }
      const double dt = now_s - last_seen_[k];
      // Divisor floored at 1 so decay never amplifies a weight (Algorithm 1
      // divides by β·(T_c − T_l), which would amplify for small gaps).
      const double divisor = std::max(1.0, params_.decay_beta * dt);
      const double before = weight_[k];
      const bool direct = (direct_[w] & mask) != 0;
      const double after = direct ? (before - 0.5) / divisor + 0.5 : before / divisor;
      changed = changed || after != before;
      last_seen_[k] = now_s;  // decay applied up to `now`
      if (!direct && after < params_.prune_epsilon) {
        present_[w] &= ~mask;
        weight_[k] = 0.0;
        --size_;
        changed = true;
      } else {
        weight_[k] = after;
      }
    }
  }
  if (changed) ++generation_;
}

void InterestTable::decay(SimTime now, const std::function<bool(KeywordId)>& connected_has) {
  if (!connected_has) {
    decay_impl(now, [](std::size_t, Word) { return Word{0}; });
    return;
  }
  decay_impl(now, [&connected_has](std::size_t w, Word live) {
    Word connected = 0;
    for (; live != 0; live &= live - 1) {
      const int bit = std::countr_zero(live);
      const std::size_t k = w * kWordBits + static_cast<std::size_t>(bit);
      if (connected_has(KeywordId(static_cast<KeywordId::underlying>(k)))) {
        connected |= Word{1} << bit;
      }
    }
    return connected;
  });
}

void InterestTable::decay_against(SimTime now,
                                  std::span<const InterestTable* const> connected) {
  decay_impl(now, [connected](std::size_t w, Word) {
    Word shared = 0;
    for (const InterestTable* table : connected) {
      if (w < table->present_.size()) shared |= table->present_[w];
    }
    return shared;
  });
}

int InterestTable::psi(bool self_has, bool self_direct, bool peer_direct) {
  if (self_has && self_direct) return peer_direct ? 1 : 2;
  if (self_has) return peer_direct ? 3 : 4;  // self transient
  return peer_direct ? 5 : 6;                // acquisition
}

void InterestTable::grow_from(const InterestTable& peer, SimTime now, double contact_quantum_s) {
  DTNIC_REQUIRE(contact_quantum_s >= 0.0);
  const double quantum = std::min(contact_quantum_s, params_.growth_contact_cap_s);
  const double now_s = now.sec();
  bool changed = false;
  for (std::size_t w = 0; w < peer.present_.size(); ++w) {
    // Membership words as of the start of this word: each bit is visited
    // once, so an acquisition below never invalidates them for later bits.
    const Word held = w < present_.size() ? present_[w] : 0;
    const Word held_direct = w < direct_.size() ? direct_[w] : 0;
    const Word peer_direct = peer.direct_[w];
    for (Word word = peer.present_[w]; word != 0; word &= word - 1) {
      const int bit = std::countr_zero(word);
      const Word mask = Word{1} << bit;
      const std::size_t k = w * kWordBits + static_cast<std::size_t>(bit);
      const double peer_weight = peer.weight_[k];
      if (peer_weight <= 0.0) continue;
      const bool self_has = (held & mask) != 0;
      const int divisor =
          psi(self_has, (held_direct & mask) != 0, (peer_direct & mask) != 0);
      const double delta =
          params_.growth_rate * peer_weight * quantum / static_cast<double>(divisor);
      if (delta <= 0.0) continue;
      if (!self_has) insert(k);  // acquires a transient slot at weight 0
      const double before = weight_[k];
      weight_[k] = std::min(params_.max_weight, before + delta);
      last_seen_[k] = now_s;
      changed = changed || !self_has || weight_[k] != before;
    }
  }
  if (changed) ++generation_;
}

void InterestTable::note_seen(KeywordId k, SimTime now) {
  if (has(k)) last_seen_[k.value()] = now.sec();
}

void InterestTable::note_seen_shared(const InterestTable& peer, SimTime now) {
  const double now_s = now.sec();
  const std::size_t words = std::min(present_.size(), peer.present_.size());
  for (std::size_t w = 0; w < words; ++w) {
    for (Word word = present_[w] & peer.present_[w]; word != 0; word &= word - 1) {
      last_seen_[w * kWordBits + static_cast<std::size_t>(std::countr_zero(word))] = now_s;
    }
  }
}

void InterestTable::restore(KeywordId k, double weight, bool direct, SimTime now) {
  DTNIC_REQUIRE(k.valid());
  insert(k.value());
  Word& word = direct_[k.value() / kWordBits];
  const Word bit = Word{1} << (k.value() % kWordBits);
  word = direct ? (word | bit) : (word & ~bit);
  weight_[k.value()] = weight;
  last_seen_[k.value()] = now.sec();
  ++generation_;
}

void InterestTable::clear() {
  std::fill(weight_.begin(), weight_.end(), 0.0);
  std::fill(present_.begin(), present_.end(), Word{0});
  std::fill(direct_.begin(), direct_.end(), Word{0});
  size_ = 0;
  ++generation_;
}

std::vector<InterestTable::Entry> InterestTable::entries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  for_each_bit(present_, [&](std::size_t k) {
    out.push_back(Entry{KeywordId(static_cast<KeywordId::underlying>(k)), weight_[k],
                        test(direct_, k), SimTime::seconds(last_seen_[k])});
  });
  return out;
}

}  // namespace dtnic::routing::chitchat
