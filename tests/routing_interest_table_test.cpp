#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <vector>

#include "routing/chitchat/interest_table.h"

#include "util/rng.h"

namespace dtnic::routing::chitchat {
namespace {

using msg::KeywordId;
using util::SimTime;

ChitChatParams fast_params() {
  ChitChatParams p;
  p.decay_beta = 0.1;  // decays on a ~10 s timescale for compact tests
  return p;
}

TEST(InterestTable, DirectInterestStartsAtHalf) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(1)), 0.5);
  EXPECT_TRUE(t.has_direct(KeywordId(1)));
  EXPECT_TRUE(t.has(KeywordId(1)));
  EXPECT_FALSE(t.has(KeywordId(2)));
}

TEST(InterestTable, UnknownKeywordWeightZero) {
  InterestTable t(fast_params());
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(42)), 0.0);
}

TEST(InterestTable, SumAndMeanWeights) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  t.add_direct(KeywordId(2), SimTime::zero());
  const std::vector<KeywordId> keys{KeywordId(1), KeywordId(2), KeywordId(3)};
  EXPECT_DOUBLE_EQ(t.sum_weights(keys), 1.0);
  EXPECT_NEAR(t.mean_weight(keys), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.mean_weight({}), 0.0);
}

TEST(InterestTable, DirectDecaysTowardHalf) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  // Grow it above 0.5 first.
  InterestTable peer(fast_params());
  peer.add_direct(KeywordId(1), SimTime::zero());
  for (int i = 0; i < 50; ++i) t.grow_from(peer, SimTime::zero(), 10.0);
  const double grown = t.weight(KeywordId(1));
  ASSERT_GT(grown, 0.5);
  t.decay(SimTime::seconds(100), nullptr);
  const double decayed = t.weight(KeywordId(1));
  EXPECT_LT(decayed, grown);
  EXPECT_GE(decayed, 0.5);  // direct interests never decay below 0.5
}

TEST(InterestTable, TransientDecaysTowardZeroAndIsPruned) {
  InterestTable t(fast_params());
  InterestTable peer(fast_params());
  peer.add_direct(KeywordId(7), SimTime::zero());
  t.grow_from(peer, SimTime::zero(), 10.0);
  ASSERT_TRUE(t.has(KeywordId(7)));
  ASSERT_FALSE(t.has_direct(KeywordId(7)));
  // Long silence: transient interest decays to (near) zero and is forgotten.
  t.decay(SimTime::seconds(1000), nullptr);
  t.decay(SimTime::seconds(5000), nullptr);
  t.decay(SimTime::seconds(50000), nullptr);
  EXPECT_FALSE(t.has(KeywordId(7)));
}

TEST(InterestTable, ConnectedInterestDoesNotDecay) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  InterestTable peer(fast_params());
  peer.add_direct(KeywordId(1), SimTime::zero());
  t.grow_from(peer, SimTime::zero(), 10.0);
  const double before = t.weight(KeywordId(1));
  t.decay(SimTime::seconds(500), [](KeywordId) { return true; });  // peer still connected
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(1)), before);
}

TEST(InterestTable, DecayNeverAmplifies) {
  // Small gaps would divide by < 1 in the raw formula; the floor guards it.
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  t.decay(SimTime::seconds(0.001), nullptr);
  EXPECT_LE(t.weight(KeywordId(1)), 0.5 + 1e-12);
}

TEST(InterestTable, GrowthCapsAtMax) {
  ChitChatParams p = fast_params();
  p.growth_rate = 10.0;  // absurdly fast growth
  InterestTable t(p);
  t.add_direct(KeywordId(1), SimTime::zero());
  InterestTable peer(p);
  peer.add_direct(KeywordId(1), SimTime::zero());
  for (int i = 0; i < 10; ++i) t.grow_from(peer, SimTime::zero(), 10.0);
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(1)), 1.0);
}

TEST(InterestTable, GrowthAcquiresTransient) {
  InterestTable t(fast_params());
  InterestTable peer(fast_params());
  peer.add_direct(KeywordId(9), SimTime::zero());
  t.grow_from(peer, SimTime::seconds(5), 10.0);
  EXPECT_TRUE(t.has(KeywordId(9)));
  EXPECT_FALSE(t.has_direct(KeywordId(9)));
  EXPECT_GT(t.weight(KeywordId(9)), 0.0);
}

TEST(InterestTable, PsiOrdersGrowthSpeed) {
  // direct/direct (psi=1) grows faster than acquiring transient (psi=5).
  const ChitChatParams p = fast_params();
  InterestTable peer(p);
  peer.add_direct(KeywordId(1), SimTime::zero());

  InterestTable direct_side(p);
  direct_side.add_direct(KeywordId(1), SimTime::zero());
  const double before = direct_side.weight(KeywordId(1));
  direct_side.grow_from(peer, SimTime::zero(), 10.0);
  const double direct_gain = direct_side.weight(KeywordId(1)) - before;

  InterestTable absent_side(p);
  absent_side.grow_from(peer, SimTime::zero(), 10.0);
  const double acquire_gain = absent_side.weight(KeywordId(1));

  EXPECT_GT(direct_gain, acquire_gain);
  EXPECT_NEAR(direct_gain / acquire_gain, 5.0, 1e-9);  // psi 1 vs psi 5
}

TEST(InterestTable, GrowthQuantumIsCapped) {
  const ChitChatParams p = fast_params();  // cap = 10 s
  InterestTable a(p);
  InterestTable b(p);
  InterestTable peer(p);
  peer.add_direct(KeywordId(1), SimTime::zero());
  a.grow_from(peer, SimTime::zero(), 10.0);
  b.grow_from(peer, SimTime::zero(), 10000.0);  // capped to the same quantum
  EXPECT_DOUBLE_EQ(a.weight(KeywordId(1)), b.weight(KeywordId(1)));
}

TEST(InterestTable, EntriesSortedByKeyword) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(5), SimTime::zero());
  t.add_direct(KeywordId(1), SimTime::zero());
  t.add_direct(KeywordId(3), SimTime::zero());
  const auto entries = t.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].keyword, KeywordId(1));
  EXPECT_EQ(entries[1].keyword, KeywordId(3));
  EXPECT_EQ(entries[2].keyword, KeywordId(5));
  EXPECT_TRUE(entries[0].direct);
}

TEST(InterestTable, NoteSeenRefreshesTimestampOnly) {
  InterestTable t(fast_params());
  t.add_direct(KeywordId(1), SimTime::zero());
  t.note_seen(KeywordId(1), SimTime::seconds(100));
  // Decay right after refresh: dt = 0 -> divisor floored at 1 -> no change.
  t.decay(SimTime::seconds(100), nullptr);
  EXPECT_DOUBLE_EQ(t.weight(KeywordId(1)), 0.5);
  t.note_seen(KeywordId(99), SimTime::seconds(1));  // unknown: no-op
  EXPECT_FALSE(t.has(KeywordId(99)));
}

/// Property sweep: weights remain in [0,1] under arbitrary decay/growth mixes.
class WeightBoundsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightBoundsSweep, WeightsStayInUnitInterval) {
  util::Rng rng(GetParam());
  ChitChatParams p;
  p.decay_beta = rng.uniform(0.001, 2.0);
  p.growth_rate = rng.uniform(0.001, 1.0);
  InterestTable a(p);
  InterestTable b(p);
  for (int k = 0; k < 5; ++k) {
    a.add_direct(KeywordId(k), SimTime::zero());
    b.add_direct(KeywordId(k + 3), SimTime::zero());
  }
  double now = 0.0;
  for (int step = 0; step < 300; ++step) {
    now += rng.uniform(0.1, 300.0);
    const auto t = SimTime::seconds(now);
    if (rng.chance(0.5)) a.decay(t, nullptr);
    if (rng.chance(0.5)) b.decay(t, nullptr);
    if (rng.chance(0.7)) a.grow_from(b, t, rng.uniform(0.0, 20.0));
    if (rng.chance(0.7)) b.grow_from(a, t, rng.uniform(0.0, 20.0));
    for (const auto& e : a.entries()) {
      ASSERT_GE(e.weight, 0.0);
      ASSERT_LE(e.weight, 1.0);
    }
    for (const auto& e : b.entries()) {
      ASSERT_GE(e.weight, 0.0);
      ASSERT_LE(e.weight, 1.0);
    }
  }
  // Direct interests never vanish.
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(a.has_direct(KeywordId(k)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightBoundsSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Reference model -------------------------------------------------------
// Algorithms 1-2 over a plain ordered map, written independently of the
// dense table: one Slot per held keyword, erase-on-prune, one generation bump
// per mutating call. The dense table must match it bit for bit.

struct RefSlot {
  double weight = 0.0;
  bool direct = false;
  double last_seen = 0.0;
};

struct RefTable {
  ChitChatParams params;
  std::map<std::uint32_t, RefSlot> slots;
  std::uint64_t generation = 0;

  bool has(std::uint32_t k) const { return slots.count(k) > 0; }

  void add_direct(std::uint32_t k, double now) {
    RefSlot& slot = slots[k];
    slot.direct = true;
    slot.weight = std::max(slot.weight, params.initial_weight);
    slot.last_seen = now;
    ++generation;
  }

  template <class ConnectedHas>
  void decay(double now, ConnectedHas connected_has) {
    bool changed = false;
    for (auto it = slots.begin(); it != slots.end();) {
      RefSlot& slot = it->second;
      if (connected_has(it->first)) {
        slot.last_seen = now;
        ++it;
        continue;
      }
      const double divisor = std::max(1.0, params.decay_beta * (now - slot.last_seen));
      const double before = slot.weight;
      slot.weight = slot.direct ? (slot.weight - 0.5) / divisor + 0.5 : slot.weight / divisor;
      changed = changed || slot.weight != before;
      slot.last_seen = now;
      if (!slot.direct && slot.weight < params.prune_epsilon) {
        it = slots.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
    if (changed) ++generation;
  }

  void grow_from(const RefTable& peer, double now, double contact_quantum_s) {
    const double quantum = std::min(contact_quantum_s, params.growth_contact_cap_s);
    bool changed = false;
    for (const auto& [k, peer_slot] : peer.slots) {
      if (peer_slot.weight <= 0.0) continue;
      const auto it = slots.find(k);
      const bool self_has = it != slots.end();
      const bool self_direct = self_has && it->second.direct;
      int psi = 0;
      if (self_has && self_direct) {
        psi = peer_slot.direct ? 1 : 2;
      } else if (self_has) {
        psi = peer_slot.direct ? 3 : 4;
      } else {
        psi = peer_slot.direct ? 5 : 6;
      }
      const double delta =
          params.growth_rate * peer_slot.weight * quantum / static_cast<double>(psi);
      if (delta <= 0.0) continue;
      RefSlot& slot = slots[k];
      const double before = slot.weight;
      slot.weight = std::min(params.max_weight, slot.weight + delta);
      slot.last_seen = now;
      changed = changed || !self_has || slot.weight != before;
    }
    if (changed) ++generation;
  }

  void note_seen(std::uint32_t k, double now) {
    if (auto it = slots.find(k); it != slots.end()) it->second.last_seen = now;
  }

  void restore(std::uint32_t k, double weight, bool direct, double now) {
    slots[k] = RefSlot{weight, direct, now};
    ++generation;
  }
};

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bit-equal state: entries, size, generation, and every point query over
/// ids inside and beyond the table's width.
void expect_matches(const InterestTable& t, const RefTable& ref, int step) {
  SCOPED_TRACE(::testing::Message() << "step " << step);
  ASSERT_EQ(t.size(), ref.slots.size());
  ASSERT_EQ(t.generation(), ref.generation);
  const auto entries = t.entries();
  ASSERT_EQ(entries.size(), ref.slots.size());
  auto it = ref.slots.begin();
  for (const auto& e : entries) {
    ASSERT_EQ(e.keyword.value(), it->first);
    ASSERT_EQ(bits_of(e.weight), bits_of(it->second.weight));
    ASSERT_EQ(e.direct, it->second.direct);
    ASSERT_EQ(bits_of(e.last_seen.sec()), bits_of(it->second.last_seen));
    ++it;
  }
  for (std::uint32_t k = 0; k < 400; ++k) {
    const auto ref_it = ref.slots.find(k);
    const bool held = ref_it != ref.slots.end();
    ASSERT_EQ(t.has(KeywordId(k)), held) << "keyword " << k;
    ASSERT_EQ(t.has_direct(KeywordId(k)), held && ref_it->second.direct) << "keyword " << k;
    ASSERT_EQ(bits_of(t.weight(KeywordId(k))), bits_of(held ? ref_it->second.weight : 0.0))
        << "keyword " << k;
  }
  std::vector<KeywordId> visited;
  t.for_each([&](KeywordId k, double, bool) { visited.push_back(k); });
  ASSERT_EQ(visited.size(), entries.size());
  for (std::size_t i = 0; i < visited.size(); ++i) ASSERT_EQ(visited[i], entries[i].keyword);
}

class ReferenceModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceModel, DenseTableMatchesMapModelBitForBit) {
  util::Rng rng(GetParam());
  ChitChatParams p;
  p.decay_beta = rng.uniform(0.005, 0.5);
  p.growth_rate = rng.uniform(0.005, 0.5);
  p.prune_epsilon = rng.uniform(1e-3, 0.05);

  // Tables of different widths: pool-sized, one word, one word plus a bit,
  // unsized (grows on demand), and wider than the pool.
  const std::size_t widths[] = {200, 64, 65, 0, 320};
  constexpr std::size_t kTables = std::size(widths);
  std::vector<InterestTable> tables;
  std::vector<RefTable> refs;
  for (std::size_t width : widths) {
    tables.emplace_back(p, width);
    refs.push_back(RefTable{p, {}, 0});
  }

  // Word boundaries and the last pool id are drawn far more often than
  // uniform sampling would; ids past 200 exercise the wide table and growth.
  const std::uint32_t boundary[] = {0, 1, 62, 63, 64, 65, 127, 128, 191, 192, 199};
  const auto keyword = [&]() -> std::uint32_t {
    if (rng.chance(0.5)) return boundary[rng.below(std::size(boundary))];
    return static_cast<std::uint32_t>(rng.below(rng.chance(0.9) ? 200 : 320));
  };
  const auto other_than = [&](std::size_t self) {
    std::size_t j = rng.below(kTables - 1);
    return j >= self ? j + 1 : j;
  };

  double now = 0.0;
  for (int step = 0; step < 1500; ++step) {
    if (rng.chance(0.7)) now += rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 40.0);
    const SimTime t = SimTime::seconds(now);
    const std::size_t i = rng.below(kTables);
    if (rng.chance(0.02)) {
      // Restart a table at its original width so narrow and wide tables keep
      // meeting after growth has widened them.
      tables[i] = InterestTable(p, widths[i]);
      refs[i] = RefTable{p, {}, 0};
    }
    InterestTable& table = tables[i];
    RefTable& ref = refs[i];
    switch (rng.below(8)) {
      case 0: {
        const std::uint32_t k = keyword();
        table.add_direct(KeywordId(k), t);
        ref.add_direct(k, now);
        break;
      }
      case 1: {
        table.decay(t, nullptr);
        ref.decay(now, [](std::uint32_t) { return false; });
        break;
      }
      case 2: {
        // An arbitrary (but pure) connected-interest predicate.
        const std::uint32_t modulus = static_cast<std::uint32_t>(rng.range(2, 7));
        table.decay(t, [modulus](KeywordId k) { return k.value() % modulus == 0; });
        ref.decay(now, [modulus](std::uint32_t k) { return k % modulus == 0; });
        break;
      }
      case 3: {
        // Zero to all of the other tables are connected.
        std::vector<const InterestTable*> connected;
        std::vector<const RefTable*> connected_refs;
        for (std::size_t j = 0; j < kTables; ++j) {
          if (j != i && rng.chance(0.5)) {
            connected.push_back(&tables[j]);
            connected_refs.push_back(&refs[j]);
          }
        }
        table.decay_against(t, connected);
        ref.decay(now, [&connected_refs](std::uint32_t k) {
          for (const RefTable* r : connected_refs) {
            if (r->has(k)) return true;
          }
          return false;
        });
        break;
      }
      case 4:
      case 5: {
        const std::size_t j = other_than(i);
        const double quantum = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 20.0);
        table.grow_from(tables[j], t, quantum);
        ref.grow_from(refs[j], now, quantum);
        if (rng.chance(0.5)) {
          table.note_seen_shared(tables[j], t);
          for (const auto& [k, slot] : refs[j].slots) ref.note_seen(k, now);
        }
        break;
      }
      case 6: {
        const std::uint32_t k = keyword();
        table.note_seen(KeywordId(k), t);
        ref.note_seen(k, now);
        break;
      }
      default: {
        const std::uint32_t k = keyword();
        const double weight = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 1.0);
        const bool direct = rng.chance(0.5);
        table.restore(KeywordId(k), weight, direct, t);
        ref.restore(k, weight, direct, now);
        break;
      }
    }
    for (std::size_t j = 0; j < kTables; ++j) expect_matches(tables[j], refs[j], step);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceModel, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(InterestTable, PreSizedTableNeverGrowsWithinPool) {
  InterestTable t(fast_params(), 200);
  InterestTable peer(fast_params(), 200);
  for (std::uint32_t k = 0; k < 200; ++k) peer.add_direct(KeywordId(k), SimTime::zero());
  t.grow_from(peer, SimTime::zero(), 10.0);
  t.restore(KeywordId(199), 0.5, false, SimTime::zero());
  EXPECT_EQ(t.size(), 200u);
  EXPECT_EQ(t.capacity(), 200u);
  // An id beyond the pool still works; the table grows to cover it.
  t.add_direct(KeywordId(250), SimTime::zero());
  EXPECT_TRUE(t.has_direct(KeywordId(250)));
  EXPECT_GE(t.capacity(), 251u);
}

TEST(InterestTable, ClearDropsSlotsAndKeepsCapacity) {
  InterestTable t(fast_params(), 100);
  t.add_direct(KeywordId(3), SimTime::zero());
  t.restore(KeywordId(70), 0.4, false, SimTime::zero());
  const std::uint64_t before = t.generation();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.has(KeywordId(3)));
  EXPECT_EQ(t.weight(KeywordId(70)), 0.0);
  EXPECT_EQ(t.capacity(), 100u);
  EXPECT_GT(t.generation(), before);
}

}  // namespace
}  // namespace dtnic::routing::chitchat
