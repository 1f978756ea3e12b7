#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/sim_time.h"

/// Property tests for the EventQueue: fire order must follow the reference
/// semantics — strictly by (time, insertion sequence) — under arbitrary
/// interleavings of push, cancel and pop, including pushes into the past,
/// equal-time bursts, far-future and infinite times, and periodic re-arming
/// through Simulator::schedule_every_from.

namespace dtnic::sim {
namespace {

using util::SimTime;

/// Oracle: ordered set of (time, seq) with the token the callback reports.
struct RefModel {
  struct Key {
    double time;
    std::uint64_t seq;
    int token;
    bool operator<(const Key& o) const {
      if (time != o.time) return time < o.time;
      return seq < o.seq;
    }
  };
  std::set<Key> pending;
};

TEST(EventQueueProperty, MatchesReferenceOrderUnderRandomInterleavings) {
  util::Rng rng(424242);
  EventQueue q;
  RefModel ref;
  std::vector<std::pair<EventId, RefModel::Key>> live;  // cancellable handles
  std::vector<int> fired;
  int next_token = 0;
  std::uint64_t next_seq = 0;
  double last_popped = 0.0;

  const auto do_push = [&](double time) {
    const int token = next_token++;
    const RefModel::Key key{time, next_seq++, token};
    const EventId id = q.push(SimTime::seconds(time), [&fired, token] { fired.push_back(token); });
    ref.pending.insert(key);
    live.emplace_back(id, key);
  };
  const auto do_pop = [&] {
    ASSERT_FALSE(ref.pending.empty());
    const RefModel::Key expect = *ref.pending.begin();
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.next_time(), SimTime::seconds(expect.time));
    const auto popped = q.pop();
    EXPECT_EQ(popped.time, SimTime::seconds(expect.time));
    popped.fn();
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(fired.back(), expect.token) << "fire order diverged from (time, seq)";
    ref.pending.erase(ref.pending.begin());
    last_popped = expect.time;
  };

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 55) {
      double time;
      const std::uint64_t shape = rng.below(100);
      if (shape < 10 && !ref.pending.empty()) {
        // Duplicate an already-pending time: forces (time, seq) tiebreaks.
        auto it = ref.pending.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.below(ref.pending.size())));
        time = it->time;
      } else if (shape < 20) {
        time = last_popped;  // exactly "now"
      } else if (shape < 28) {
        // Into the past relative to the last pop — the queue accepts these
        // and fires them next.
        time = std::max(0.0, last_popped - rng.uniform(0.0, 10.0));
      } else if (shape < 31) {
        time = last_popped + rng.uniform(1e5, 1e7);  // far future: high levels
      } else if (shape < 33) {
        time = std::numeric_limits<double>::infinity();
      } else {
        time = last_popped + rng.uniform(0.0, 120.0);
      }
      do_push(time);
    } else if (dice < 75) {
      if (!live.empty()) {
        const std::size_t pick = rng.below(live.size());
        const auto [id, key] = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        // The handle may refer to an event that already fired; cancel must
        // be harmless then (and cancel twice likewise).
        q.cancel(id);
        q.cancel(id);
        ref.pending.erase(key);
      }
    } else {
      if (!ref.pending.empty()) do_pop();
    }
    ASSERT_EQ(q.size(), ref.pending.size());
    ASSERT_EQ(q.empty(), ref.pending.empty());
  }
  while (!ref.pending.empty()) do_pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_entries(), 0u);
  EXPECT_EQ(q.cancelled_entries(), 0u);
}

TEST(EventQueueProperty, CancelHeavyBucketDrainCompacts) {
  // Regression for the named compaction policy: queue a large batch of
  // equal-time events, cancel almost all of it, and require the bookkeeping
  // to stay bounded by the threshold instead of the cancellation history.
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 2048; ++i) {
    ids.push_back(q.push(SimTime::seconds(1.0), [&fired] { ++fired; }));
  }
  // Pop (and fire) one event first, so cancels hit a queue already in use.
  q.pop().fn();
  std::size_t cancelled = 0;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (i % 16 == 0) continue;  // survivors
    q.cancel(ids[i]);
    ++cancelled;
    // The dead never exceed the threshold plus the live remainder: once they
    // outnumber live entries past kCompactionThreshold, compaction runs.
    ASSERT_LE(q.cancelled_entries(), EventQueue::kCompactionThreshold + q.size());
  }
  ASSERT_GT(cancelled, 1500u);
  // Policy invariant: dead records never exceed max(live, threshold), so
  // total bookkeeping is bounded by the live count, not by the 1900+
  // cancellations issued.
  EXPECT_LE(q.heap_entries(), q.size() + std::max(q.size(), EventQueue::kCompactionThreshold));
  // Survivors still fire, in order.
  SimTime prev = SimTime::zero();
  while (!q.empty()) {
    const auto popped = q.pop();
    EXPECT_GE(popped.time, prev);
    prev = popped.time;
    popped.fn();
  }
  EXPECT_EQ(fired, 1 + 2048 / 16 - 1);
  EXPECT_EQ(q.heap_entries(), 0u);
  EXPECT_EQ(q.cancelled_entries(), 0u);
}

TEST(EventQueueProperty, PeriodicInterleavingsFireInSchedulingOrder) {
  // schedule_every_from re-arms by pushing from inside the fired callback,
  // so at a coincident time the one-shot scheduled at setup (lower seq)
  // precedes the periodic re-arms, and periodic A precedes periodic B
  // because A fired (and re-armed) first. A cancelled periodic stops even
  // with a tick already queued.
  Simulator s;
  std::vector<std::string> log;
  const EventId a = s.schedule_every_from(SimTime::seconds(10.0), SimTime::seconds(10.0),
                                          [&log] { log.push_back("A"); });
  const EventId b = s.schedule_every_from(SimTime::seconds(10.0), SimTime::seconds(10.0),
                                          [&log] { log.push_back("B"); });
  (void)a;
  s.schedule_at(SimTime::seconds(20.0), [&log] { log.push_back("one20"); });
  s.schedule_at(SimTime::seconds(25.0), [&log, &s, b] {
    log.push_back("cancelB");
    s.cancel(b);
  });
  s.run_until(SimTime::seconds(40.0));
  // t=10: A, B. t=20: the setup-time one-shot has the lower seq, then the
  // re-arms in firing order. t=25: cancelB. t=30: A only (B's queued tick is
  // dead). t=40: A.
  const std::vector<std::string> expect{"A", "B", "one20", "A", "B", "cancelB", "A", "A"};
  EXPECT_EQ(log, expect);
}

}  // namespace
}  // namespace dtnic::sim
