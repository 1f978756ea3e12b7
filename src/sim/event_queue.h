#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/sim_time.h"

/// \file event_queue.h
/// Time-ordered event queue with stable FIFO ordering for simultaneous
/// events, implemented as a binary heap over a slab of records.
///
/// Callbacks live in a slab of records recycled through a free list; the
/// heap holds only small (time, seq, record) entries ordered by time, then
/// insertion sequence, so equal-time events fire in the order they were
/// pushed. Once the slab, free list and heap have grown to the working set,
/// the queue's own bookkeeping stops allocating.
///
/// Cancellation is lazy: a cancelled record stays in the heap, marked, and
/// is reclaimed when it surfaces at the top — or wholesale once at least
/// kCompactionThreshold cancelled entries outnumber the live ones, so
/// bookkeeping stays bounded by the live count rather than the cancellation
/// history. When the queue drains, every straggler is released.

namespace dtnic::sim {

using EventFn = std::function<void()>;

/// Opaque handle for cancelling a scheduled event. Encodes slab index and a
/// per-record generation so a handle kept after its event fired can never
/// cancel an unrelated event that reused the record.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(EventId, EventId) = default;
};

class EventQueue {
 public:
  /// Heap compaction trigger: once at least this many cancelled entries
  /// are stranded in the heap *and* they outnumber the live ones, the heap
  /// is rebuilt with only live entries. Named so tests can pin the policy
  /// instead of re-deriving it.
  static constexpr std::size_t kCompactionThreshold = 64;

  /// Enqueue \p fn at time \p t. Events at the same time fire in insertion
  /// order, which keeps runs deterministic.
  EventId push(util::SimTime t, EventFn fn);

  /// Cancel an event; harmless if already fired or cancelled.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest pending (non-cancelled) event.
  /// Requires !empty().
  [[nodiscard]] util::SimTime next_time();

  /// Remove and return the earliest pending event. Requires !empty().
  struct Popped {
    util::SimTime time;
    EventFn fn;
  };
  [[nodiscard]] Popped pop();

  /// Bookkeeping introspection (tests / diagnostics): heap entries including
  /// cancelled ones not yet reclaimed, and the count of those cancelled
  /// entries. Both drain to zero when the queue empties.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }
  [[nodiscard]] std::size_t cancelled_entries() const { return dead_; }

 private:
  struct Record {
    EventFn fn;
    /// Bumped on release, so a free record never matches an issued id.
    std::uint32_t generation = 0;
    bool cancelled = false;  ///< still in the heap, awaiting reclaim
  };

  struct Entry {
    util::SimTime time;
    std::uint64_t seq;  ///< FIFO tiebreak for equal times
    std::uint32_t record;
  };

  /// Heap order for std::push_heap / std::pop_heap: "a fires after b", so
  /// the earliest (time, seq) sits at the front.
  [[nodiscard]] static bool later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void release_record(std::uint32_t idx);
  /// Pop cancelled entries off the top until a live one is there.
  /// Requires live_ > 0.
  void drop_cancelled_top();
  void maybe_compact();
  /// live_ hit zero: release every cancelled straggler and empty the heap.
  void reset_drained();

  std::vector<Record> records_;       ///< slab; index is the EventId low word
  std::vector<std::uint32_t> free_;   ///< recycled slab indices
  std::vector<Entry> heap_;
  std::size_t dead_ = 0;  ///< cancelled entries still in heap_
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace dtnic::sim
