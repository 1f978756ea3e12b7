#include "sim/event_queue.h"

#include <algorithm>

#include "util/assert.h"

namespace dtnic::sim {

void EventQueue::release_record(std::uint32_t idx) {
  Record& r = records_[idx];
  r.fn = nullptr;  // drop captured state now, not when the record is reused
  r.cancelled = false;
  ++r.generation;
  free_.push_back(idx);
}

EventId EventQueue::push(util::SimTime t, EventFn fn) {
  DTNIC_REQUIRE_MSG(fn != nullptr, "event callback must not be null");
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  Record& r = records_[idx];
  r.fn = std::move(fn);
  heap_.push_back(Entry{t, next_seq_++, idx});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return EventId{(static_cast<std::uint64_t>(r.generation) << 32) |
                 (static_cast<std::uint64_t>(idx) + 1)};
}

void EventQueue::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint64_t idx = (id.value & 0xffffffffull) - 1;
  if (idx >= records_.size()) return;
  Record& r = records_[idx];
  if (r.generation != static_cast<std::uint32_t>(id.value >> 32) || r.cancelled) return;
  // Removing from the middle of a heap is O(n); mark instead and reclaim
  // when the entry surfaces, at the compaction threshold, or on drain.
  r.cancelled = true;
  r.fn = nullptr;
  ++dead_;
  --live_;
  if (live_ == 0) {
    reset_drained();
  } else {
    maybe_compact();
  }
}

void EventQueue::maybe_compact() {
  if (dead_ < kCompactionThreshold || dead_ <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) {
    if (!records_[e.record].cancelled) return false;
    release_record(e.record);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), later);
  dead_ = 0;
}

void EventQueue::reset_drained() {
  // Every entry left is a cancelled straggler.
  for (const Entry& e : heap_) release_record(e.record);
  heap_.clear();
  dead_ = 0;
}

void EventQueue::drop_cancelled_top() {
  DTNIC_ASSERT(live_ > 0);
  while (records_[heap_.front().record].cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    release_record(heap_.back().record);
    heap_.pop_back();
    --dead_;
  }
}

util::SimTime EventQueue::next_time() {
  DTNIC_REQUIRE_MSG(live_ > 0, "next_time() on empty queue");
  drop_cancelled_top();
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  DTNIC_REQUIRE_MSG(live_ > 0, "pop() on empty queue");
  drop_cancelled_top();
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Entry top = heap_.back();
  heap_.pop_back();
  Popped out{top.time, std::move(records_[top.record].fn)};
  release_record(top.record);
  --live_;
  if (live_ == 0) reset_drained();
  return out;
}

}  // namespace dtnic::sim
