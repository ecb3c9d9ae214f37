#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace pmemflow::sim {

namespace {
/// Below this heap size a rebuild saves too little to bother; it also
/// keeps tiny queues from compacting on every other cancel.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

EventId EventQueue::schedule(SimTime when, Callback callback) {
  return push(when, next_sequence_++, std::move(callback));
}

EventId EventQueue::schedule_reserved(SimTime when, std::uint64_t sequence,
                                      Callback callback) {
  PMEMFLOW_ASSERT_MSG(sequence < next_sequence_,
                      "sequence was never reserved");
  return push(when, sequence, std::move(callback));
}

EventId EventQueue::push(SimTime when, std::uint64_t sequence,
                         Callback callback) {
  PMEMFLOW_ASSERT(callback != nullptr);
  const std::uint64_t id = next_id_++;
  heap_.push_back(Entry{when, sequence, id});
  std::push_heap(heap_.begin(), heap_.end());
  live_.emplace(id, std::move(callback));
  return EventId{id};
}

bool EventQueue::cancel(EventId id) {
  if (live_.erase(id.value) == 0) return false;
  ++dead_;  // the heap entry stays behind (lazy deletion)
  maybe_compact();
  return true;
}

EventId EventQueue::reschedule(EventId id, SimTime when) {
  auto it = live_.find(id.value);
  if (it == live_.end()) return EventId{};
  Callback callback = std::move(it->second);
  live_.erase(it);  // the old heap entry goes dead (lazy deletion)
  ++dead_;
  const EventId moved = schedule(when, std::move(callback));
  maybe_compact();
  return moved;
}

void EventQueue::drop_dead_entries() const {
  while (!heap_.empty() && !live_.contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    PMEMFLOW_ASSERT(dead_ > 0);
    --dead_;
  }
}

void EventQueue::maybe_compact() {
  if (heap_.size() < kCompactionFloor || dead_ <= live_.size()) return;
  // Keep only live entries, then restore the heap invariant. Heap shape
  // does not affect pop order (the comparator is a strict total order:
  // sequence numbers are unique), so compaction preserves determinism.
  std::erase_if(heap_, [this](const Entry& entry) {
    return !live_.contains(entry.id);
  });
  std::make_heap(heap_.begin(), heap_.end());
  dead_ = 0;
}

SimTime EventQueue::next_time() const {
  drop_dead_entries();
  PMEMFLOW_ASSERT_MSG(!heap_.empty(), "next_time() on empty queue");
  return heap_.front().when;
}

bool EventQueue::has_event_before(SimTime when,
                                  std::uint64_t sequence) const {
  drop_dead_entries();
  if (heap_.empty()) return false;
  const Entry& top = heap_.front();
  return top.when < when || (top.when == when && top.sequence < sequence);
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  drop_dead_entries();
  PMEMFLOW_ASSERT_MSG(!heap_.empty(), "pop() on empty queue");
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.pop_back();
  auto it = live_.find(top.id);
  PMEMFLOW_ASSERT(it != live_.end());
  Callback callback = std::move(it->second);
  live_.erase(it);
  return {top.when, std::move(callback)};
}

}  // namespace pmemflow::sim
