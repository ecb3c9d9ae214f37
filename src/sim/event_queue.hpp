// Time-ordered event queue with O(log n) insert/pop and cancellation.
//
// Events at equal timestamps fire in insertion order (FIFO), which makes
// every simulation run fully deterministic. A caller may reserve a FIFO
// slot (a sequence number) now and schedule into it later; the event
// then fires exactly where one scheduled at reservation time would have.
//
// Cancellation is lazy: a cancelled entry stays in the heap and is
// skipped when popped — but the backlog is bounded: when dead entries
// outnumber live ones the heap is compacted in one O(n) rebuild, so
// cancel/reschedule churn (e.g. a FlowResource cancelling its completion
// whenever its flow set changes) keeps the heap O(live) instead of
// O(total events ever scheduled).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace pmemflow::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
struct EventId {
  std::uint64_t value = 0;

  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// Min-heap of (time, sequence) ordered callbacks.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `callback` to fire at absolute time `when`.
  EventId schedule(SimTime when, Callback callback);

  /// Reserves the next FIFO sequence number without scheduling anything.
  /// Events scheduled afterwards order behind it; a reservation that is
  /// never used moves no other event.
  [[nodiscard]] std::uint64_t reserve_sequence() noexcept {
    return next_sequence_++;
  }

  /// Schedules `callback` at `when` under a sequence number from
  /// reserve_sequence(), so among events at `when` it fires where an
  /// event scheduled at reservation time would have. Use each reserved
  /// number at most once.
  EventId schedule_reserved(SimTime when, std::uint64_t sequence,
                            Callback callback);

  /// Cancels a previously scheduled event. Returns false if the event
  /// already fired or was already cancelled.
  bool cancel(EventId id);

  /// Moves a live event to a new absolute time, returning its new id
  /// (the old id is dead). The event is ordered as if freshly scheduled
  /// at `when`: among equal timestamps it fires after events already
  /// queued there, keeping FIFO determinism. Returns an invalid id when
  /// the event already fired or was cancelled.
  EventId reschedule(EventId id, SimTime when);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const noexcept { return live_.empty(); }

  /// Number of live (non-cancelled, not-yet-fired) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_.size(); }

  /// Timestamp of the earliest live event; queue must not be empty.
  [[nodiscard]] SimTime next_time() const;

  /// True when the earliest live event orders before the key
  /// (`when`, `sequence`): earlier time, or equal time and a smaller
  /// sequence. False on an empty queue.
  [[nodiscard]] bool has_event_before(SimTime when,
                                      std::uint64_t sequence) const;

  /// Removes and returns the earliest live event's callback together
  /// with its timestamp; queue must not be empty.
  std::pair<SimTime, Callback> pop();

  /// Physical heap entries, live + dead (test hook: the compaction
  /// invariant is heap_size() <= max(2 * size(), compaction floor)).
  [[nodiscard]] std::size_t heap_size() const noexcept {
    return heap_.size();
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t sequence;
    std::uint64_t id;

    // std::push_heap/pop_heap build a max-heap; invert for
    // earliest-first, and break time ties by sequence for FIFO ordering.
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  EventId push(SimTime when, std::uint64_t sequence, Callback callback);
  void drop_dead_entries() const;
  /// Rebuilds the heap without dead entries once they outnumber live
  /// ones (and the heap is big enough for the rebuild to matter).
  void maybe_compact();

  // The heap is mutable so that next_time() can shed cancelled entries
  // without pretending to be non-const: dropping dead entries never
  // changes the observable queue state (live events and their order),
  // only the lazy-deletion backlog.
  mutable std::vector<Entry> heap_;
  /// Cancelled/rescheduled entries still sitting in heap_.
  mutable std::size_t dead_ = 0;
  std::unordered_map<std::uint64_t, Callback> live_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace pmemflow::sim
