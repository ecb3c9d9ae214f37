// Deterministic discrete-event simulation engine.
//
// The engine advances a nanosecond-resolution clock through a time-ordered
// event queue and drives coroutine processes (sim::Task). Determinism:
// same inputs => same event order => bit-identical results, because ties
// are broken by insertion order and no wall-clock or OS entropy is used.
//
// Work that several events of one instant would each redo (a device
// re-solving its flow rates on every arrival) can be deferred to a
// reserved FIFO slot instead: it runs once, where the last deferral
// would have scheduled its follow-up event, and that event keeps the
// slot's place in the FIFO order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <vector>

#include "common/units.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace pmemflow::sim {

/// Statistics describing one Engine::run() invocation.
struct RunStats {
  std::uint64_t events_processed = 0;
  SimTime end_time = 0;
  /// Roots spawned but not finished when the queue drained. Nonzero
  /// means the simulation deadlocked (a process waits on a condition
  /// nobody will signal).
  std::size_t stranded_roots = 0;
};

/// Work deferred to a reserved FIFO slot of the current instant (see
/// Engine::defer).
class Deferrable {
 public:
  virtual ~Deferrable() = default;

  /// Runs the deferred work. An event the work schedules with
  /// Engine::call_at_slot(when, sequence, ...) orders as if it had been
  /// scheduled when the slot was reserved.
  virtual void flush(std::uint64_t sequence) = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `callback` after `delay`; returns a cancellable id.
  EventId call_after(SimDuration delay, EventQueue::Callback callback) {
    return queue_.schedule(now_ + delay, std::move(callback));
  }

  /// Schedules `callback` at absolute time `when` (must be >= now()).
  EventId call_at(SimTime when, EventQueue::Callback callback);

  /// Schedules `callback` at `when` (must be >= now()) in a slot that
  /// defer() reserved and passed to Deferrable::flush.
  EventId call_at_slot(SimTime when, std::uint64_t sequence,
                       EventQueue::Callback callback);

  /// Cancels a scheduled callback; returns false if already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Reserves a FIFO slot at now() for `target`: the sequence number the
  /// next scheduled event would have taken. Replaces any slot `target`
  /// already holds, so deferring again within one instant moves the work
  /// behind the events queued meanwhile. run() and run_until() call
  /// target.flush(sequence) before they pop any event that orders after
  /// the slot, and before they return on a drained queue; time never
  /// advances past a slot. A flush is not an event: RunStats does not
  /// count it.
  void defer(Deferrable& target);

  /// Drops `target`'s slot, if it holds one; its work does not run.
  void drop_deferred(Deferrable& target);

  /// Schedules `handle` to be resumed at time `when`.
  void schedule_resume(SimTime when, std::coroutine_handle<> handle);

  /// Takes ownership of `task` and starts it at the current time.
  void spawn(Task task);

  /// Runs until the event queue drains. Rethrows the first exception
  /// that escaped a root task. Returns run statistics; a nonzero
  /// `stranded_roots` indicates deadlock.
  RunStats run();

  /// Like run(), but asserts that no root was stranded.
  RunStats run_to_completion();

  /// Runs events up to and including time `deadline`, then stops (the
  /// clock rests at the last processed event's time, never beyond the
  /// deadline). Remaining events stay queued; call run()/run_until()
  /// again to continue. Useful for coarse co-simulation and inspection.
  RunStats run_until(SimTime deadline);

  /// Number of spawned roots that have not yet finished.
  [[nodiscard]] std::size_t live_roots() const noexcept {
    return live_root_frames_.size();
  }

 private:
  friend void detail::notify_root_finished(Engine&, std::coroutine_handle<>,
                                           std::exception_ptr);

  void root_finished(std::coroutine_handle<> handle,
                     std::exception_ptr exception);
  /// Destroys and forgets every frame in finished_roots_.
  void reclaim_finished_roots();
  /// Flushes every deferred slot that orders before the earliest live
  /// event (all of them on an empty queue).
  void flush_due_slots();

  SimTime now_ = 0;
  EventQueue queue_;
  /// Frames of spawned-but-unfinished roots. The engine owns detached
  /// frames, so it must keep a handle to each: a stranded (deadlocked)
  /// root's only other handle may sit inside a dropped queue callback,
  /// and the destructor still has to destroy the frame.
  std::vector<std::coroutine_handle<>> live_root_frames_;
  std::vector<std::coroutine_handle<>> finished_roots_;
  std::exception_ptr first_error_;
  struct Slot {
    Deferrable* target;
    std::uint64_t sequence;
  };
  /// Reserved slots, in sequence order. All lie at now_: the clock only
  /// moves once every slot has been flushed.
  std::vector<Slot> deferred_;
};

/// Awaitable: suspends the current task for `delay` simulated time.
/// Usage: `co_await sleep_for(engine, 10 * kMicrosecond);`
struct SleepAwaiter {
  Engine& engine;
  SimDuration delay;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) const {
    engine.schedule_resume(engine.now() + delay, handle);
  }
  void await_resume() const noexcept {}
};

inline SleepAwaiter sleep_for(Engine& engine, SimDuration delay) {
  return SleepAwaiter{engine, delay};
}

/// Awaitable: yields to other events scheduled at the current time.
inline SleepAwaiter yield_now(Engine& engine) {
  return SleepAwaiter{engine, 0};
}

}  // namespace pmemflow::sim
