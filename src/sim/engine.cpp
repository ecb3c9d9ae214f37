#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace pmemflow::sim {

namespace detail {

void notify_root_finished(Engine& engine, std::coroutine_handle<> handle,
                          std::exception_ptr exception) {
  engine.root_finished(handle, exception);
}

}  // namespace detail

Engine::~Engine() {
  // Unfired callbacks may capture coroutine handles; drop them before
  // destroying any frames so nothing dangles.
  while (!queue_.empty()) {
    queue_.pop();
  }
  reclaim_finished_roots();
  // Stranded (suspended, never-finished) roots: the queue callbacks
  // just dropped may have held the only other handle, so without this
  // pass the frames — and everything they own — would leak.
  for (auto handle : live_root_frames_) {
    handle.destroy();
  }
}

EventId Engine::call_at(SimTime when, EventQueue::Callback callback) {
  PMEMFLOW_ASSERT_MSG(when >= now_, "cannot schedule into the past");
  return queue_.schedule(when, std::move(callback));
}

EventId Engine::call_at_slot(SimTime when, std::uint64_t sequence,
                             EventQueue::Callback callback) {
  PMEMFLOW_ASSERT_MSG(when >= now_, "cannot schedule into the past");
  return queue_.schedule_reserved(when, sequence, std::move(callback));
}

void Engine::defer(Deferrable& target) {
  drop_deferred(target);
  deferred_.push_back(Slot{&target, queue_.reserve_sequence()});
}

void Engine::drop_deferred(Deferrable& target) {
  std::erase_if(deferred_,
                [&target](const Slot& slot) { return slot.target == &target; });
}

void Engine::flush_due_slots() {
  while (!deferred_.empty() &&
         !queue_.has_event_before(now_, deferred_.front().sequence)) {
    const Slot slot = deferred_.front();
    deferred_.erase(deferred_.begin());
    slot.target->flush(slot.sequence);
  }
}

void Engine::schedule_resume(SimTime when, std::coroutine_handle<> handle) {
  PMEMFLOW_ASSERT(handle);
  PMEMFLOW_ASSERT_MSG(when >= now_, "cannot schedule into the past");
  queue_.schedule(when, [handle] { handle.resume(); });
}

void Engine::spawn(Task task) {
  PMEMFLOW_ASSERT_MSG(task.valid(), "cannot spawn an empty task");
  Task::Handle handle = task.release();
  handle.promise().owning_engine = this;
  live_root_frames_.push_back(handle);
  queue_.schedule(now_, [handle] { handle.resume(); });
}

void Engine::root_finished(std::coroutine_handle<> handle,
                           std::exception_ptr exception) {
  auto it = std::find(live_root_frames_.begin(), live_root_frames_.end(),
                      handle);
  PMEMFLOW_ASSERT_MSG(it != live_root_frames_.end(),
                      "finished root was never spawned");
  live_root_frames_.erase(it);
  // The frame is suspended at its final suspend point; defer destruction
  // until the engine is torn down or run()/run_until() returns, so
  // resuming code further up the stack never touches a freed frame.
  finished_roots_.push_back(handle);
  if (exception && !first_error_) {
    first_error_ = exception;
  }
}

void Engine::reclaim_finished_roots() {
  for (auto handle : finished_roots_) {
    handle.destroy();
  }
  finished_roots_.clear();
}

RunStats Engine::run() {
  RunStats stats;
  while (true) {
    flush_due_slots();
    if (queue_.empty()) break;
    auto [when, callback] = queue_.pop();
    PMEMFLOW_ASSERT(when >= now_);
    now_ = when;
    callback();
    ++stats.events_processed;
    if (first_error_) {
      std::exception_ptr error = std::exchange(first_error_, nullptr);
      std::rethrow_exception(error);
    }
  }
  stats.end_time = now_;
  stats.stranded_roots = live_root_frames_.size();
  if (stats.stranded_roots != 0) {
    std::fprintf(stderr,
                 "[pmemflow WARN ] simulation drained with %zu stranded root "
                 "task(s) (deadlock?)\n",
                 stats.stranded_roots);
  }
  // Frames finished during this run can be reclaimed now.
  reclaim_finished_roots();
  return stats;
}

RunStats Engine::run_until(SimTime deadline) {
  RunStats stats;
  while (true) {
    flush_due_slots();
    if (queue_.empty() || queue_.next_time() > deadline) break;
    auto [when, callback] = queue_.pop();
    PMEMFLOW_ASSERT(when >= now_);
    now_ = when;
    callback();
    ++stats.events_processed;
    if (first_error_) {
      std::exception_ptr error = std::exchange(first_error_, nullptr);
      std::rethrow_exception(error);
    }
  }
  stats.end_time = now_;
  stats.stranded_roots = live_root_frames_.size();
  // Roots that finished inside this slice are reclaimed here, exactly
  // like run(): a long horizon-stepped co-simulation would otherwise
  // accumulate every finished frame until teardown.
  reclaim_finished_roots();
  return stats;
}

RunStats Engine::run_to_completion() {
  RunStats stats = run();
  PMEMFLOW_ASSERT_MSG(stats.stranded_roots == 0,
                      "simulation deadlocked: stranded root tasks remain");
  return stats;
}

}  // namespace pmemflow::sim
