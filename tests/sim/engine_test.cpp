#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/task.hpp"

namespace pmemflow::sim {
namespace {

TEST(Engine, ClockStartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0u);
}

TEST(Engine, CallbacksAdvanceClock) {
  Engine engine;
  std::vector<SimTime> seen;
  engine.call_after(100, [&] { seen.push_back(engine.now()); });
  engine.call_after(50, [&] { seen.push_back(engine.now()); });
  const RunStats stats = engine.run_to_completion();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(stats.events_processed, 2u);
  EXPECT_EQ(stats.end_time, 100u);
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  std::vector<SimTime> seen;
  engine.call_after(10, [&] {
    seen.push_back(engine.now());
    engine.call_after(5, [&] { seen.push_back(engine.now()); });
  });
  engine.run_to_completion();
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 15}));
}

TEST(Engine, CancelledCallbackDoesNotFire) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.call_after(10, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run_to_completion();
  EXPECT_FALSE(fired);
}

Task simple_process(Engine& engine, std::vector<SimTime>& trace) {
  trace.push_back(engine.now());
  co_await sleep_for(engine, 100);
  trace.push_back(engine.now());
  co_await sleep_for(engine, 50);
  trace.push_back(engine.now());
}

TEST(Engine, TaskSleepsAdvanceTime) {
  Engine engine;
  std::vector<SimTime> trace;
  engine.spawn(simple_process(engine, trace));
  engine.run_to_completion();
  EXPECT_EQ(trace, (std::vector<SimTime>{0, 100, 150}));
  EXPECT_EQ(engine.live_roots(), 0u);
}

TEST(Engine, TwoTasksInterleaveDeterministically) {
  Engine engine;
  std::vector<std::pair<int, SimTime>> trace;
  auto make = [&](int id, SimDuration step) -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await sleep_for(engine, step);
      trace.emplace_back(id, engine.now());
    }
  };
  engine.spawn(make(1, 10));
  engine.spawn(make(2, 15));
  engine.run_to_completion();
  // At t=30 both wake; task 2's resume was scheduled first (at t=15,
  // vs t=20 for task 1), so FIFO tie-breaking runs it first.
  const std::vector<std::pair<int, SimTime>> expected{
      {1, 10}, {2, 15}, {1, 20}, {2, 30}, {1, 30}, {2, 45}};
  EXPECT_EQ(trace, expected);
}

Task parent_task(Engine& engine, std::vector<int>& trace) {
  auto child = [](Engine& eng, std::vector<int>& tr) -> Task {
    tr.push_back(1);
    co_await sleep_for(eng, 10);
    tr.push_back(2);
  };
  trace.push_back(0);
  co_await child(engine, trace);
  trace.push_back(3);
}

TEST(Engine, ChildTaskCompletesBeforeParentContinues) {
  Engine engine;
  std::vector<int> trace;
  engine.spawn(parent_task(engine, trace));
  engine.run_to_completion();
  EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3}));
}

Task throwing_child(Engine& engine) {
  co_await sleep_for(engine, 5);
  throw std::runtime_error("child failed");
}

Task catching_parent(Engine& engine, bool& caught) {
  try {
    co_await throwing_child(engine);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Engine, ChildExceptionPropagatesToParent) {
  Engine engine;
  bool caught = false;
  engine.spawn(catching_parent(engine, caught));
  engine.run_to_completion();
  EXPECT_TRUE(caught);
}

TEST(Engine, RootExceptionRethrownFromRun) {
  Engine engine;
  engine.spawn(throwing_child(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

// An awaiter that suspends and never resumes, for deadlock detection.
struct NeverAwaiter {
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

Task stuck_task() {
  co_await NeverAwaiter{};
}

TEST(Engine, StrandedRootReportedAsDeadlock) {
  Engine engine;
  engine.spawn(stuck_task());
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.stranded_roots, 1u);
  EXPECT_EQ(engine.live_roots(), 1u);
}

TEST(Engine, YieldNowKeepsTimeConstant) {
  Engine engine;
  std::vector<SimTime> trace;
  auto task = [&]() -> Task {
    trace.push_back(engine.now());
    co_await yield_now(engine);
    trace.push_back(engine.now());
  };
  engine.spawn(task());
  engine.run_to_completion();
  EXPECT_EQ(trace, (std::vector<SimTime>{0, 0}));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  std::vector<SimTime> fired;
  for (SimTime t : {10u, 20u, 30u, 40u}) {
    engine.call_at(t, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  const RunStats first = engine.run_until(25);
  EXPECT_EQ(first.events_processed, 2u);
  EXPECT_EQ(engine.now(), 20u);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));

  const RunStats rest = engine.run_to_completion();
  EXPECT_EQ(rest.events_processed, 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Engine, RunUntilInclusiveOfDeadline) {
  Engine engine;
  int fired = 0;
  engine.call_at(50, [&] { ++fired; });
  (void)engine.run_until(50);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RunUntilOnEmptyQueueIsNoop) {
  Engine engine;
  const RunStats stats = engine.run_until(100);
  EXPECT_EQ(stats.events_processed, 0u);
  EXPECT_EQ(engine.now(), 0u);
}

/// Deferred work that logs its flush and, like FlowResource, schedules
/// a follow-up event `delay` later in its slot.
class LoggingTarget : public Deferrable {
 public:
  LoggingTarget(Engine& engine, std::vector<std::string>& log,
                SimDuration delay)
      : engine_(engine), log_(log), delay_(delay) {}

  void flush(std::uint64_t sequence) override {
    log_.push_back("flush@" + std::to_string(engine_.now()));
    engine_.call_at_slot(engine_.now() + delay_, sequence, [this] {
      log_.push_back("follow-up@" + std::to_string(engine_.now()));
    });
  }

 private:
  Engine& engine_;
  std::vector<std::string>& log_;
  SimDuration delay_;
};

TEST(Engine, DeferredWorkRunsAtItsSlotBeforeTimeAdvances) {
  Engine engine;
  std::vector<std::string> log;
  LoggingTarget target(engine, log, 0);
  engine.call_at(0, [&] {
    log.push_back("a");
    engine.defer(target);
    engine.call_at(0, [&] { log.push_back("c"); });  // orders after the slot
  });
  engine.call_at(0, [&] { log.push_back("b"); });  // orders before it
  engine.call_at(10, [&] { log.push_back("d@10"); });
  const RunStats stats = engine.run_to_completion();

  // The zero-delay follow-up takes the slot's FIFO rank, ahead of c.
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "flush@0",
                                           "follow-up@0", "c", "d@10"}));
  // a, b, c, d and the follow-up; the flush itself is not an event.
  EXPECT_EQ(stats.events_processed, 5u);
}

TEST(Engine, RedeferMovesTheSlotBehindEventsQueuedMeanwhile) {
  Engine engine;
  std::vector<std::string> log;
  LoggingTarget target(engine, log, 0);
  engine.call_at(0, [&] {
    log.push_back("a");
    engine.defer(target);
    engine.call_at(0, [&] { log.push_back("c"); });
  });
  engine.call_at(0, [&] {
    log.push_back("b");
    engine.defer(target);  // replaces a's slot, now behind c
    engine.call_at(0, [&] { log.push_back("e"); });
  });
  engine.run_to_completion();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c", "flush@0",
                                           "follow-up@0", "e"}));
}

TEST(Engine, DroppedSlotDoesNotRun) {
  Engine engine;
  std::vector<std::string> log;
  LoggingTarget target(engine, log, 0);
  engine.call_at(0, [&] { engine.defer(target); });
  engine.call_at(0, [&] { engine.drop_deferred(target); });
  engine.run_to_completion();
  EXPECT_TRUE(log.empty());
}

TEST(Engine, RunUntilLeavesNothingDeferred) {
  Engine engine;
  std::vector<std::string> log;
  LoggingTarget due(engine, log, 0);
  LoggingTarget late(engine, log, 10);
  engine.call_at(5, [&] {
    engine.defer(due);
    engine.defer(late);
  });
  const RunStats stats = engine.run_until(10);
  // Both slots flushed; the follow-up due at 5 ran, the one at 15 waits.
  EXPECT_EQ(log, (std::vector<std::string>{"flush@5", "follow-up@5",
                                           "flush@5"}));
  EXPECT_EQ(stats.events_processed, 2u);
  EXPECT_EQ(engine.now(), 5u);

  (void)engine.run_to_completion();
  EXPECT_EQ(log.back(), "follow-up@15");
}

/// Frame-lifetime observer: lives inside a coroutine frame, so the
/// counter drops exactly when the frame is destroyed.
class FrameProbe {
 public:
  explicit FrameProbe(int& alive) : alive_(&alive) { ++*alive_; }
  FrameProbe(const FrameProbe&) = delete;
  FrameProbe& operator=(const FrameProbe&) = delete;
  ~FrameProbe() { --*alive_; }

 private:
  int* alive_;
};

TEST(Engine, RunUntilReclaimsFinishedFrames) {
  // Regression: run_until() never reclaimed finished_roots_, so a long
  // horizon-stepped run accumulated every finished coroutine frame
  // until engine teardown.
  Engine engine;
  int alive = 0;
  auto worker = [&](SimDuration d) -> Task {
    FrameProbe probe(alive);
    co_await sleep_for(engine, d);
  };
  for (int i = 0; i < 200; ++i) {
    engine.spawn(worker(static_cast<SimDuration>(i % 50 + 1)));
  }
  EXPECT_EQ(alive, 0);  // frames only start inside the event loop
  (void)engine.run_until(25);
  // Every root that finished inside the slice must be destroyed at
  // run_until() return, not parked until teardown.
  EXPECT_EQ(alive, static_cast<int>(engine.live_roots()));
  EXPECT_LT(engine.live_roots(), 200u);
  (void)engine.run_until(1000);
  EXPECT_EQ(alive, 0);
  EXPECT_EQ(engine.live_roots(), 0u);
}

TEST(Engine, ManyRunUntilCyclesDoNotAccumulateFrames) {
  Engine engine;
  int alive = 0;
  int completed = 0;
  auto worker = [&](SimTime start) -> Task {
    FrameProbe probe(alive);
    co_await sleep_for(engine, start);
    ++completed;
  };
  for (int i = 0; i < 500; ++i) {
    engine.spawn(worker(static_cast<SimTime>(i + 1)));
  }
  for (SimTime horizon = 50; horizon <= 500; horizon += 50) {
    (void)engine.run_until(horizon);
    // At most the not-yet-finished roots hold frames.
    EXPECT_LE(alive, 500 - completed);
    EXPECT_EQ(alive, static_cast<int>(engine.live_roots()));
  }
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(alive, 0);
}

TEST(Engine, StrandedRootFrameDestroyedAtTeardown) {
  // Regression: ~Engine dropped the queued callbacks that held the only
  // handles to stranded (suspended, never-finished) roots, leaking the
  // frames — LeakSanitizer-visible under deadlock tests.
  int alive = 0;
  {
    Engine engine;
    auto stuck = [&]() -> Task {
      FrameProbe probe(alive);
      co_await NeverAwaiter{};
    };
    engine.spawn(stuck());
    const RunStats stats = engine.run();
    EXPECT_EQ(stats.stranded_roots, 1u);
    EXPECT_EQ(alive, 1);  // frame still live while the engine exists
  }
  EXPECT_EQ(alive, 0);  // teardown destroyed the stranded frame
}

TEST(Engine, NeverStartedRootDestroyedAtTeardown) {
  // A root spawned but never run: its only handle sits in the start
  // callback still queued at teardown.
  int alive = 0;
  {
    Engine engine;
    auto worker = [&]() -> Task {
      FrameProbe probe(alive);
      co_return;
    };
    engine.spawn(worker());
    // Never run: the frame was created by the coroutine call itself.
    EXPECT_EQ(engine.live_roots(), 1u);
  }
  EXPECT_EQ(alive, 0);
}

TEST(Engine, StrandedRootOwningChildDestroysBothAtTeardown) {
  int alive_parents = 0;
  int alive_children = 0;
  {
    Engine engine;
    auto child = [&]() -> Task {
      FrameProbe probe(alive_children);
      co_await NeverAwaiter{};
    };
    auto parent = [&]() -> Task {
      FrameProbe probe(alive_parents);
      co_await child();
    };
    engine.spawn(parent());
    (void)engine.run();
    EXPECT_EQ(alive_parents, 1);
    EXPECT_EQ(alive_children, 1);
  }
  // Destroying the stranded parent frame destroys the awaited child it
  // owns.
  EXPECT_EQ(alive_parents, 0);
  EXPECT_EQ(alive_children, 0);
}

TEST(Engine, ManySequentialRootsReuseEngine) {
  Engine engine;
  int completed = 0;
  auto worker = [&](SimDuration d) -> Task {
    co_await sleep_for(engine, d);
    ++completed;
  };
  for (int i = 0; i < 100; ++i) {
    engine.spawn(worker(static_cast<SimDuration>(i + 1)));
  }
  engine.run_to_completion();
  EXPECT_EQ(completed, 100);
}

}  // namespace
}  // namespace pmemflow::sim
