#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace pmemflow::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(30, [&] { fired.push_back(3); });
  queue.schedule(10, [&] { fired.push_back(1); });
  queue.schedule(20, [&] { fired.push_back(2); });

  while (!queue.empty()) {
    auto [when, cb] = queue.pop();
    (void)when;
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    queue.pop().second();
  }
  ASSERT_EQ(fired.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, ReportsNextTime) {
  EventQueue queue;
  queue.schedule(42, [] {});
  queue.schedule(7, [] {});
  EXPECT_EQ(queue.next_time(), 7u);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.schedule(10, [&] { fired = true; });
  queue.schedule(20, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 1u);

  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 20u);
  cb();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue queue;
  const EventId id = queue.schedule(10, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue queue;
  const EventId id = queue.schedule(10, [] {});
  queue.pop().second();
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue queue;
  const EventId early = queue.schedule(1, [] {});
  queue.schedule(2, [] {});
  queue.cancel(early);
  EXPECT_EQ(queue.next_time(), 2u);
  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 2u);
  cb();
}

TEST(EventQueue, CancelThenNextTimeThroughConstRef) {
  // Regression: next_time() used to const_cast itself to shed cancelled
  // heap entries. The lazy-deletion scan is now genuinely const (the
  // heap is mutable); calling through a const reference must skip every
  // cancelled prefix entry and report the earliest *live* event.
  EventQueue queue;
  const EventId first = queue.schedule(1, [] {});
  const EventId second = queue.schedule(2, [] {});
  queue.schedule(3, [] {});
  EXPECT_TRUE(queue.cancel(first));
  EXPECT_TRUE(queue.cancel(second));

  const EventQueue& view = queue;
  EXPECT_EQ(view.next_time(), 3u);
  EXPECT_EQ(view.size(), 1u);
  // The answer is stable on repeated const calls and agrees with pop().
  EXPECT_EQ(view.next_time(), 3u);
  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 3u);
  cb();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue queue;
  std::vector<SimTime> fire_times;
  // Insert times in a scrambled deterministic pattern.
  for (SimTime t = 0; t < 1000; ++t) {
    const SimTime when = (t * 7919) % 1000;
    queue.schedule(when, [&fire_times, when] { fire_times.push_back(when); });
  }
  while (!queue.empty()) {
    queue.pop().second();
  }
  ASSERT_EQ(fire_times.size(), 1000u);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_LE(fire_times[i - 1], fire_times[i]);
  }
}

TEST(EventQueue, ReservedSequenceFiresAtItsFifoRank) {
  // Scheduled late under a reserved sequence, an event fires among
  // same-time events where it would have fired if scheduled when the
  // sequence was reserved.
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(5, [&] { fired.push_back(1); });
  const std::uint64_t slot = queue.reserve_sequence();
  queue.schedule(5, [&] { fired.push_back(3); });
  queue.schedule(4, [&] { fired.push_back(0); });
  queue.schedule_reserved(5, slot, [&] { fired.push_back(2); });
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, UnusedReservationMovesNoEvent) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(5, [&] { fired.push_back(1); });
  (void)queue.reserve_sequence();
  queue.schedule(5, [&] { fired.push_back(2); });
  queue.schedule(3, [&] { fired.push_back(0); });
  EXPECT_EQ(queue.size(), 3u);
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, HasEventBeforeOrdersByTimeThenSequence) {
  EventQueue queue;
  EXPECT_FALSE(queue.has_event_before(100, 0));  // empty queue
  const std::uint64_t earlier = queue.reserve_sequence();
  const EventId id = queue.schedule(10, [] {});
  const std::uint64_t later = queue.reserve_sequence();
  EXPECT_TRUE(queue.has_event_before(11, earlier));
  EXPECT_TRUE(queue.has_event_before(10, later));
  EXPECT_FALSE(queue.has_event_before(10, earlier));
  EXPECT_FALSE(queue.has_event_before(9, later));
  ASSERT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.has_event_before(11, later));  // dead head skipped
}

TEST(EventQueue, RescheduleMovesEventToNewTime) {
  EventQueue queue;
  std::vector<int> fired;
  const EventId id = queue.schedule(10, [&] { fired.push_back(1); });
  queue.schedule(20, [&] { fired.push_back(2); });

  const EventId moved = queue.reschedule(id, 30);
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(queue.size(), 2u);

  std::vector<SimTime> times;
  while (!queue.empty()) {
    auto [when, cb] = queue.pop();
    times.push_back(when);
    cb();
  }
  // Fires exactly once, at the new time, after the untouched event.
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
  EXPECT_EQ(times, (std::vector<SimTime>{20, 30}));
}

TEST(EventQueue, RescheduleCanMoveEarlier) {
  EventQueue queue;
  std::vector<int> fired;
  const EventId id = queue.schedule(30, [&] { fired.push_back(1); });
  queue.schedule(20, [&] { fired.push_back(2); });
  ASSERT_TRUE(queue.reschedule(id, 5).valid());
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleOrdersAsFreshlyScheduled) {
  // Moving an event onto an occupied timestamp puts it behind events
  // already queued there — the FIFO determinism contract.
  EventQueue queue;
  std::vector<int> fired;
  const EventId id = queue.schedule(5, [&] { fired.push_back(1); });
  queue.schedule(10, [&] { fired.push_back(2); });
  ASSERT_TRUE(queue.reschedule(id, 10).valid());
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleInvalidatesTheOldId) {
  EventQueue queue;
  const EventId id = queue.schedule(10, [] {});
  const EventId moved = queue.reschedule(id, 20);
  ASSERT_TRUE(moved.valid());
  EXPECT_FALSE(queue.cancel(id));    // old handle is dead
  EXPECT_TRUE(queue.cancel(moved));  // new handle controls the event
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RescheduleDeadEventReturnsInvalid) {
  EventQueue queue;
  const EventId cancelled = queue.schedule(10, [] {});
  ASSERT_TRUE(queue.cancel(cancelled));
  EXPECT_FALSE(queue.reschedule(cancelled, 20).valid());

  int fires = 0;
  const EventId fired = queue.schedule(5, [&] { ++fires; });
  queue.pop().second();
  EXPECT_FALSE(queue.reschedule(fired, 20).valid());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RescheduleChurnKeepsHeapBounded) {
  // Regression: lazy deletion never compacted, so a single event
  // rescheduled N times left N dead entries in the heap (FlowResource
  // does exactly this with its pending-completion event on every flow
  // add/complete). The heap must stay O(live), not O(total churn).
  EventQueue queue;
  EventId id = queue.schedule(1, [] {});
  for (SimTime t = 2; t <= 10000; ++t) {
    id = queue.reschedule(id, t);
    ASSERT_TRUE(id.valid());
  }
  EXPECT_EQ(queue.size(), 1u);
  // One live event: compaction triggers whenever dead entries exceed
  // live ones past the rebuild floor, so the heap never exceeds it.
  EXPECT_LE(queue.heap_size(), 64u);

  auto [when, cb] = queue.pop();
  EXPECT_EQ(when, 10000u);
  cb();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.heap_size(), 0u);
}

TEST(EventQueue, CancelChurnKeepsHeapBounded) {
  EventQueue queue;
  std::vector<int> fired;
  // A stable population of 100 live events, with 10k schedule+cancel
  // churn on top.
  std::vector<EventId> live;
  for (int i = 0; i < 100; ++i) {
    live.push_back(
        queue.schedule(static_cast<SimTime>(1000000 + i), [&fired, i] {
          fired.push_back(i);
        }));
  }
  for (int i = 0; i < 10000; ++i) {
    const EventId id = queue.schedule(static_cast<SimTime>(i), [] {});
    EXPECT_TRUE(queue.cancel(id));
  }
  EXPECT_EQ(queue.size(), 100u);
  // Dead entries can never exceed max(live, floor) after a mutation.
  EXPECT_LE(queue.heap_size(), 200u + 64u);

  while (!queue.empty()) queue.pop().second();
  ASSERT_EQ(fired.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, CompactionPreservesOrderingAndLiveEvents) {
  // Interleave schedules, cancels, and reschedules so several
  // compactions fire mid-stream, then verify the surviving events pop
  // in exactly (time, insertion) order.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      const int tag = round * 20 + i;
      ids.push_back(queue.schedule(
          static_cast<SimTime>((tag * 7919) % 500 + 1000),
          [&fired, tag] { fired.push_back(tag); }));
    }
    // Kill three quarters of this round's events; reschedule one.
    for (int i = 0; i < 20; ++i) {
      const std::size_t at = ids.size() - 20 + static_cast<std::size_t>(i);
      if (i % 4 != 0) {
        EXPECT_TRUE(queue.cancel(ids[at]));
      } else if (i == 0) {
        ids[at] = queue.reschedule(ids[at], 2000);
        ASSERT_TRUE(ids[at].valid());
      }
    }
  }
  EXPECT_EQ(queue.size(), 250u);  // 5 survivors per round
  EXPECT_LE(queue.heap_size(), 2 * 250u + 64u);

  SimTime last = 0;
  std::size_t popped = 0;
  while (!queue.empty()) {
    auto [when, cb] = queue.pop();
    EXPECT_GE(when, last);
    last = when;
    cb();
    ++popped;
  }
  EXPECT_EQ(popped, 250u);
  EXPECT_EQ(fired.size(), 250u);
}

TEST(EventQueueDeathTest, PopOnEmptyAborts) {
  EventQueue queue;
  EXPECT_DEATH((void)queue.pop(), "empty");
}

}  // namespace
}  // namespace pmemflow::sim
