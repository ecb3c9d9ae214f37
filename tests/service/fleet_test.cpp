#include "service/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace pmemflow::service {
namespace {

RunningTask task_with_work(SimDuration work_ns) {
  RunningTask task;
  task.remaining_ns = work_ns;
  return task;
}

TEST(InterferenceScaled, ExactAtFactorOne) {
  // Factor 1.0 must stay on the integer path: no double round-trip, no
  // off-by-one from ceil.
  EXPECT_EQ(interference_scaled(0, 1.0), 0u);
  EXPECT_EQ(interference_scaled(1, 1.0), 1u);
  EXPECT_EQ(interference_scaled(999'999'999'999ull, 1.0),
            999'999'999'999ull);
}

TEST(InterferenceScaled, CeilsAboveOne) {
  EXPECT_EQ(interference_scaled(101, 1.5), 152u);  // ceil(151.5)
  EXPECT_EQ(interference_scaled(100, 2.0), 200u);
}

TEST(InterferenceScaled, SubUnityFactorsClampToSoloTime) {
  // Interference never speeds work up.
  EXPECT_EQ(interference_scaled(100, 0.5), 100u);
}

TEST(FleetDeathTest, ZeroNodesAborts) {
  EXPECT_DEATH(Fleet(0), "at least one node");
}

TEST(Fleet, EarliestFreeOnFreshFleetIsNow) {
  Fleet fleet(3);
  EXPECT_EQ(fleet.earliest_free_ns(), 0u);
  EXPECT_TRUE(fleet.has_idle_node(0));
}

TEST(Fleet, EarliestNodeFreeWaitsForEverySlotOfANode) {
  // Under co-location the free slot beside node 0's tenant is free now,
  // but no node is whole before node 0's tenant finishes.
  Fleet packed(2, 2);
  packed.start(SlotRef{0, 0}, 0, 100, task_with_work(100));
  packed.start(SlotRef{1, 0}, 0, 300, task_with_work(300));
  packed.start(SlotRef{1, 1}, 0, 200, task_with_work(200));
  EXPECT_EQ(packed.earliest_free_ns(), 0u);
  EXPECT_EQ(packed.earliest_node_free_ns(), 100u);

  // With one tenant per node the two queries agree.
  Fleet solo(2);
  solo.start(SlotRef{0, 0}, 0, 100, task_with_work(100));
  solo.start(SlotRef{1, 0}, 0, 50, task_with_work(50));
  EXPECT_EQ(solo.earliest_node_free_ns(), 50u);
  EXPECT_EQ(solo.earliest_free_ns(), 50u);
}

TEST(Fleet, UtilizationClampsDrainPastHorizon) {
  // Regression: busy time extending past the horizon (e.g. a checkpoint
  // drain scheduled beyond the last completion) used to push
  // utilization above 1.0.
  Fleet fleet(1);
  fleet.start(SlotRef{0, 0}, 0, 150, task_with_work(150));
  // Horizon ends mid-run: only the in-horizon 100 of the 150 busy ns
  // count, so utilization is exactly 1.0, not 1.5.
  EXPECT_DOUBLE_EQ(fleet.utilization(0, 100), 1.0);
  // A horizon past the finish sees the full busy time.
  EXPECT_DOUBLE_EQ(fleet.utilization(0, 200), 0.75);
}

TEST(Fleet, RetimeSettlesWorkAtTheOldRateFirst) {
  Fleet fleet(1, 2);
  const SlotRef ref{0, 0};
  fleet.start(ref, 0, 100, task_with_work(100));

  // 10 ns at solo rate -> 10 work done, 90 owed; doubling the factor
  // re-times the finish to 10 + 90*2.
  EXPECT_EQ(fleet.retime(ref, 10, 2.0), 190u);
  EXPECT_EQ(fleet.remaining_work_at(ref, 10), 90u);

  // 40 ns at factor 2.0 -> 20 more work done; relaxing back to solo
  // re-times to 50 + 70.
  EXPECT_EQ(fleet.remaining_work_at(ref, 30), 80u);
  EXPECT_EQ(fleet.retime(ref, 50, 1.0), 120u);
  EXPECT_EQ(fleet.remaining_work_at(ref, 50), 70u);

  const RunningTask* task = fleet.running(ref);
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->record.work_executed_ns, 30u);
}

TEST(Fleet, SegmentOverheadIsConsumedBeforeWork) {
  // A resumed task pays restore overhead first; wall time inside the
  // overhead window converts to zero work.
  Fleet fleet(1, 2);
  const SlotRef ref{0, 0};
  RunningTask task = task_with_work(100);
  task.segment_overhead_ns = 20;
  fleet.start(ref, 0, 120, std::move(task));

  EXPECT_EQ(fleet.remaining_work_at(ref, 10), 100u);  // still restoring
  EXPECT_EQ(fleet.remaining_work_at(ref, 50), 70u);   // 30 past restore
}

TEST(Fleet, PackSlotRequiresExactlyOneRunningTenant) {
  Fleet fleet(2, 2);
  // Empty node: nothing to pack next to (solo placement handles it).
  EXPECT_FALSE(fleet.pack_slot(0, 0).has_value());
  EXPECT_FALSE(fleet.sole_tenant_slot(0).has_value());

  fleet.start(SlotRef{0, 0}, 0, 100, task_with_work(100));
  ASSERT_TRUE(fleet.sole_tenant_slot(0).has_value());
  EXPECT_EQ(*fleet.sole_tenant_slot(0), 0u);
  ASSERT_TRUE(fleet.pack_slot(0, 10).has_value());
  EXPECT_EQ(*fleet.pack_slot(0, 10), 1u);

  // Fully packed: no third tenant.
  fleet.start(SlotRef{0, 1}, 10, 100, task_with_work(100));
  EXPECT_FALSE(fleet.pack_slot(0, 20).has_value());
  EXPECT_FALSE(fleet.sole_tenant_slot(0).has_value());
}

TEST(Fleet, DrainingSlotBlocksPacking) {
  // A slot still streaming a checkpoint keeps the node's device busy;
  // the survivor is sole tenant but nothing may pack until the drain
  // completes.
  Fleet fleet(1, 2);
  fleet.start(SlotRef{0, 0}, 0, 100, task_with_work(100));
  fleet.start(SlotRef{0, 1}, 0, 100, task_with_work(100));
  (void)fleet.preempt(SlotRef{0, 1}, 10, /*checkpoint_ns=*/30);

  ASSERT_TRUE(fleet.sole_tenant_slot(0).has_value());
  EXPECT_FALSE(fleet.pack_slot(0, 20).has_value());  // drain until 40
  EXPECT_TRUE(fleet.pack_slot(0, 40).has_value());
}

TEST(Fleet, PreemptReturnsSettledRemainingWork) {
  Fleet fleet(1);
  const SlotRef ref{0, 0};
  fleet.start(ref, 0, 100, task_with_work(100));

  RunningTask task = fleet.preempt(ref, 40, /*checkpoint_ns=*/25);
  EXPECT_EQ(task.remaining_ns, 60u);
  EXPECT_EQ(task.record.work_executed_ns, 40u);
  EXPECT_EQ(task.record.preemptions, 1u);
  EXPECT_EQ(task.record.checkpoint_ns, 25u);
  EXPECT_DOUBLE_EQ(task.interference, 1.0);
  // The slot stays busy for the drain, then frees.
  EXPECT_EQ(fleet.node(0).slots[0].free_at_ns, 65u);
  EXPECT_FALSE(fleet.has_idle_node(50));
  EXPECT_TRUE(fleet.has_idle_node(65));
}

TEST(FleetIdleIndex, MatchesLinearScanUnderChurn) {
  // The idle index must agree with an O(nodes) linear scan after any
  // interleaving of start/complete/preempt, in both orders the planner
  // reads (by index, and by accumulated busy time then index) —
  // including mid-drain nodes, which stay indexed but are filtered at
  // query time.
  Fleet fleet(7, 2);
  std::uint64_t rng = 0x1D1E5EEDull;
  auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };
  SimTime now = 0;
  std::vector<SlotRef> running;
  std::vector<std::uint32_t> indexed;
  auto check = [&](SimTime at) {
    std::vector<std::uint32_t> by_index;
    for (std::uint32_t i = 0; i < fleet.size(); ++i) {
      const auto& slots = fleet.node(i).slots;
      if (std::all_of(slots.begin(), slots.end(), [at](const SlotState& s) {
            return s.free_at_ns <= at && !s.running.has_value();
          })) {
        by_index.push_back(i);
      }
    }
    std::vector<std::uint32_t> by_load = by_index;
    std::stable_sort(by_load.begin(), by_load.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return fleet.node(a).busy_ns < fleet.node(b).busy_ns;
                     });
    fleet.idle_nodes(at, indexed);
    EXPECT_EQ(indexed, by_index);
    fleet.idle_nodes_by_load(at, indexed);
    EXPECT_EQ(indexed, by_load);
    EXPECT_EQ(fleet.has_idle_node(at), !by_index.empty());
  };
  for (int step = 0; step < 2000; ++step) {
    now += next(50);
    const std::uint64_t op = next(3);
    if (op == 0 || running.empty()) {
      const auto node = static_cast<std::uint32_t>(next(fleet.size()));
      for (std::uint32_t s = 0; s < fleet.tenants_per_node(); ++s) {
        const SlotState& state = fleet.node(node).slots[s];
        if (!state.running.has_value() && state.free_at_ns <= now) {
          const SimDuration busy = 20 + next(200);
          fleet.start(SlotRef{node, s}, now, busy, task_with_work(busy));
          running.push_back(SlotRef{node, s});
          break;
        }
      }
    } else {
      const std::uint64_t pick = next(running.size());
      const SlotRef ref = running[pick];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      const SimTime free_at = fleet.node(ref.node).slots[ref.slot].free_at_ns;
      if (op == 1 || free_at <= now) {
        (void)fleet.complete(ref);
      } else {
        // Preempt strictly inside the occupancy window; the drain keeps
        // the slot busy, exercising the drained-but-indexed state.
        (void)fleet.preempt(ref, now, /*checkpoint_ns=*/next(40));
      }
    }
    check(now);
    check(now + 25);
  }
}

TEST(Fleet, BusyAccountingSurvivesRetime) {
  // Node busy time must track the re-timed occupancy, not the original
  // estimate: stretch a task, let it finish, and the horizon-long
  // utilization is the stretched wall time.
  Fleet fleet(1, 2);
  const SlotRef ref{0, 0};
  fleet.start(ref, 0, 100, task_with_work(100));
  (void)fleet.retime(ref, 0, 2.0);  // finish at 200
  (void)fleet.complete(ref);
  // 200 busy ns over a 200 ns horizon across 2 slots.
  EXPECT_DOUBLE_EQ(fleet.utilization(0, 200), 0.5);
}

}  // namespace
}  // namespace pmemflow::service
