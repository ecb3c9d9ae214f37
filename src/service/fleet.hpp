// Simulated fleet of dual-socket Optane nodes + placement policies.
//
// Each node is one instance of the paper's testbed: a dual-socket
// machine. Under the one-tenant policies an in situ workflow fully
// occupies both sockets (writer ranks on one, reader ranks on the
// other — core/config.hpp) and a node runs workflows back-to-back; the
// fleet-level question is *which node* gets the next workflow and
// *under which Table I configuration* it runs — the two decisions a
// PlacementPolicy couples:
//
//   kFirstFit          — lowest-index idle node, fixed configuration;
//   kLeastLoaded       — idle node with the least accumulated busy
//                        time, fixed configuration;
//   kRecommenderAware  — least-loaded placement + per-workflow Table II
//                        configuration from the recommendation cache;
//   kColocationAware   — least-loaded for empty nodes, and additionally
//                        *packs* a second, compatible workflow onto a
//                        node already running one (paper §II-A
//                        multi-tenancy): writer/reader sockets are
//                        mirrored between the two tenants and each pays
//                        a measured interference slowdown
//                        (service/colocation.hpp).
//
// Node occupancy is therefore not a boolean: a node exposes
// `tenants_per_node` slots (1 for the classic policies, 2 for
// co-location), and every placement, preemption, and completion path
// addresses a (node, slot) pair. A running task carries an
// *interference factor*: while co-located it executes 1/factor units of
// solo work per simulated nanosecond, and when a co-tenant arrives or
// departs the scheduler settles the work done so far at the old rate
// and re-times the finish at the new one (retime()).
//
// Under PreemptionPolicy::kCheckpointRestore slots are additionally
// *preemptible*: the scheduler may checkpoint a lower-priority task off
// its slot (preempt()), re-queue it, and later resume it — on any node
// — with its remaining solo work intact.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "capacity/residency.hpp"
#include "common/units.hpp"
#include "service/metrics.hpp"
#include "sim/event_queue.hpp"

namespace pmemflow::service {

enum class PlacementPolicy : std::uint8_t {
  kFirstFit,
  kLeastLoaded,
  kRecommenderAware,
  kColocationAware,
  /// Least-loaded placement that additionally respects per-socket PMEM
  /// capacity pools: a node must fit the workflow's byte lease on the
  /// channel socket — spilling to the node's other socket, or evicting
  /// cold finished-channel versions, before deferring admission.
  /// Requires ServiceConfig::capacity to be enabled; behaves exactly
  /// like kLeastLoaded otherwise.
  kCapacityAware,
  /// Least-loaded placement that runs DAG submissions under their
  /// fusion plan (dag::plan_fusion): producer→consumer stages co-locate
  /// on one socket when that minimizes the Table II edge cost, making
  /// the edge between them ephemeral. Pair submissions place exactly
  /// like kLeastLoaded.
  kDagFusion,
};

[[nodiscard]] const char* to_string(PlacementPolicy policy) noexcept;

/// Wall-clock time `work` of solo work takes under an interference
/// factor (>= 1.0): ceil(work × factor), exact for factor 1.0.
[[nodiscard]] SimDuration interference_scaled(SimDuration work,
                                              double factor) noexcept;

/// Everything the scheduler must retain about a dispatched workflow to
/// be able to complete it — or checkpoint it off the node and resume
/// it elsewhere.
struct RunningTask {
  /// The original submission, kept so a preempted victim can re-enter
  /// the queue with its original (priority, arrival, id) dispatch key.
  Submission submission;
  /// Partially-filled completion record; finish_ns is provisional until
  /// the finish event actually fires.
  CompletionRecord record;
  /// Solo work still owed when the current rate segment started (== the
  /// full config runtime for a fresh dispatch). Settled lazily: updated
  /// only when the rate changes (retime) or the task is preempted.
  SimDuration remaining_ns = 0;
  /// Restore + migration overhead charged at the head of the current
  /// segment (0 for a fresh dispatch). Progress during the overhead
  /// window is not workflow work, so a preemption landing inside it
  /// wastes the restore but loses no work.
  SimDuration segment_overhead_ns = 0;
  /// Interference factor of the current rate segment: simulated wall
  /// time per unit of solo work. 1.0 when running alone; the measured
  /// pairwise slowdown while co-located.
  double interference = 1.0;
  /// When the current rate segment began (overhead is consumed first).
  SimTime rate_since_ns = 0;
  /// Snapshot volume basis: bytes the workflow materializes in the
  /// channel per iteration (all ranks) and the iteration count, from
  /// the cached profile.
  Bytes snapshot_bytes_per_iteration = 0;
  std::uint32_t iterations = 1;
  /// Capacity lease currently charged to (node, lease_socket)'s pool
  /// (0 when the capacity model is disabled or the pool clamped the
  /// lease to nothing). Released on finish/preempt; re-acquired on
  /// resume.
  Bytes lease_bytes = 0;
  std::uint32_t lease_socket = 0;
  /// Portion of the lease that stays resident (cold) after the
  /// workflow finishes: the retained versions GC never reclaimed.
  Bytes cold_bytes = 0;
  /// Snapshot bytes version GC reclaims over the run (metrics basis).
  Bytes gc_bytes = 0;
  /// Cancellable (and re-schedulable) finish event of the current
  /// segment.
  sim::EventId finish_event;

  /// In-flight channel state to drain at a preemption point where
  /// `remaining` work is still owed: per-iteration snapshot volume ×
  /// in-flight step count ceil(iterations * remaining/full), >= 1 — a
  /// workflow near completion has little live state left to drain.
  [[nodiscard]] Bytes snapshot_bytes(SimDuration remaining) const noexcept;
};

/// One tenant slot of a node.
struct SlotState {
  /// Simulated time at which the slot finishes its current workflow or
  /// checkpoint drain (<= now means free).
  SimTime free_at_ns = 0;
  /// Task currently in the slot; empty while free *and* while draining
  /// a checkpoint (the victim has already left for the queue).
  std::optional<RunningTask> running;
};

/// Addresses one tenant slot of one node.
struct SlotRef {
  std::uint32_t node = 0;
  std::uint32_t slot = 0;

  friend bool operator==(const SlotRef&, const SlotRef&) = default;
};

/// Load-tracking state of one node.
struct NodeState {
  std::vector<SlotState> slots;
  /// Total simulated slot-time spent running workflows (incl.
  /// checkpoint drains, restore streams, and interference stretch),
  /// summed across slots.
  SimDuration busy_ns = 0;
  std::uint64_t completed = 0;
  /// Workflows checkpointed off this node.
  std::uint64_t preemptions = 0;
  /// Busy time spent draining checkpoints (subset of busy_ns).
  SimDuration checkpoint_busy_ns = 0;
};

class Fleet {
 public:
  /// At most two tenants per node: the co-location deployment mirrors
  /// writer/reader sockets between exactly two workflows.
  static constexpr std::uint32_t kMaxTenantsPerNode = 2;

  explicit Fleet(std::uint32_t node_count, std::uint32_t tenants_per_node = 1);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] std::uint32_t tenants_per_node() const noexcept {
    return tenants_per_node_;
  }
  [[nodiscard]] const NodeState& node(std::uint32_t index) const;

  /// Task currently running in `ref`, or nullptr when the slot is free
  /// or draining a checkpoint.
  [[nodiscard]] const RunningTask* running(SlotRef ref) const;

  /// Mutable access to the task in `ref` (the scheduler updates the
  /// finish-event handle and record when re-timing); nullptr when none.
  [[nodiscard]] RunningTask* task_at(SlotRef ref);

  /// Earliest time any slot frees (== some free_at_ns; for an idle
  /// fleet this is in the past). Used for retry-after hints and the
  /// preemption decision rule.
  [[nodiscard]] SimTime earliest_free_ns() const noexcept;

  /// Earliest time some node has every slot free (the latest free_at_ns
  /// of its slots, minimized over nodes). Equals earliest_free_ns() with
  /// one tenant per node. Used by the preemption decision rule: a free
  /// slot beside a running tenant may be unusable to the urgent head.
  [[nodiscard]] SimTime earliest_node_free_ns() const noexcept;

  /// True when some node is *fully* idle at `now` (every slot free):
  /// exactly when idle_nodes() would be non-empty. A slot whose finish
  /// event has reached its timestamp but not yet fired (running task
  /// still attached) does not count as free.
  [[nodiscard]] bool has_idle_node(SimTime now) const;

  /// Fills `out` with every node fully idle at `now`, ascending node
  /// index. Served from the idle index: only task-free nodes are
  /// visited, draining ones are filtered on the way out.
  void idle_nodes(SimTime now, std::vector<std::uint32_t>& out) const;

  /// Same set as idle_nodes, ordered by (accumulated busy time, index)
  /// ascending — the least-loaded preference order.
  void idle_nodes_by_load(SimTime now, std::vector<std::uint32_t>& out) const;

  /// Slot index of the node's sole running task, when exactly one slot
  /// is running; nullopt for an empty or fully-packed node.
  [[nodiscard]] std::optional<std::uint32_t> sole_tenant_slot(
      std::uint32_t node) const;

  /// Free slot a second tenant could pack into at `now`: requires
  /// exactly one running task on the node, no slot mid-drain, and a
  /// slot free at `now` (lowest such index). nullopt otherwise.
  [[nodiscard]] std::optional<std::uint32_t> pack_slot(std::uint32_t node,
                                                       SimTime now) const;

  /// Occupies `ref` with `task` for `busy_ns` of simulated time
  /// starting at `start_ns` (segment overhead + interference-scaled
  /// remaining work). The slot must be free at start_ns.
  void start(SlotRef ref, SimTime start_ns, SimDuration busy_ns,
             RunningTask task);

  /// Finishes the task in `ref`; the slot frees and the task (with its
  /// completion record) is handed back.
  [[nodiscard]] RunningTask complete(SlotRef ref);

  /// Solo work the task in `ref` would still owe if preempted at `now`
  /// (segment overhead does not count as work; wall time is deflated by
  /// the current interference factor). Slot must be running.
  [[nodiscard]] SimDuration remaining_work_at(SlotRef ref, SimTime now) const;

  /// Checkpoints the task off `ref` at time `now`: settles the work
  /// done so far, un-charges the slot time the task will no longer
  /// spend here, charges `checkpoint_ns` of snapshot drain (the slot
  /// stays busy until now + checkpoint_ns), and returns the task with
  /// remaining_ns updated to the solo work still owed (interference
  /// reset to 1.0). The caller re-queues it and cancels its finish
  /// event.
  [[nodiscard]] RunningTask preempt(SlotRef ref, SimTime now,
                                    SimDuration checkpoint_ns);

  /// Changes the running task's interference factor at `now`: settles
  /// work done under the old factor, then re-times the slot so the
  /// remaining work (plus any unconsumed segment overhead) completes at
  /// the new rate. Returns the new finish time; the caller must
  /// reschedule the task's finish event to it.
  [[nodiscard]] SimTime retime(SlotRef ref, SimTime now, double factor);

  /// In-horizon busy time over the node's slot capacity: busy_ns minus
  /// the portion of any still-running slot (e.g. a checkpoint drain)
  /// that extends past the horizon, divided by horizon × slots. Never
  /// exceeds 1.0.
  [[nodiscard]] double utilization(std::uint32_t index,
                                   SimDuration horizon_ns) const;

  /// Mean utilization across nodes.
  [[nodiscard]] double mean_utilization(SimDuration horizon_ns) const;

  /// Installs per-(node, socket) capacity pools
  /// (`capacities[node][socket]`; 0 = unbounded). Without this call the
  /// tracker is empty and the capacity model is off.
  void init_residency(std::vector<std::vector<Bytes>> capacities);

  [[nodiscard]] capacity::ResidencyTracker& residency() noexcept {
    return residency_;
  }
  [[nodiscard]] const capacity::ResidencyTracker& residency() const noexcept {
    return residency_;
  }

  /// True when any slot of any node holds a running task or is still
  /// busy (draining) at `now` — i.e. some capacity will free later.
  [[nodiscard]] bool any_task_active(SimTime now) const noexcept;

 private:
  [[nodiscard]] SlotState& slot(SlotRef ref);
  [[nodiscard]] const SlotState& slot(SlotRef ref) const;
  /// Advances the task's rate segment to `now`: consumes segment
  /// overhead first, then converts the rest of the elapsed wall time to
  /// solo work at the current interference factor.
  static void settle(RunningTask& task, SimTime now);

  /// Idle-index maintenance. A node lives in both sets exactly while it
  /// runs zero tasks; its busy_ns is frozen for that whole span (retime
  /// requires a running task, preempt re-inserts only after its busy
  /// adjustments), so the load-ordered set never goes stale. Draining
  /// nodes (a checkpoint still occupying a slot) stay in the sets and
  /// are filtered by node_free_at at query time.
  void index_insert(std::uint32_t node);
  void index_remove(std::uint32_t node);
  [[nodiscard]] bool node_free_at(std::uint32_t node,
                                  SimTime now) const noexcept;

  std::vector<NodeState> nodes_;
  std::uint32_t tenants_per_node_;
  /// Running-task count per node — the idle-index membership criterion.
  std::vector<std::uint32_t> running_count_;
  /// Task-free nodes ordered by (busy_ns, index): least-loaded order.
  std::set<std::pair<SimDuration, std::uint32_t>> idle_by_load_;
  /// Task-free nodes ordered by index: first-fit order.
  std::set<std::uint32_t> idle_by_index_;
  /// Per-socket PMEM occupancy; empty unless init_residency() ran.
  capacity::ResidencyTracker residency_;
};

}  // namespace pmemflow::service
