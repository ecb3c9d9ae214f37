// One fleet region: an independent sub-scheduler over a contiguous
// node slice.
//
// Region is the per-run mutable state of the online scheduler —
// event queue, fleet slice, submission queue, checkpoints, counters —
// factored out of OnlineScheduler::run() so that a sharded run can hold
// several of them and advance them in turn between epoch barriers
// (service/sharding.hpp). Every region borrows the scheduler's one
// ProfileCache and InterferenceTable; its Planner is its own.
//
// A region addresses its nodes locally (0 .. node_count-1); `node_base`
// maps them back to fleet-global indices for config lookups
// (node_specs), tracer track names, and the completion records returned
// by take_completions(). An unsharded run is simply one region with
// node_base 0 owning every node — the classic scheduler, unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "service/colocation.hpp"
#include "service/fleet.hpp"
#include "service/planner.hpp"
#include "service/profile_cache.hpp"
#include "service/scheduler.hpp"
#include "service/submission_queue.hpp"
#include "service/types.hpp"
#include "sim/event_queue.hpp"

namespace pmemflow::service {

class Region : public PlanResolver {
 public:
  /// `cache`, `interference`, and `planner` must outlive the region;
  /// `planner` must be exclusive to it. `node_base`/`node_count` name
  /// the global node slice the region owns (and the planner plans
  /// over).
  Region(const ServiceConfig& config, ProfileCache& cache,
         InterferenceTable& interference, Planner& planner,
         std::uint32_t index, std::uint32_t node_base,
         std::uint32_t node_count);

  /// Schedules the arrival event of every submission (fresh retry
  /// budget each). Call before advancing.
  void seed(std::vector<Submission> submissions);

  /// Schedules one submission's arrival at `at` (>= the last processed
  /// event time): how barrier migrations re-enter a region.
  void inject(Submission submission, SimTime at);

  /// Processes every event strictly before `boundary` (or until a
  /// failure).
  void advance_until(SimTime boundary);

  /// Drains the event queue completely (the unsharded path).
  void run_to_completion();

  /// Timestamp of the next pending event, if any.
  [[nodiscard]] std::optional<SimTime> next_event_time() const;

  // -- Barrier-exchange surface (driver only, between advances) --

  /// True when the queue head is stuck: work is queued, no node is
  /// idle, and the head is not a checkpointed victim (its snapshot
  /// lives on this region's nodes — it must resume here).
  [[nodiscard]] bool has_stealable_head(SimTime now) const;

  /// True when this region could start donated work at `now`: empty
  /// queue and an idle node.
  [[nodiscard]] bool can_accept(SimTime now) const;

  /// Removes and returns the queue head (caller checked
  /// has_stealable_head).
  [[nodiscard]] Submission steal_head();

  // -- Results & merge surface --

  [[nodiscard]] std::size_t completion_count() const noexcept {
    return completions_.size();
  }
  /// Completion records with node indices remapped to fleet-global;
  /// leaves the region empty. Records are in this region's
  /// finish-event order.
  [[nodiscard]] std::vector<CompletionRecord> take_completions();

  [[nodiscard]] const std::optional<Error>& failure() const noexcept {
    return failure_;
  }
  [[nodiscard]] bool checkpoints_empty() const noexcept {
    return checkpoints_.empty();
  }
  [[nodiscard]] const SubmissionQueue& queue() const noexcept {
    return queue_;
  }
  [[nodiscard]] const Fleet& fleet() const noexcept { return fleet_; }
  [[nodiscard]] std::uint64_t des_events() const noexcept {
    return des_events_;
  }
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t colocations() const noexcept {
    return colocations_;
  }
  [[nodiscard]] std::uint64_t stage_hits() const noexcept {
    return stage_hits_;
  }
  [[nodiscard]] std::int64_t interference_delta_ns() const noexcept {
    return interference_delta_ns_;
  }
  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] std::uint32_t node_base() const noexcept {
    return node_base_;
  }

  // -- PlanResolver (the planner's view of this region's caches) --

  /// Profile lookup (a pair's or a DAG's) against the backend of
  /// region-local `node` (the cache's default backend on a homogeneous
  /// fleet). `cache_hit` is the profile cache's hit-counter delta
  /// around the lookup.
  [[nodiscard]] Expected<Resolved> resolve_profile(
      const Submission& submission, std::uint32_t node) override;
  /// Interference lookup measured on the backend of region-local
  /// `node`.
  [[nodiscard]] Expected<PairInterference> resolve_interference(
      const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
      const CachedProfile& b, const workflow::WorkflowSpec& spec_b,
      std::uint32_t node) override;

 private:
  /// Checkpointed state of a preempted victim waiting in the queue.
  struct ResumeState {
    /// Volume drained at preemption; what a restore (and any migration
    /// leg) must stream back.
    Bytes snapshot_bytes = 0;
    /// Region-local node holding the snapshot; resuming elsewhere pays
    /// the interconnect transfer.
    std::uint32_t checkpoint_node = 0;
    RunningTask task;
  };

  [[nodiscard]] bool capacity_on() const noexcept {
    return config_.capacity.enabled();
  }
  [[nodiscard]] std::string track_name(SlotRef ref) const;
  /// True when the fleet mixes memory backends (node_specs provided).
  [[nodiscard]] bool heterogeneous() const noexcept {
    return !config_.node_specs.empty();
  }
  /// Backend of region-local `node`: its NodeSpec's devices on a
  /// heterogeneous fleet, null (the caches' default backend) otherwise.
  [[nodiscard]] const devices::NodeDevices* backend_of(
      std::uint32_t node) const noexcept {
    return heterogeneous() ? &config_.node_specs[node_base_ + node].devices
                           : nullptr;
  }
  /// Fingerprint of backend_of(node): the planner's per-node value on a
  /// heterogeneous fleet, the cache's default otherwise. Both are
  /// computed once, never per lookup.
  [[nodiscard]] std::uint64_t device_fp_of(std::uint32_t node) const noexcept {
    return heterogeneous() ? planner_.device_fingerprint(node)
                           : cache_.default_device_fingerprint();
  }

  /// One arrival path for fresh submissions, deferred/rejected retries,
  /// and barrier migrations.
  void arrive(Submission submission, std::uint32_t attempt, SimTime now);
  /// Asks the planner for a window plan and commits its steps. The
  /// planner never mutates the fleet; everything below this line is the
  /// commit stage — the only code that starts work, charges leases, or
  /// preempts.
  void dispatch(SimTime now);
  /// The one start path: pops the submission by id, builds its task —
  /// a checkpointed victim's own, or a fresh one from its profile's
  /// chosen option (dropping an unplaceable DAG) — charges the
  /// incumbent when packing, then charges the lease, opens the trace
  /// span and launches.
  void commit_step(const PlannedStep& step, SimTime now);
  /// Acquires the task's lease_bytes on (`node`, its lease_socket),
  /// evicting cold residue or clamping first; returns the overhead.
  SimDuration charge_lease(RunningTask& task, std::uint32_t node);
  /// `runtime` less the DRAM-staging discount when an iteration's
  /// `snapshot` fits the stage (counting the stage hits); else as is.
  SimDuration staged_runtime(SimDuration runtime, Bytes snapshot,
                             std::uint32_t iterations);
  /// Sets the task's cold residue and GC volume from its lease, snapshot
  /// basis and iteration count under the fleet's retention policy.
  void set_residue(RunningTask& task) const;
  void apply_interference(SlotRef ref, SimTime now, double factor);
  bool victim_frees_usable_slot(SlotRef victim, SimTime now);
  void maybe_preempt(SimTime now);
  void on_finish(SlotRef ref);

  const ServiceConfig& config_;
  ProfileCache& cache_;
  InterferenceTable& interference_;
  Planner& planner_;
  std::uint32_t index_;
  std::uint32_t node_base_;
  sim::EventQueue events_;
  Fleet fleet_;
  SubmissionQueue queue_;
  std::vector<CompletionRecord> completions_;
  /// Checkpoints awaiting resume, keyed by submission id.
  std::unordered_map<std::uint64_t, ResumeState> checkpoints_;
  /// Nodes currently draining a checkpoint on behalf of a waiting
  /// urgent submission; bounds preemptions to one per waiting urgent.
  std::uint64_t urgent_reservations_ = 0;
  std::uint64_t des_events_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t dropped_ = 0;
  /// Pack placements performed.
  std::uint64_t colocations_ = 0;
  /// Iterations whose snapshot writes fit the DRAM staging tier.
  std::uint64_t stage_hits_ = 0;
  /// Net wall-clock added (pack) and returned (relax/settle) by
  /// interference charging; >= 0 over any completed pairing.
  std::int64_t interference_delta_ns_ = 0;
  std::optional<Error> failure_;
};

}  // namespace pmemflow::service
