// The online workflow-scheduling service (tentpole of the service
// subsystem).
//
// OnlineScheduler replays a stream of Submissions against a simulated
// fleet, entirely on the repo's deterministic DES clock (the same
// sim::EventQueue the workflow engine uses): arrivals, deferred-retry
// timers, and node-free events interleave in timestamp order with FIFO
// tie-breaking, so a given (submission stream, config) pair always
// produces the identical schedule.
//
// Per submission:
//   1. admission — SubmissionQueue verdict; deferred and rejected
//      submissions are auto-resubmitted after their retry-after
//      (bounded by max_retries, then counted dropped), so every
//      submission ends up either completed or dropped;
//   2. characterization — ProfileCache lookup; repeat submissions of a
//      workflow class hit and skip the four-configuration solve;
//   3. placement — PlacementPolicy picks the node, and (for
//      kRecommenderAware) the cached Table II / model-based
//      recommendation picks the Table I configuration; fixed-config
//      policies model a PMEM-unaware scheduler;
//   4. dispatch — the node is occupied for the configuration's cached
//      runtime; completion re-triggers dispatch.
//
// Under PreemptionPolicy::kCheckpointRestore an urgent arrival that
// finds no idle node may displace running lower-priority work: the
// victim is checkpointed (its in-flight channel state drained to PMEM
// at the device's write bandwidth, occupying the node for the drain),
// re-queued with its remaining runtime, and later restored — on any
// node; a cross-node resume adds an interconnect transfer leg. The
// decision rule is cost-based: displace only when the urgent wait
// saved exceeds the checkpoint + restore cost (docs/SERVICE.md).
// Everything, including checkpoint drains and cancelled finish events,
// stays on the deterministic event queue.
//
// Characterization cost is not charged to the simulated clock, exactly
// like core::BatchScheduler: profiles are reusable per-class artifacts
// (paper §IV-C), and the cache is what makes that practical online.
#pragma once

#include <span>
#include <vector>

#include <memory>

#include "capacity/residency.hpp"
#include "core/batch.hpp"
#include "service/colocation.hpp"
#include "service/fleet.hpp"
#include "service/metrics.hpp"
#include "service/planner.hpp"
#include "service/profile_cache.hpp"
#include "service/sharding.hpp"
#include "service/submission_queue.hpp"
#include "service/types.hpp"
#include "trace/tracer.hpp"

namespace pmemflow::service {

struct ServiceConfig {
  /// Fleet size (dual-socket nodes).
  std::uint32_t nodes = 4;
  /// Per-node memory backends for a heterogeneous fleet. Empty (the
  /// default) means every node runs the backend of the scheduler's
  /// Executor; non-empty must have exactly `nodes` entries. With
  /// distinct backends present, every profile-cache and interference
  /// lookup is keyed by the node's device fingerprint, and the
  /// kRecommenderAware policy additionally *routes*: among idle nodes
  /// it places a class on the backend where its recommended
  /// configuration runs fastest.
  std::vector<NodeSpec> node_specs;
  std::size_t queue_capacity = 64;
  /// Queue-occupancy fraction above which kBatch work is deferred.
  double defer_watermark = 0.75;
  PlacementPolicy policy = PlacementPolicy::kRecommenderAware;
  /// Configuration used by the PMEM-unaware policies (kFirstFit,
  /// kLeastLoaded). P-LocR is the natural naive default: co-run the
  /// components, keep reads local.
  core::DeploymentConfig fixed_config{core::ExecutionMode::kParallel,
                                      core::Placement::kLocalRead};
  /// kRecommenderAware flavor: Table II rules (true) or the model-based
  /// estimate (false, default — the paper's §VIII closing suggestion).
  bool use_rule_based = false;
  /// kColocationAware knobs: tenant slots per node and the I/O-index
  /// margin that decides write-heavy/read-heavy pair compatibility.
  ColocationParams colocation;
  std::size_t cache_capacity = 1024;
  /// Auto-resubmissions granted to a deferred or rejected submission
  /// before it is dropped.
  std::uint32_t max_retries = 3;
  /// Whether urgent arrivals may checkpoint running batch/normal work
  /// off a node.
  PreemptionPolicy preemption = PreemptionPolicy::kNone;
  /// Checkpoint/restore/migration cost model (calibrated device rates).
  CheckpointParams checkpoint;
  /// PMEM capacity model: per-socket pools, version retention + GC,
  /// and the DRAM staging tier. Disabled by default
  /// (pmem_per_socket == 0), in which case no pools exist, no leases
  /// are charged, and schedules are byte-identical to a build without
  /// the model. A NodeSpec whose DeviceSpec carries its own `capacity`
  /// overrides pmem_per_socket for that node's sockets.
  capacity::ResidencyParams capacity;
  /// Fleet sharding: regions > 1 splits the fleet into epoch-
  /// synchronized sub-schedulers (service/sharding.hpp). `regions` is
  /// clamped to the node count; `threads` scales the replay across
  /// cores without changing the schedule. Forced single-threaded when
  /// a tracer is attached (the Tracer sink is not thread-safe).
  ShardingConfig sharding;
  /// Placement planner: lookahead window size and the memoized plan
  /// cache (service/planner.hpp). The default — window 1, cache off —
  /// reproduces the classic greedy one-submission-at-a-time path
  /// byte-identically.
  PlannerConfig planner;
  /// Optional span/instant sink: per-node workflow spans on "node-<i>"
  /// tracks, admission instants on the "service" track. Must outlive
  /// run().
  trace::Tracer* tracer = nullptr;
};

class OnlineScheduler {
 public:
  explicit OnlineScheduler(ServiceConfig config,
                           core::Executor executor = core::Executor(),
                           core::Recommender recommender = core::Recommender());

  /// Replays `submissions` (any order; sorted internally by arrival
  /// time, id-tie-broken) to completion or first error. Each copied
  /// submission's `class_fp` is stamped here (stamp_class_keys), so a
  /// caller-set value is ignored. The profile cache persists across
  /// run() calls, so back-to-back runs of similar streams hit warm.
  [[nodiscard]] Expected<ServiceResult> run(
      std::span<const Submission> submissions);

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const ProfileCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const InterferenceTable& interference() const noexcept {
    return interference_;
  }

 private:
  /// Lazily builds the per-region ProfileCache/InterferenceTable pairs
  /// for regions 1..R-1 (region 0 borrows the primary pair). Extra
  /// pairs persist across run() calls, exactly like the primary.
  void ensure_region_caches(std::uint32_t regions);

  /// Lazily builds one Planner per region. Planners (and their plan
  /// caches) persist across run() calls, like the profile caches — the
  /// steady-state hit rate compounds over a long-lived service.
  void ensure_planners(std::uint32_t regions);

  ServiceConfig config_;
  /// Prototype for the extra per-region caches' executors and
  /// measurement runners: the same platform/devices the primary pair
  /// was built on. Runner construction is configuration-only (cheap).
  workflow::Runner runner_proto_;
  core::Recommender recommender_;
  /// Declared before cache_: initialized from the executor's runner
  /// before the executor moves into the cache. Memoized pairwise
  /// slowdowns persist across run() calls, like the profile cache.
  InterferenceTable interference_;
  ProfileCache cache_;
  /// Region r > 0 owns extra_caches_[r-1] / extra_interference_[r-1]:
  /// regions never share a mutable cache, so worker threads touch
  /// disjoint state between epoch barriers (unique_ptr keeps them
  /// stable across the vector growing when `sharding.regions` does).
  std::vector<std::unique_ptr<ProfileCache>> extra_caches_;
  std::vector<std::unique_ptr<InterferenceTable>> extra_interference_;
  /// Region r owns planners_[r]; regions never share a plan cache
  /// (unique_ptr keeps them stable as the vector grows).
  std::vector<std::unique_ptr<Planner>> planners_;
};

/// Position of `config` in Table I order (core::all_configs(): S-LocW,
/// S-LocR, P-LocW, P-LocR): parallel mode adds 2, local-read adds 1.
[[nodiscard]] constexpr std::size_t config_index(
    const core::DeploymentConfig& config) noexcept {
  return (config.mode == core::ExecutionMode::kParallel ? 2u : 0u) +
         (config.placement == core::Placement::kLocalRead ? 1u : 0u);
}

}  // namespace pmemflow::service
