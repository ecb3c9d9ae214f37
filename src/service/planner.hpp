// The placement planner: candidate generation, policy scoring, and
// bounded lookahead over a window of queued submissions.
//
// Placement runs in three stages:
//
//   1. candidate generation — a policy-neutral enumerator over idle
//      nodes, sockets (capacity spill), co-location pairings, and
//      whole-node DAG placements. Every candidate carries the
//      submission's profile on its node's backend (resolved lazily, at
//      most once per backend per decision) and the estimated solo
//      runtime of the option the policy would run there.
//   2. scoring — estimated runtime first, then each PlacementPolicy's
//      lexicographic score (tier, load, cost, node, slot), built from
//      the device-aware runtime estimates in the ProfileCache and the
//      measured InterferenceTable slowdowns. Lower wins; ties resolve
//      by node index, so selection is deterministic.
//   3. commit — the planner never mutates the Fleet. Region::dispatch
//      commits the returned steps one at a time (the only code path
//      that starts work, charges leases, or evicts), and preemption
//      goes through the same commit surface.
//
// A plan covers up to k queued submissions per wake-up (k = 1 plans the
// queue head alone), placed by one greedy min-estimated-finish
// insertion (urgent before normal before batch; deterministic
// tie-breaks), so short work backfills around a stuck head and
// heterogeneous fleets route each class to the backend where it
// finishes earliest.
//
// Plans are memoizable: the cache key fingerprints the window's class
// sequence and the fleet state a plan depends on — per-node device
// fingerprints, per-slot occupancy (running incumbent classes,
// draining), the idle-node load ranking, and (when the capacity model
// is on) the exact per-socket residency — so steady-state traffic
// replays cached plans and planning cost amortizes to near zero. A
// cached plan is only ever replayed against a byte-equal key, which is
// what keeps an optane-gen1 plan off a dram-like fleet and a
// roomy-pool plan off a near-full one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "service/colocation.hpp"
#include "service/fleet.hpp"
#include "service/profile_cache.hpp"
#include "service/types.hpp"

namespace pmemflow::service {

struct ServiceConfig;  // service/scheduler.hpp (which includes us)

/// Knobs of the lookahead planner (ServiceConfig::planner).
struct PlannerConfig {
  /// Queued submissions planned jointly per scheduler wake-up. 1 (the
  /// default) plans the queue head alone, by the same
  /// min-estimated-finish rule as every other window.
  std::uint32_t window = 1;
  /// Memoize whole window plans keyed on (window class sequence ×
  /// fleet/device/residency state). Schedules are identical with the
  /// cache on or off; only profile-cache traffic differs (a replayed
  /// plan re-resolves profiles for its chosen nodes only).
  bool plan_cache = false;
  /// Cached plans kept before a deterministic wholesale clear (the
  /// same bounded-memo shape as the allocator's solve cache).
  std::size_t plan_cache_capacity = 1024;
};

/// Cumulative planner counters (the scheduler reports per-run deltas).
struct PlannerStats {
  /// plan() invocations.
  std::uint64_t plans = 0;
  /// Placement steps planned across all invocations.
  std::uint64_t planned_steps = 0;
  /// Cacheable windows served from the plan cache.
  std::uint64_t cache_hits = 0;
  /// Cacheable windows planned fresh (and then memoized).
  std::uint64_t cache_misses = 0;
  /// Wholesale cache clears on reaching capacity.
  std::uint64_t cache_clears = 0;

  [[nodiscard]] double cache_hit_rate() const noexcept {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0
               ? 0.0
               : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

/// One scored placement option for one submission: where it would land
/// and everything the commit stage needs to start it there.
struct PlacementCandidate {
  SlotRef ref;
  /// Interference factor charged to the dispatched task (1.0 solo).
  double factor = 1.0;
  /// True when joining an incumbent on a partially-occupied node.
  bool packs = false;
  /// New factor for the incumbent when packing.
  double incumbent_factor = 1.0;
  /// The submission's profile on the node's backend. A DAG's profile
  /// may be !placeable(), in which case the commit drops the
  /// submission.
  std::shared_ptr<const CachedProfile> profile;
  /// Whether resolving `profile` was a profile-cache hit.
  bool cache_hit = false;
  /// Capacity-aware spill: run under the placement-flipped fixed
  /// config so the channel lands on the node's other socket.
  bool flip_placement = false;

  // -- scoring inputs (stage 2), lower is better, lexicographic --
  /// Estimated runtime under the policy's chosen configuration on the
  /// node's backend, stretched by `factor` when packing.
  SimDuration estimate_ns = 0;
  /// Policy preference class: 0 = solo/idle placement (or the best
  /// capacity fit), 1..3 = worse capacity fits / co-location packs.
  std::uint64_t tier = 0;
  /// Policy load key: accumulated busy time, or 0 under first-fit
  /// (node index alone decides).
  std::uint64_t load = 0;
  /// Measured combined pack slowdown (co-location packs only).
  double cost = 0.0;
};

/// One planned placement: which queued submission goes where.
struct PlannedStep {
  /// Submission id at plan time (commit pops it from the queue by id).
  std::uint64_t id = 0;
  /// Window position the step was planned for (plan-cache basis).
  std::uint32_t entry = 0;
  PlacementCandidate candidate;
};

struct Plan {
  /// Steps in commit order; empty when nothing in the window can place
  /// (the dispatcher then considers preemption).
  std::vector<PlannedStep> steps;
  /// True when the plan was replayed from the plan cache.
  bool from_cache = false;
};

/// What the planner needs from its owner to resolve profiles and
/// interference: Region implements this over the scheduler's
/// ProfileCache/InterferenceTable (heterogeneous lookups keyed by the
/// node's backend). A pair and a DAG resolve alike, by the
/// submission's stamped `class_fp`, never by re-fingerprinting its
/// spec. `cache_hit` reports whether the lookup was served from the
/// cache; completion records and metrics report it.
class PlanResolver {
 public:
  struct Resolved {
    std::shared_ptr<const CachedProfile> profile;
    bool cache_hit = false;
  };

  virtual ~PlanResolver() = default;

  /// Profile of `submission`, a pair or a DAG.
  [[nodiscard]] virtual Expected<Resolved> resolve_profile(
      const Submission& submission, std::uint32_t node) = 0;
  [[nodiscard]] virtual Expected<PairInterference> resolve_interference(
      const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
      const CachedProfile& b, const workflow::WorkflowSpec& spec_b,
      std::uint32_t node) = 0;
};

class Planner {
 public:
  /// `config` must outlive the planner. `node_base`/`node_count` name
  /// the global node slice the owning region plans over (device
  /// fingerprints are precomputed per local node).
  Planner(const ServiceConfig& config, std::uint32_t node_base,
          std::uint32_t node_count);

  /// Plans up to PlannerConfig::window steps for `window` (the first
  /// queued submissions in dispatch order) against `fleet` at `now`.
  /// Never mutates the fleet. `cacheable` must be false when any
  /// window entry is a checkpointed victim (its remaining work is not
  /// part of the cache key).
  [[nodiscard]] Expected<Plan> plan(PlanResolver& resolver,
                                    const Fleet& fleet,
                                    std::span<const Submission* const> window,
                                    SimTime now, bool cacheable);

  [[nodiscard]] const PlannerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t cache_size() const noexcept {
    return cache_.size();
  }

  /// Fingerprint of region-local node `node`'s backend on a
  /// heterogeneous fleet (0 on a homogeneous one). Computed once, when
  /// the planner is built.
  [[nodiscard]] std::uint64_t device_fingerprint(
      std::uint32_t node) const noexcept {
    return device_fps_[node];
  }

  /// The full (pre-hash) plan-cache key for this window and fleet
  /// state. Exposed so tests can pin what the key must distinguish:
  /// device fingerprints, slot occupancy/incumbent classes, the
  /// idle-node load ranking, and per-socket residency bytes. Classes
  /// enter as the stamped `class_fp` of window entries and incumbents.
  [[nodiscard]] std::vector<std::uint64_t> cache_key(
      const Fleet& fleet, std::span<const Submission* const> window,
      SimTime now) const;

 private:
  /// A cached step: replay re-resolves its profile on its node, and a
  /// pack's interference factors.
  struct CompactStep {
    std::uint32_t entry = 0;
    SlotRef ref;
    bool packs = false;
    bool flip_placement = false;
  };
  struct CachedPlan {
    /// Full key, kept to reject 64-bit digest collisions exactly.
    std::vector<std::uint64_t> key;
    std::vector<CompactStep> steps;
  };

  /// The profile of the submission being placed on one backend.
  struct HeadProfile {
    std::uint64_t device_fp = 0;
    PlanResolver::Resolved resolved;
    /// Solo runtime estimate of the unflipped option.
    SimDuration estimate_ns = 0;
    /// An idle node of this backend is a candidate, so no pack on the
    /// backend can win.
    bool solo = false;
  };

  [[nodiscard]] bool heterogeneous() const noexcept;
  [[nodiscard]] bool capacity_on() const noexcept;
  /// `next`'s profile on `node`'s backend, resolved on the first ask of
  /// a decision and reused for every later node of that backend. The
  /// pointer is valid until the next call.
  [[nodiscard]] Expected<HeadProfile*> head_profile(PlanResolver& resolver,
                                                    const Submission& next,
                                                    std::uint32_t node);
  /// Stages 1 and 2 for one submission: its best candidate among the
  /// idle nodes left in `idle_` and, under co-location, the packs on
  /// nodes no `planned` step took; none when nothing fits.
  [[nodiscard]] Status best_candidate(PlanResolver& resolver,
                                      const Fleet& fleet,
                                      const Submission& next, SimTime now,
                                      std::span<const PlannedStep> planned,
                                      std::optional<PlacementCandidate>& best);
  /// Runtime of the option the policy runs `profile` under (0 for an
  /// unplaceable DAG, which the commit drops).
  [[nodiscard]] SimDuration estimate_runtime(const CachedProfile& profile,
                                             bool flip_placement) const;
  [[nodiscard]] Expected<Plan> plan_window(
      PlanResolver& resolver, const Fleet& fleet,
      std::span<const Submission* const> window, SimTime now);
  [[nodiscard]] Expected<Plan> replay(
      PlanResolver& resolver, const Fleet& fleet,
      std::span<const Submission* const> window,
      const std::vector<CompactStep>& steps);
  void memoize(std::uint64_t digest, std::vector<std::uint64_t> key,
               const Plan& plan);

  const ServiceConfig& config_;
  std::uint32_t node_base_;
  std::uint32_t node_count_;
  /// Per-local-node device fingerprint (all zero on a homogeneous
  /// fleet — the backend is then a config constant, not fleet state).
  std::vector<std::uint64_t> device_fps_;
  std::unordered_map<std::uint64_t, CachedPlan> cache_;
  PlannerStats stats_;
  // Scratch reused across plans, so a plan allocates only its steps.
  /// Idle nodes no step of the plan being built has taken.
  std::vector<std::uint32_t> idle_;
  /// One entry per backend the current decision touched.
  std::vector<HeadProfile> heads_;
};

/// Dual-socket nodes throughout (the paper's testbed shape).
inline constexpr std::uint32_t kSocketsPerNode = 2;

[[nodiscard]] core::Placement flipped(core::Placement placement) noexcept;

/// Capacity lease for one class's channels (every DAG edge, or a
/// pair's one): live snapshot volume under the retention policy plus
/// metadata growth (docs/CAPACITY.md).
[[nodiscard]] Bytes lease_for(const capacity::ResidencyParams& params,
                              const CachedProfile& profile);

/// What the configured policy runs a class under.
struct OptionChoice {
  /// Index into CachedProfile::options.
  std::size_t index = 0;
  /// Table I configuration the completion record reports.
  core::DeploymentConfig config;
};

/// The option the configured policy runs `profile` under. A pair runs
/// a Table I configuration (fixed → recommender → colocation
/// preferred-parallel, with the capacity spill flip applied last). A
/// DAG runs its fused plan under kDagFusion and its spread plan
/// otherwise, either falling back to the other when its own does not
/// fit; its record keeps the fleet's fixed configuration as the
/// closest Table I description (a chain's spread plan is exactly the
/// P-LocR pair deployment).
[[nodiscard]] OptionChoice choose_option(const ServiceConfig& config,
                                         const CachedProfile& profile,
                                         bool flip_placement);

}  // namespace pmemflow::service
