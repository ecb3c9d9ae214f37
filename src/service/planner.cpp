#include "service/planner.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "service/scheduler.hpp"

namespace pmemflow::service {
namespace {

/// Stage-2 score: strict lexicographic (estimate, tier, load, cost,
/// node, slot), lower wins.
bool better(const PlacementCandidate& a, const PlacementCandidate& b) {
  return std::tie(a.estimate_ns, a.tier, a.load, a.cost, a.ref.node,
                  a.ref.slot) < std::tie(b.estimate_ns, b.tier, b.load,
                                         b.cost, b.ref.node, b.ref.slot);
}

}  // namespace

core::Placement flipped(core::Placement placement) noexcept {
  return placement == core::Placement::kLocalWrite
             ? core::Placement::kLocalRead
             : core::Placement::kLocalWrite;
}

Bytes lease_for(const capacity::ResidencyParams& params,
                const CachedProfile& profile) {
  // Snapshot and op basis are fleet-wide per iteration: all ranks of
  // every edge (same basis as RunningTask::snapshot_bytes_per_iteration).
  const Bytes snapshot = profile.bytes_per_iteration;
  const std::uint64_t ops = profile.objects_per_iteration;
  const std::uint32_t iterations = profile.iterations;
  const capacity::RetentionParams& retention = params.retention;
  // Without GC every committed version stays resident until the channel
  // finishes, so the lease must cover the full version volume — the
  // capacity-blind regime. With GC only the retained window is live.
  const Bytes snapshot_live =
      retention.gc ? capacity::retained_bytes(snapshot, iterations, retention)
                   : snapshot * iterations;
  return snapshot_live +
         capacity::metadata_peak_bytes(params.nova, ops, iterations);
}

OptionChoice choose_option(const ServiceConfig& config,
                           const CachedProfile& profile, bool flip_placement) {
  if (profile.dag) {
    const bool fuse = config.policy == PlacementPolicy::kDagFusion
                          ? profile.options[kFusedOption].feasible
                          : !profile.options[kSpreadOption].feasible;
    return {fuse ? kFusedOption : kSpreadOption, config.fixed_config};
  }
  core::DeploymentConfig chosen = config.fixed_config;
  if (config.policy == PlacementPolicy::kRecommenderAware) {
    chosen = config.use_rule_based ? profile.rule_based.config
                                   : profile.model_based.config;
  } else if (config.policy == PlacementPolicy::kColocationAware) {
    // Tenants always co-run their components under the faster parallel
    // placement: serial mode would idle the mirrored sockets a
    // co-tenant needs.
    chosen = preferred_parallel_config(profile);
  }
  if (config.policy == PlacementPolicy::kCapacityAware && flip_placement) {
    // Capacity spill: the preferred socket's pool is full, so run the
    // placement-flipped config and land the channel on the other one.
    chosen.placement = flipped(chosen.placement);
  }
  return {config_index(chosen), chosen};
}

Planner::Planner(const ServiceConfig& config, std::uint32_t node_base,
                 std::uint32_t node_count)
    : config_(config),
      node_base_(node_base),
      node_count_(node_count),
      device_fps_(node_count, 0) {
  if (!config_.node_specs.empty()) {
    for (std::uint32_t n = 0; n < node_count; ++n) {
      const std::size_t global = node_base + n;
      if (global >= config_.node_specs.size()) break;
      device_fps_[n] = config_.node_specs[global].devices.fingerprint();
    }
  }
}

bool Planner::heterogeneous() const noexcept {
  return !config_.node_specs.empty();
}

bool Planner::capacity_on() const noexcept {
  return config_.capacity.enabled();
}

SimDuration Planner::estimate_runtime(const CachedProfile& profile,
                                      bool flip_placement) const {
  if (!profile.placeable()) return 0;
  return profile.options[choose_option(config_, profile, flip_placement).index]
      .runtime_ns;
}

Expected<Planner::HeadProfile*> Planner::head_profile(PlanResolver& resolver,
                                                      const Submission& next,
                                                      std::uint32_t node) {
  const std::uint64_t device_fp = device_fps_[node];
  for (HeadProfile& head : heads_) {
    if (head.device_fp == device_fp) return &head;
  }
  auto resolved = resolver.resolve_profile(next, node);
  if (!resolved.has_value()) return Unexpected{resolved.error()};
  HeadProfile& head = heads_.emplace_back();
  head.device_fp = device_fp;
  head.estimate_ns = estimate_runtime(*resolved->profile, false);
  head.resolved = *std::move(resolved);
  return &head;
}

Status Planner::best_candidate(PlanResolver& resolver, const Fleet& fleet,
                               const Submission& next, SimTime now,
                               std::span<const PlannedStep> planned,
                               std::optional<PlacementCandidate>& best) {
  heads_.clear();
  // No pack lands on a node an earlier step of the plan took: a planned
  // tenant's interference would be a guess, not a measurement.
  const auto consumed = [&](std::uint32_t node) {
    return std::ranges::any_of(planned, [&](const PlannedStep& step) {
      return step.candidate.ref.node == node;
    });
  };
  const auto offer = [&](const PlacementCandidate& c, const HeadProfile& head) {
    if (best.has_value() && !better(c, *best)) return;
    best = c;
    best->profile = head.resolved.profile;
    best->cache_hit = head.resolved.cache_hit;
  };
  // A DAG's stages span both sockets regardless of plan, so only a
  // fully-idle node will do, under every policy. Capacity-aware pairs
  // rank idle nodes by lease fit:
  //   0 — fits the preferred socket outright;
  //   1 — fits the node's other socket (spill: run placement-flipped);
  //   2 — fits the preferred socket after evicting cold residue;
  //   3 — fits the other socket after eviction (spill + evict).
  const bool pair = next.dag == nullptr;
  bool tiered = pair && config_.policy == PlacementPolicy::kCapacityAware &&
                capacity_on();
  const auto offer_idle = [&]() -> Status {
    for (std::uint32_t i : idle_) {
      auto found = head_profile(resolver, next, i);
      if (!found.has_value()) return Unexpected{found.error()};
      HeadProfile& head = **found;
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      c.load = config_.policy == PlacementPolicy::kFirstFit
                   ? 0
                   : static_cast<std::uint64_t>(fleet.node(i).busy_ns);
      if (tiered) {
        const capacity::ResidencyTracker& residency = fleet.residency();
        const std::uint32_t preferred = channel_socket_of(config_.fixed_config);
        const Bytes lease = lease_for(config_.capacity, *head.resolved.profile);
        if (residency.fits(i, preferred, lease)) {
          c.tier = 0;
        } else if (residency.fits(i, preferred ^ 1u, lease)) {
          c.tier = 1;
        } else if (residency.fits_after_eviction(i, preferred, lease)) {
          c.tier = 2;
        } else if (residency.fits_after_eviction(i, preferred ^ 1u, lease)) {
          c.tier = 3;
        } else {
          continue;
        }
        c.flip_placement = c.tier % 2 == 1;
      }
      c.estimate_ns = c.flip_placement
                          ? estimate_runtime(*head.resolved.profile, true)
                          : head.estimate_ns;
      head.solo = true;
      offer(c, head);
    }
    return ok_status();
  };
  Status offered = offer_idle();
  if (!offered.has_value()) return offered;
  if (tiered && !best.has_value() && planned.empty() &&
      !fleet.any_task_active(now)) {
    // No pool can hold the lease even after eviction, and neither
    // running work nor earlier steps of this plan will free capacity:
    // place untiered, so a lease larger than any pool still makes
    // progress (charge_lease prices the thrash).
    tiered = false;
    offered = offer_idle();
    if (!offered.has_value()) return offered;
  }
  if (!pair || config_.policy != PlacementPolicy::kColocationAware) {
    return ok_status();
  }

  // Co-location also packs next to a compatible sole incumbent; the
  // pair with the least combined measured slowdown breaks estimate
  // ties. A pack never beats an idle node of its own backend (its
  // estimate is the same runtime, stretched, and its tier loses the
  // tie), so packs are offered only on backends with no idle node.
  for (std::uint32_t i = 0; i < fleet.size(); ++i) {
    const auto target = fleet.pack_slot(i, now);
    if (!target.has_value() || consumed(i)) continue;
    auto found = head_profile(resolver, next, i);
    if (!found.has_value()) return Unexpected{found.error()};
    const HeadProfile& head = **found;
    if (head.solo) continue;
    const RunningTask* incumbent =
        fleet.running(SlotRef{i, *fleet.sole_tenant_slot(i)});
    // A DAG incumbent owns both sockets under its plan; nothing packs
    // next to it.
    if (incumbent->submission.dag != nullptr) continue;
    auto incumbent_profile = resolver.resolve_profile(incumbent->submission, i);
    if (!incumbent_profile.has_value()) {
      return Unexpected{incumbent_profile.error()};
    }
    const CachedProfile& joiner = *head.resolved.profile;
    if (!colocation_compatible(*incumbent_profile->profile, joiner,
                               config_.colocation)) {
      continue;
    }
    auto interference = resolver.resolve_interference(
        *incumbent_profile->profile, incumbent->submission.spec, joiner,
        next.spec, i);
    if (!interference.has_value()) return Unexpected{interference.error()};
    if (!interference->feasible) continue;
    PlacementCandidate c;
    c.ref = SlotRef{i, *target};
    c.packs = true;
    c.factor = interference->slowdown_b;
    c.incumbent_factor = interference->slowdown_a;
    c.estimate_ns = interference_scaled(head.estimate_ns, c.factor);
    c.tier = 1;
    c.cost = interference->slowdown_a + interference->slowdown_b;
    offer(c, head);
  }
  return ok_status();
}

Expected<Plan> Planner::plan(PlanResolver& resolver, const Fleet& fleet,
                             std::span<const Submission* const> window,
                             SimTime now, bool cacheable) {
  PMEMFLOW_ASSERT(!window.empty());
  ++stats_.plans;
  const bool use_cache = config_.planner.plan_cache && cacheable;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> key;
  if (use_cache) {
    key = cache_key(fleet, window, now);
    Hasher64 hasher;
    for (std::uint64_t v : key) hasher.update_u64(v);
    digest = hasher.digest();
    const auto it = cache_.find(digest);
    if (it != cache_.end() && it->second.key == key) {
      ++stats_.cache_hits;
      auto replayed = replay(resolver, fleet, window, it->second.steps);
      if (replayed.has_value()) stats_.planned_steps += replayed->steps.size();
      return replayed;
    }
    ++stats_.cache_misses;
  }
  auto planned = plan_window(resolver, fleet, window, now);
  if (!planned.has_value()) return planned;
  stats_.planned_steps += planned->steps.size();
  if (use_cache) memoize(digest, std::move(key), *planned);
  return planned;
}

Expected<Plan> Planner::plan_window(PlanResolver& resolver, const Fleet& fleet,
                                    std::span<const Submission* const> window,
                                    SimTime now) {
  // Greedy min-estimated-finish insertion over the window, strictly by
  // priority group (every urgent entry is offered a node before any
  // normal entry gets one), dispatch order as the final tie-break. At
  // window 1 this is one decision for the queue head. `idle_` holds the
  // idle nodes no step has taken yet.
  Plan plan;
  fleet.idle_nodes(now, idle_);
  // With no idle node, only a co-location pack could place anything.
  if (idle_.empty() && config_.policy != PlacementPolicy::kColocationAware) {
    return plan;
  }
  for (std::size_t begin = 0, end = 0; begin < window.size(); begin = end) {
    while (end < window.size() &&
           window[end]->priority == window[begin]->priority) {
      ++end;
    }
    // Each round plans the group entry that would finish earliest.
    for (;;) {
      std::optional<PlannedStep> step;
      for (std::size_t e = begin; e < end; ++e) {
        const auto placed = [&](const PlannedStep& s) { return s.entry == e; };
        if (std::ranges::any_of(plan.steps, placed)) continue;
        std::optional<PlacementCandidate> best;
        const Status found =
            best_candidate(resolver, fleet, *window[e], now, plan.steps, best);
        if (!found.has_value()) return Unexpected{found.error()};
        // Strict < keeps the earliest window entry on finish ties.
        if (best.has_value() &&
            (!step.has_value() ||
             best->estimate_ns < step->candidate.estimate_ns)) {
          step = PlannedStep{window[e]->id, static_cast<std::uint32_t>(e),
                             *std::move(best)};
        }
      }
      if (!step.has_value()) break;
      std::erase(idle_, step->candidate.ref.node);
      plan.steps.push_back(*std::move(step));
    }
  }
  return plan;
}

Expected<Plan> Planner::replay(PlanResolver& resolver, const Fleet& fleet,
                               std::span<const Submission* const> window,
                               const std::vector<CompactStep>& steps) {
  Plan plan;
  plan.from_cache = true;
  plan.steps.reserve(steps.size());
  for (const CompactStep& step : steps) {
    PMEMFLOW_ASSERT(step.entry < window.size());
    const Submission& next = *window[step.entry];
    auto profile = resolver.resolve_profile(next, step.ref.node);
    if (!profile.has_value()) return Unexpected{profile.error()};
    PlacementCandidate c;
    c.ref = step.ref;
    c.flip_placement = step.flip_placement;
    c.profile = profile->profile;
    c.cache_hit = profile->cache_hit;
    if (step.packs) {
      const auto tenant = fleet.sole_tenant_slot(step.ref.node);
      PMEMFLOW_ASSERT_MSG(tenant.has_value(),
                          "cached pack step on a node whose occupancy "
                          "diverged from its key");
      const RunningTask* incumbent =
          fleet.running(SlotRef{step.ref.node, *tenant});
      PMEMFLOW_ASSERT(incumbent != nullptr &&
                      incumbent->submission.dag == nullptr);
      auto incumbent_profile =
          resolver.resolve_profile(incumbent->submission, step.ref.node);
      if (!incumbent_profile.has_value()) {
        return Unexpected{incumbent_profile.error()};
      }
      auto pair = resolver.resolve_interference(
          *incumbent_profile->profile, incumbent->submission.spec,
          *profile->profile, next.spec, step.ref.node);
      if (!pair.has_value()) return Unexpected{pair.error()};
      PMEMFLOW_ASSERT_MSG(pair->feasible,
                          "cached pack step's interference turned "
                          "infeasible under an identical key");
      c.packs = true;
      c.factor = pair->slowdown_b;
      c.incumbent_factor = pair->slowdown_a;
    }
    plan.steps.push_back(PlannedStep{next.id, step.entry, std::move(c)});
  }
  return plan;
}

void Planner::memoize(std::uint64_t digest, std::vector<std::uint64_t> key,
                      const Plan& plan) {
  // Bounded memo with a deterministic wholesale clear, the same shape
  // as the rate allocator's solve cache: eviction order must not depend
  // on anything but the insertion sequence.
  if (cache_.size() >= std::max<std::size_t>(1, config_.planner.plan_cache_capacity)) {
    cache_.clear();
    ++stats_.cache_clears;
  }
  CachedPlan cached;
  cached.key = std::move(key);
  cached.steps.reserve(plan.steps.size());
  for (const PlannedStep& step : plan.steps) {
    cached.steps.push_back(CompactStep{step.entry, step.candidate.ref,
                                       step.candidate.packs,
                                       step.candidate.flip_placement});
  }
  cache_[digest] = std::move(cached);
}

std::vector<std::uint64_t> Planner::cache_key(
    const Fleet& fleet, std::span<const Submission* const> window,
    SimTime now) const {
  std::vector<std::uint64_t> key;
  key.reserve(4 + window.size() * 2 + static_cast<std::size_t>(fleet.size()) * 8);
  // Config coordinates a plan depends on. The rest of ServiceConfig is
  // constant per planner, but these gate which enumeration branch runs.
  key.push_back(static_cast<std::uint64_t>(config_.policy) |
                (static_cast<std::uint64_t>(config_.use_rule_based) << 8) |
                (static_cast<std::uint64_t>(heterogeneous()) << 9) |
                (static_cast<std::uint64_t>(capacity_on()) << 10) |
                (static_cast<std::uint64_t>(fleet.tenants_per_node()) << 16));
  key.push_back(static_cast<std::uint64_t>(config_index(config_.fixed_config)));
  // The window's class sequence: behavioural fingerprints + priorities.
  key.push_back(window.size());
  for (const Submission* submission : window) {
    key.push_back(submission->class_fp);
    key.push_back((static_cast<std::uint64_t>(submission->priority) << 1) |
                  static_cast<std::uint64_t>(submission->dag != nullptr));
  }
  // Fleet state: per-node device fingerprint (zero on homogeneous
  // fleets, where the backend is a config constant) and per-slot
  // occupancy — a running incumbent's class decides pack compatibility
  // and interference, a draining slot blocks packing and idleness.
  key.push_back(static_cast<std::uint64_t>(fleet.size()));
  for (std::uint32_t n = 0; n < fleet.size(); ++n) {
    key.push_back(device_fps_[n]);
    const NodeState& node = fleet.node(n);
    for (const SlotState& slot : node.slots) {
      if (slot.running.has_value()) {
        key.push_back(2);
        key.push_back(slot.running->submission.class_fp);
      } else if (slot.free_at_ns > now) {
        key.push_back(1);
      } else {
        key.push_back(0);
      }
    }
  }
  // Idle-node preference order: the *ranking* by accumulated busy time,
  // not the absolute values — every policy compares busy times only
  // ordinally, so two steady-state instants with the same ranking plan
  // identically. This is what lets steady-state traffic hit.
  std::vector<std::uint32_t> by_load;
  fleet.idle_nodes_by_load(now, by_load);
  key.push_back(by_load.size());
  for (std::uint32_t i : by_load) key.push_back(i);
  // Capacity-residency state: fit tiers compare the lease against exact
  // free/evictable bytes, so the key must carry them exactly — a plan
  // made against a roomy pool must never replay on a near-full one.
  if (capacity_on() && !fleet.residency().empty()) {
    const capacity::ResidencyTracker& residency = fleet.residency();
    for (std::uint32_t n = 0; n < fleet.size(); ++n) {
      for (std::uint32_t s = 0; s < kSocketsPerNode; ++s) {
        key.push_back(residency.pool(n, s).free());
        key.push_back(residency.evictable_bytes(n, s));
      }
    }
  }
  return key;
}

}  // namespace pmemflow::service
