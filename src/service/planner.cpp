#include "service/planner.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "service/scheduler.hpp"

namespace pmemflow::service {
namespace {

/// Stage-2 score: strict lexicographic (tier, load, cost, node, slot),
/// lower wins. Candidates are enumerated node-ascending, so keeping the
/// first strict minimum reproduces every legacy keep-first tie-break.
bool score_better(const PlacementCandidate& a, const PlacementCandidate& b) {
  if (a.tier != b.tier) return a.tier < b.tier;
  if (a.load != b.load) return a.load < b.load;
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.ref.node != b.ref.node) return a.ref.node < b.ref.node;
  return a.ref.slot < b.ref.slot;
}

/// Lookahead score: estimated finish first, policy score as tie-break.
bool estimate_better(const PlacementCandidate& a, const PlacementCandidate& b) {
  if (a.estimate_ns != b.estimate_ns) return a.estimate_ns < b.estimate_ns;
  return score_better(a, b);
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

SimDuration Planner::estimate_runtime(const PlacementCandidate& c) const {
  // The capacity untracked fallback has no profile; an unplaceable DAG
  // still gets a step — the commit stage drops it. Neither costs node
  // time.
  if (c.profile == nullptr || !c.profile->placeable()) return 0;
  const OptionChoice choice =
      choose_option(config_, *c.profile, c.flip_placement);
  const SimDuration runtime = c.profile->options[choice.index].runtime_ns;
  return c.packs ? interference_scaled(runtime, c.factor) : runtime;
}

Expected<std::vector<PlacementCandidate>> Planner::enumerate(
    PlanResolver& resolver, const Fleet& fleet, const Submission& next,
    SimTime now, const std::vector<bool>& consumed, bool lookahead) {
  std::vector<PlacementCandidate> out;
  std::vector<std::uint32_t> idle;
  fleet.idle_nodes(now, idle);
  if (!consumed.empty()) {
    std::erase_if(idle, [&](std::uint32_t i) { return consumed[i]; });
  }
  const bool first_fit = config_.policy == PlacementPolicy::kFirstFit;
  const auto solo_load = [&](std::uint32_t i) -> std::uint64_t {
    return first_fit ? 0 : static_cast<std::uint64_t>(fleet.node(i).busy_ns);
  };

  // A DAG's stages span both sockets regardless of plan, so only a
  // fully-idle node will do: every policy places it by the plain solo
  // loop at the bottom.
  const bool is_dag = next.dag != nullptr;
  if (!is_dag && config_.policy == PlacementPolicy::kColocationAware) {
    // The candidate's class profile is needed before commit: pair
    // compatibility and the interference charge depend on it. On a
    // homogeneous fleet it is node-independent and resolved once up
    // front — before the idle scan, because the lookup order (hence
    // the profile cache's LRU state and hit counters) is part of the
    // window-1 equivalence contract. Heterogeneous fleets resolve per
    // candidate node.
    std::shared_ptr<const CachedProfile> head;
    bool head_hit = false;
    if (!heterogeneous()) {
      auto profile = resolver.resolve_profile(next, 0);
      if (!profile.has_value()) return Unexpected{profile.error()};
      head = profile->profile;
      head_hit = profile->cache_hit;
    }

    // Preference 1: an empty node (least-loaded) — solo running is
    // always at least as fast as packing on the same backend.
    for (std::uint32_t i : idle) {
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      c.load = solo_load(i);
      c.profile = head;
      c.cache_hit = head_hit;
      if (lookahead) {
        if (heterogeneous()) {
          auto profile = resolver.resolve_profile(next, i);
          if (!profile.has_value()) return Unexpected{profile.error()};
          c.profile = profile->profile;
          c.cache_hit = profile->cache_hit;
        }
        c.estimate_ns = estimate_runtime(c);
      }
      out.push_back(std::move(c));
    }
    // The legacy greedy never considered packs while any node was idle;
    // preserved exactly at window 1 (no incumbent lookups happen). A
    // lookahead window keeps both options: a pack on a fast backend can
    // beat a solo slot on a slow one.
    if (!out.empty() && !lookahead) return out;

    // Preference 2: pack next to a compatible sole incumbent; the pair
    // with the least combined measured slowdown wins (tier 1, so any
    // solo candidate still beats every pack at window 1).
    for (std::uint32_t i = 0; i < fleet.size(); ++i) {
      if (!consumed.empty() && consumed[i]) continue;
      const auto target = fleet.pack_slot(i, now);
      if (!target.has_value()) continue;
      std::shared_ptr<const CachedProfile> joiner = head;
      bool joiner_hit = head_hit;
      if (heterogeneous()) {
        // The candidate's profile on *this* node's backend.
        auto profile = resolver.resolve_profile(next, i);
        if (!profile.has_value()) return Unexpected{profile.error()};
        joiner = profile->profile;
        joiner_hit = profile->cache_hit;
      }
      const RunningTask* incumbent =
          fleet.running(SlotRef{i, *fleet.sole_tenant_slot(i)});
      // A DAG incumbent owns both sockets under its plan; nothing packs
      // next to it.
      if (incumbent->submission.dag != nullptr) continue;
      auto incumbent_profile =
          resolver.resolve_profile(incumbent->submission, i);
      if (!incumbent_profile.has_value()) {
        return Unexpected{incumbent_profile.error()};
      }
      if (!colocation_compatible(*incumbent_profile->profile, *joiner,
                                 config_.colocation)) {
        continue;
      }
      auto pair = resolver.resolve_interference(
          *incumbent_profile->profile, incumbent->submission.spec, *joiner,
          next.spec, i);
      if (!pair.has_value()) return Unexpected{pair.error()};
      if (!pair->feasible) continue;
      PlacementCandidate c;
      c.ref = SlotRef{i, *target};
      c.packs = true;
      c.factor = pair->slowdown_b;
      c.incumbent_factor = pair->slowdown_a;
      c.profile = joiner;
      c.cache_hit = joiner_hit;
      c.tier = 1;
      c.cost = pair->slowdown_a + pair->slowdown_b;
      if (lookahead) c.estimate_ns = estimate_runtime(c);
      out.push_back(std::move(c));
    }
    return out;
  }

  if (!is_dag && config_.policy == PlacementPolicy::kCapacityAware &&
      capacity_on()) {
    // Rank fully-idle nodes by fit tier, then least busy time:
    //   0 — lease fits the preferred socket outright;
    //   1 — fits the node's other socket (spill: run placement-flipped);
    //   2 — fits the preferred socket after evicting cold residue;
    //   3 — fits the other socket after eviction (spill + evict).
    const std::uint32_t preferred = channel_socket_of(config_.fixed_config);
    const std::uint32_t other = preferred ^ 1u;
    const capacity::ResidencyTracker& residency = fleet.residency();
    for (std::uint32_t i : idle) {
      auto profile = resolver.resolve_profile(next, i);
      if (!profile.has_value()) return Unexpected{profile.error()};
      const Bytes lease =
          lease_for(config_.capacity, *profile->profile);
      std::uint64_t tier = 0;
      bool flip = false;
      if (residency.fits(i, preferred, lease)) {
        tier = 0;
      } else if (residency.fits(i, other, lease)) {
        tier = 1;
        flip = true;
      } else if (residency.fits_after_eviction(i, preferred, lease)) {
        tier = 2;
      } else if (residency.fits_after_eviction(i, other, lease)) {
        tier = 3;
        flip = true;
      } else {
        continue;
      }
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      c.profile = profile->profile;
      c.cache_hit = profile->cache_hit;
      c.flip_placement = flip;
      c.lease_bytes = lease;
      c.tier = tier;
      c.load = static_cast<std::uint64_t>(fleet.node(i).busy_ns);
      if (lookahead) c.estimate_ns = estimate_runtime(c);
      out.push_back(std::move(c));
    }
    if (!out.empty()) return out;
    // No pool can hold the lease even after eviction. If running work
    // will free capacity — or earlier steps of this window are about to
    // occupy nodes — wait for a completion; otherwise fall back to bare
    // least-loaded so a lease larger than any pool still makes progress
    // (charge_lease prices the thrash).
    bool any_consumed = false;
    for (std::size_t i = 0; i < consumed.size(); ++i) {
      any_consumed = any_consumed || consumed[i];
    }
    if (fleet.any_task_active(now) || any_consumed) return out;
    for (std::uint32_t i : idle) {
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      c.tier = 4;  // untracked fallback: no profile, lease sized at commit
      c.load = static_cast<std::uint64_t>(fleet.node(i).busy_ns);
      out.push_back(std::move(c));
    }
    return out;
  }

  if (!is_dag && config_.policy == PlacementPolicy::kRecommenderAware &&
      heterogeneous()) {
    // Backend-aware routing: among fully-idle nodes, place the class on
    // the backend where its recommended configuration runs fastest —
    // e.g. a read-heavy class whose remote reads are the bottleneck on
    // Optane routes to a locality-free backend. Lowest node index
    // breaks runtime ties deterministically.
    for (std::uint32_t i : idle) {
      auto profile = resolver.resolve_profile(next, i);
      if (!profile.has_value()) return Unexpected{profile.error()};
      const OptionChoice choice =
          choose_option(config_, *profile->profile, /*flip_placement=*/false);
      const SimDuration runtime =
          profile->profile->options[choice.index].runtime_ns;
      PlacementCandidate c;
      c.ref = SlotRef{i, 0};
      c.load = static_cast<std::uint64_t>(runtime);
      if (lookahead) {
        // Window 1 deliberately leaves the profile unresolved on the
        // candidate: the legacy router returned only the node and the
        // commit stage re-resolved, so the cache traffic must match.
        c.profile = profile->profile;
        c.cache_hit = profile->cache_hit;
        c.estimate_ns = runtime;
      }
      out.push_back(std::move(c));
    }
    return out;
  }

  // Plain solo placement: every DAG, and pairs under kFirstFit,
  // kLeastLoaded, homogeneous kRecommenderAware, kDagFusion, and
  // kCapacityAware without the capacity model. kFirstFit keeps its
  // index preference, every other policy places least-loaded. No
  // profile is needed to decide, so none is resolved at window 1 (the
  // commit stage does it).
  for (std::uint32_t i : idle) {
    PlacementCandidate c;
    c.ref = SlotRef{i, 0};
    c.load = solo_load(i);
    if (lookahead) {
      auto profile = resolver.resolve_profile(next, i);
      if (!profile.has_value()) return Unexpected{profile.error()};
      c.profile = profile->profile;
      c.cache_hit = profile->cache_hit;
      c.estimate_ns = estimate_runtime(c);
    }
    out.push_back(std::move(c));
  }
  return out;
}

Status Planner::finalize(PlanResolver& resolver, const Submission& next,
                         PlacementCandidate& candidate) {
  if (config_.policy == PlacementPolicy::kColocationAware && heterogeneous() &&
      !candidate.packs) {
    // The winning solo node's backend decides the profile (the pack
    // path resolved it during enumeration).
    auto profile = resolver.resolve_profile(next, candidate.ref.node);
    if (!profile.has_value()) return Unexpected{profile.error()};
    candidate.profile = profile->profile;
    candidate.cache_hit = profile->cache_hit;
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
  if (use_cache) memoize(digest, std::move(key), *planned, window);
  return planned;
}

Expected<Plan> Planner::plan_window(PlanResolver& resolver, const Fleet& fleet,
                                    std::span<const Submission* const> window,
                                    SimTime now) {
  Plan plan;
  if (window.size() == 1) {
    // Greedy fast path: enumerate → score → finalize the single winner.
    // Byte-identical to the legacy one-at-a-time chooser, including the
    // profile-cache lookup order.
    const Submission& next = *window.front();
    auto candidates =
        enumerate(resolver, fleet, next, now, {}, /*lookahead=*/false);
    if (!candidates.has_value()) return Unexpected{candidates.error()};
    if (candidates->empty()) return plan;
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates->size(); ++i) {
      if (score_better((*candidates)[i], (*candidates)[best])) best = i;
    }
    PlacementCandidate chosen = std::move((*candidates)[best]);
    const Status finalized = finalize(resolver, next, chosen);
    if (!finalized.has_value()) return Unexpected{finalized.error()};
    plan.steps.push_back(PlannedStep{next.id, 0, std::move(chosen)});
    return plan;
  }

  // Bounded lookahead: greedy min-estimated-finish insertion over the
  // window, strictly by priority group (every urgent entry is offered a
  // node before any normal entry gets one), dispatch order as the final
  // tie-break — at window 1 this degenerates to exactly the greedy
  // path above. The overlay marks nodes taken by earlier steps of this
  // plan; planned tenants are never packed onto within the same window
  // (their interference would be a guess, not a measurement).
  std::vector<bool> consumed(fleet.size(), false);
  std::vector<bool> placed(window.size(), false);
  std::size_t group_begin = 0;
  while (group_begin < window.size()) {
    const Priority group = window[group_begin]->priority;
    std::size_t group_end = group_begin;
    while (group_end < window.size() &&
           window[group_end]->priority == group) {
      ++group_end;
    }
    bool progress = true;
    while (progress) {
      progress = false;
      std::optional<std::size_t> best_entry;
      std::optional<PlacementCandidate> best_candidate;
      SimTime best_finish = 0;
      for (std::size_t e = group_begin; e < group_end; ++e) {
        if (placed[e]) continue;
        auto candidates = enumerate(resolver, fleet, *window[e], now, consumed,
                                    /*lookahead=*/true);
        if (!candidates.has_value()) return Unexpected{candidates.error()};
        std::optional<std::size_t> local;
        for (std::size_t i = 0; i < candidates->size(); ++i) {
          if (!local.has_value() ||
              estimate_better((*candidates)[i], (*candidates)[*local])) {
            local = i;
          }
        }
        if (!local.has_value()) continue;  // nothing for this entry yet
        PlacementCandidate& c = (*candidates)[*local];
        const SimTime finish = now + c.estimate_ns;
        // Strict < keeps the earliest window entry on finish ties.
        if (!best_entry.has_value() || finish < best_finish) {
          best_entry = e;
          best_candidate = std::move(c);
          best_finish = finish;
        }
      }
      if (best_entry.has_value()) {
        consumed[best_candidate->ref.node] = true;
        placed[*best_entry] = true;
        plan.steps.push_back(PlannedStep{
            window[*best_entry]->id, static_cast<std::uint32_t>(*best_entry),
            std::move(*best_candidate)});
        progress = true;
      }
    }
    group_begin = group_end;
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
    PlacementCandidate c;
    c.ref = step.ref;
    c.flip_placement = step.flip_placement;
    switch (step.kind) {
      case StepKind::kPack: {
        auto joiner = resolver.resolve_profile(next, step.ref.node);
        if (!joiner.has_value()) return Unexpected{joiner.error()};
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
            *joiner->profile, next.spec, step.ref.node);
        if (!pair.has_value()) return Unexpected{pair.error()};
        PMEMFLOW_ASSERT_MSG(pair->feasible,
                            "cached pack step's interference turned "
                            "infeasible under an identical key");
        c.packs = true;
        c.factor = pair->slowdown_b;
        c.incumbent_factor = pair->slowdown_a;
        c.profile = joiner->profile;
        c.cache_hit = joiner->cache_hit;
        break;
      }
      case StepKind::kCapacity: {
        auto profile = resolver.resolve_profile(next, step.ref.node);
        if (!profile.has_value()) return Unexpected{profile.error()};
        c.profile = profile->profile;
        c.cache_hit = profile->cache_hit;
        c.lease_bytes = lease_for(config_.capacity, *profile->profile);
        break;
      }
      case StepKind::kCapacityFallback:
      case StepKind::kSolo:
        // Bare placement, a DAG's included: the commit stage resolves
        // the profile (and, for the fallback, sizes the lease), exactly
        // like a fresh window-1 plan.
        break;
    }
    plan.steps.push_back(PlannedStep{next.id, step.entry, std::move(c)});
  }
  return plan;
}

void Planner::memoize(std::uint64_t digest, std::vector<std::uint64_t> key,
                      const Plan& plan,
                      std::span<const Submission* const> window) {
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
    CompactStep compact;
    compact.entry = step.entry;
    compact.ref = step.candidate.ref;
    compact.flip_placement = step.candidate.flip_placement;
    if (step.candidate.packs) {
      compact.kind = StepKind::kPack;
    } else if (config_.policy == PlacementPolicy::kCapacityAware &&
               capacity_on() && window[step.entry]->dag == nullptr) {
      compact.kind = step.candidate.tier == 4 ? StepKind::kCapacityFallback
                                              : StepKind::kCapacity;
    } else {
      compact.kind = StepKind::kSolo;
    }
    cached.steps.push_back(compact);
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
