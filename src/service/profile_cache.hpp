// Memoized workflow characterization + recommendation (LRU).
//
// Characterizing a workflow costs a four-configuration sweep: its two
// serial runs are the standalone component runs the profile is derived
// from (§IV-C), and its four runtimes are the oracle data the service's
// slowdown metric needs. Online, the same workflow *classes* recur
// constantly (the paper's premise: I/O indexes are reusable per-class
// profiles, §IV-C), so the service memoizes the whole characterization
// bundle keyed by (workflow::class_fingerprint, device fingerprint of
// the memory backend the profile was measured on). Repeat submissions
// of a class skip the four-config solve entirely; the cache returns the
// exact object computed the first time, so a hit is byte-identical to a
// fresh characterization. The device half of the key matters on
// heterogeneous fleets: an Optane profile and a dram-like profile of
// the same class disagree on runtimes *and* on the recommended
// configuration, so serving one for the other would mis-place work.
//
// Bounded capacity with least-recently-used eviction; hit/miss/eviction
// counters feed the service report.
#pragma once

#include <algorithm>
#include <array>
#include <list>
#include <memory>
#include <unordered_map>

#include "core/autotuner.hpp"
#include "dag/plan.hpp"
#include "devices/registry.hpp"

namespace pmemflow::service {

/// Everything the service ever needs to know about one workflow class.
struct CachedProfile {
  /// Workflow-class half of the cache key (label-insensitive).
  std::uint64_t fingerprint = 0;
  /// Device half of the cache key: fingerprint of the NodeDevices the
  /// profile was measured against.
  std::uint64_t device_fingerprint = 0;
  core::WorkflowProfile profile;
  core::Recommendation rule_based;
  core::Recommendation model_based;
  /// Simulated runtime under each Table I configuration (Table I
  /// order), from the oracle sweep.
  std::array<SimDuration, 4> runtime_ns{};
  /// Index of the fastest configuration in runtime_ns.
  std::size_t best_index = 0;

  [[nodiscard]] SimDuration best_runtime_ns() const noexcept {
    return runtime_ns[best_index];
  }
};

/// Everything the service ever needs to know about one DAG class: the
/// two candidate placements (spread baseline, fusion search) with their
/// measured runtimes, plus the byte/object volume the lease sizing
/// needs. A plan can be infeasible on this node shape (per-socket core
/// demand too high); an unplaceable class (neither plan fits) is still
/// cached so the region can drop repeats without re-planning.
struct CachedDagProfile {
  /// DAG-class half of the cache key (dag::class_fingerprint).
  std::uint64_t fingerprint = 0;
  /// Device half of the cache key.
  std::uint64_t device_fingerprint = 0;
  bool spread_feasible = false;
  bool fused_feasible = false;
  /// Spread baseline: alternate sockets by depth, consumer-local
  /// channels (a 2-node chain lands exactly on the pair P-LocR shape).
  dag::FusionPlan spread;
  /// Fusion search result (minimum Table II edge cost).
  dag::FusionPlan fused;
  /// Measured dag::run runtimes under each feasible plan.
  SimDuration spread_runtime_ns = 0;
  SimDuration fused_runtime_ns = 0;
  /// Channel bytes all edges materialize per iteration (lease basis).
  Bytes bytes_per_iteration = 0;
  /// Objects all edges move per iteration (metadata lease basis).
  std::uint64_t objects_per_iteration = 0;
  std::uint32_t iterations = 1;

  /// True when at least one plan fits the node shape.
  [[nodiscard]] bool placeable() const noexcept {
    return spread_feasible || fused_feasible;
  }
  /// Fastest feasible runtime (0 when unplaceable).
  [[nodiscard]] SimDuration best_runtime_ns() const noexcept {
    if (spread_feasible && fused_feasible) {
      return std::min(spread_runtime_ns, fused_runtime_ns);
    }
    return spread_feasible ? spread_runtime_ns
                           : (fused_feasible ? fused_runtime_ns : 0);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

class ProfileCache {
 public:
  explicit ProfileCache(std::size_t capacity,
                        core::Executor executor = core::Executor(),
                        core::Recommender recommender = core::Recommender());

  /// The one lookup path: the entry keyed on (`class_fp`, `device_fp`),
  /// characterizing (and caching) on miss. `class_fp` must be
  /// workflow::class_fingerprint(spec) and `device_fp` the fingerprint of
  /// `backend`; the caller computes both once (the service stamps class
  /// keys per run and device fingerprints per node). `spec` and
  /// `backend` are read only on a miss, and `backend` may be null when
  /// `device_fp` is default_device_fingerprint(). The shared_ptr stays
  /// valid after eviction.
  [[nodiscard]] Expected<std::shared_ptr<const CachedProfile>> lookup_keyed(
      const workflow::WorkflowSpec& spec, std::uint64_t class_fp,
      std::uint64_t device_fp, const devices::NodeDevices* backend);

  /// Returns the class profile on the cache's default backend (the one
  /// its Executor was built with): lookup_keyed with the digest
  /// computed here.
  [[nodiscard]] Expected<std::shared_ptr<const CachedProfile>> lookup(
      const workflow::WorkflowSpec& spec);

  /// Returns the class profile *as measured on `backend`*: same class,
  /// different backend is a distinct cache entry. When `backend`
  /// matches the default backend this is exactly lookup(spec).
  [[nodiscard]] Expected<std::shared_ptr<const CachedProfile>> lookup(
      const workflow::WorkflowSpec& spec,
      const devices::NodeDevices& backend);

  /// Fresh characterization on the default backend that bypasses the
  /// cache entirely (used by tests to prove hits are identical to
  /// recomputation).
  [[nodiscard]] Expected<CachedProfile> characterize(
      const workflow::WorkflowSpec& spec) const;

  /// Fresh characterization on an explicit backend.
  [[nodiscard]] Expected<CachedProfile> characterize(
      const workflow::WorkflowSpec& spec,
      const devices::NodeDevices& backend) const;

  /// The one DAG lookup path, keyed like lookup_keyed with `class_fp`
  /// = dag::class_fingerprint(spec). Characterizes (plan + measured run
  /// per feasible plan) on miss. DAG entries live in their own LRU of
  /// the same capacity; hits, misses, and evictions fold into the
  /// shared stats(). Errors only on invalid specs — an unplaceable DAG
  /// caches as !placeable().
  [[nodiscard]] Expected<std::shared_ptr<const CachedDagProfile>>
  lookup_dag_keyed(const dag::DagSpec& spec, std::uint64_t class_fp,
                   std::uint64_t device_fp,
                   const devices::NodeDevices* backend);

  /// DAG-class profile on the default backend (digest computed here).
  [[nodiscard]] Expected<std::shared_ptr<const CachedDagProfile>> lookup_dag(
      const dag::DagSpec& spec);

  /// DAG-class profile as measured on `backend` (heterogeneous fleets).
  [[nodiscard]] Expected<std::shared_ptr<const CachedDagProfile>> lookup_dag(
      const dag::DagSpec& spec, const devices::NodeDevices& backend);

  /// Fresh DAG characterization on the default backend, bypassing the
  /// cache (tests prove hits are identical to recomputation with this).
  [[nodiscard]] Expected<CachedDagProfile> characterize_dag(
      const dag::DagSpec& spec) const;

  /// Fresh DAG characterization on an explicit backend.
  [[nodiscard]] Expected<CachedDagProfile> characterize_dag(
      const dag::DagSpec& spec, const devices::NodeDevices& backend) const;

  /// Device fingerprint of the default backend (what plain lookup()
  /// keys its entries under; computed once, at construction).
  [[nodiscard]] std::uint64_t default_device_fingerprint() const noexcept {
    return default_device_fp_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Rate-allocator counters of every characterization this cache has
  /// run: the owned executor's plus those of the short-lived
  /// cross-backend executors.
  [[nodiscard]] pmemsim::AllocatorCounters allocator_counters()
      const noexcept {
    pmemsim::AllocatorCounters total = executor_.runner().allocator_counters();
    total += extra_allocator_counters_;
    return total;
  }

 private:
  using LruList =
      std::list<std::pair<std::uint64_t, std::shared_ptr<const CachedProfile>>>;
  using DagLruList = std::list<
      std::pair<std::uint64_t, std::shared_ptr<const CachedDagProfile>>>;

  /// Combined (class, device) cache key.
  [[nodiscard]] static std::uint64_t key_of(std::uint64_t class_fp,
                                            std::uint64_t device_fp);
  /// Fresh characterization on the default executor when `device_fp`
  /// is the default backend's, else on a temporary one over `*backend`.
  [[nodiscard]] Expected<CachedProfile> characterize_keyed(
      const workflow::WorkflowSpec& spec, std::uint64_t class_fp,
      std::uint64_t device_fp, const devices::NodeDevices* backend) const;
  [[nodiscard]] Expected<CachedProfile> characterize_on(
      const workflow::WorkflowSpec& spec, std::uint64_t class_fp,
      const core::Executor& executor, std::uint64_t device_fp) const;
  [[nodiscard]] Expected<CachedDagProfile> characterize_dag_keyed(
      const dag::DagSpec& spec, std::uint64_t class_fp,
      std::uint64_t device_fp, const devices::NodeDevices* backend) const;

  std::size_t capacity_;
  core::Executor executor_;
  core::Recommender recommender_;
  std::uint64_t default_device_fp_;
  /// Counters of torn-down cross-backend executors (mutable: const
  /// characterize() creates and destroys them).
  mutable pmemsim::AllocatorCounters extra_allocator_counters_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> entries_;
  DagLruList dag_lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, DagLruList::iterator> dag_entries_;
  CacheStats stats_;
};

}  // namespace pmemflow::service
