// Memoized workflow characterization + recommendation (LRU).
//
// Characterizing a workflow costs a four-configuration sweep: its two
// serial runs are the standalone component runs the profile is derived
// from (§IV-C), and its four runtimes are the oracle data the service's
// slowdown metric needs. Online, the same workflow *classes* recur
// constantly (the paper's premise: I/O indexes are reusable per-class
// profiles, §IV-C), so the service memoizes the whole characterization
// bundle keyed by (class fingerprint, device fingerprint of the memory
// backend the profile was measured on). Repeat submissions of a class
// skip the solve entirely; the cache returns the exact object computed
// the first time, so a hit is byte-identical to a fresh
// characterization. The device half of the key matters on
// heterogeneous fleets: an Optane profile and a dram-like profile of
// the same class disagree on runtimes *and* on the recommended
// configuration, so serving one for the other would mis-place work.
//
// A pair and a DAG share one profile type: a list of plan options (a
// pair's four Table I configurations, or a DAG's spread and fused
// plans, each measured once) plus the lease and snapshot basis. Pair
// and DAG entries live in two LRU lists of the same bounded capacity,
// served by one least-recently-used code path; hit/miss/eviction
// counters of both feed the service report.
#pragma once

#include <array>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/autotuner.hpp"
#include "devices/registry.hpp"
#include "service/types.hpp"

namespace pmemflow::service {

/// One way to run a class on a node — a pair's Table I configuration
/// or a DAG's spread or fused plan — with what the commit stage needs.
struct PlanOption {
  /// Measured runtime under this option (0 when infeasible).
  SimDuration runtime_ns = 0;
  /// False when the option does not fit the node shape (a DAG plan
  /// whose per-socket core demand is too high).
  bool feasible = false;
  /// Socket the capacity lease is charged to: the pair's channel
  /// socket, or the DAG plan's heaviest-channel socket.
  std::uint32_t lease_socket = 0;
  /// Edges whose producer and consumer share a socket (0 for a pair).
  std::uint32_t ephemeral_edges = 0;

  bool operator==(const PlanOption&) const = default;
};

/// Option slots of a DAG profile.
inline constexpr std::size_t kSpreadOption = 0;
inline constexpr std::size_t kFusedOption = 1;

/// Everything the service ever needs to know about one workflow class,
/// a pair or a DAG. An unplaceable DAG (no plan fits the node shape) is
/// still cached, so the region can drop repeats without re-planning.
struct CachedProfile {
  /// Class half of the cache key (workflow:: or dag::class_fingerprint;
  /// label-insensitive).
  std::uint64_t fingerprint = 0;
  /// Device half of the cache key: fingerprint of the NodeDevices the
  /// profile was measured against.
  std::uint64_t device_fingerprint = 0;
  /// True for a DAG class.
  bool dag = false;
  /// The options a policy picks from: a pair's four configurations in
  /// Table I order (all feasible, runtimes from the oracle sweep), or a
  /// DAG's spread (kSpreadOption) and fused (kFusedOption) plans with
  /// dag::run runtimes, the other slots left infeasible.
  std::array<PlanOption, 4> options{};
  /// Fastest feasible option (the first on ties; 0 when none is).
  std::size_t best_index = 0;
  /// Lease and snapshot basis over all ranks and edges: channel bytes
  /// and objects per iteration, and the iteration count (>= 1).
  Bytes bytes_per_iteration = 0;
  std::uint64_t objects_per_iteration = 0;
  std::uint32_t iterations = 1;
  /// Pair classes only: the §IV-C profile co-location reads and the two
  /// recommendations the recommender-aware policy runs.
  core::WorkflowProfile profile;
  core::Recommendation rule_based;
  core::Recommendation model_based;

  /// True when at least one option fits the node shape.
  [[nodiscard]] bool placeable() const noexcept {
    return options[best_index].feasible;
  }
  /// Fastest feasible runtime (0 when unplaceable).
  [[nodiscard]] SimDuration best_runtime_ns() const noexcept {
    return options[best_index].runtime_ns;
  }
};

/// Socket the streaming channel lands on under `config`: writer ranks
/// live on socket 0 and reader ranks on socket 1, so local-write pins
/// the channel to 0 and local-read to 1.
[[nodiscard]] std::uint32_t channel_socket_of(
    const core::DeploymentConfig& config) noexcept;

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  /// Delta of two snapshots of the same cache's counters (`a` taken
  /// after `b`).
  friend CacheStats operator-(CacheStats a, const CacheStats& b) noexcept {
    a.hits -= b.hits;
    a.misses -= b.misses;
    a.evictions -= b.evictions;
    return a;
  }

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

  /// The one lookup path: the profile of `submission`'s class — its
  /// DAG when `dag` is set, else its pair spec — keyed on (its stamped
  /// `class_fp`, `device_fp`), characterizing (and caching) on miss.
  /// `device_fp` must be the fingerprint of `backend`, which is read
  /// only on a miss and may be null when `device_fp` is
  /// default_device_fingerprint(). Errors only on an invalid spec; an
  /// unplaceable DAG caches as !placeable(). The shared_ptr stays valid
  /// after eviction.
  [[nodiscard]] Expected<std::shared_ptr<const CachedProfile>> lookup_keyed(
      const Submission& submission, std::uint64_t device_fp,
      const devices::NodeDevices* backend);

  /// Returns the pair class profile on the cache's default backend (the
  /// one its Executor was built with), computing the class digest here.
  [[nodiscard]] Expected<std::shared_ptr<const CachedProfile>> lookup(
      const workflow::WorkflowSpec& spec);

  /// Returns the pair class profile *as measured on `backend`*: same
  /// class, different backend is a distinct cache entry. When `backend`
  /// matches the default backend this is exactly lookup(spec).
  [[nodiscard]] Expected<std::shared_ptr<const CachedProfile>> lookup(
      const workflow::WorkflowSpec& spec,
      const devices::NodeDevices& backend);

  /// Fresh pair characterization on the default backend that bypasses
  /// the cache entirely (tests prove hits are identical to
  /// recomputation with it).
  [[nodiscard]] Expected<CachedProfile> characterize(
      const workflow::WorkflowSpec& spec) const;

  /// Fresh DAG characterization (a plan and a measured run per feasible
  /// plan) on the default backend, bypassing the cache.
  [[nodiscard]] Expected<CachedProfile> characterize_dag(
      const dag::DagSpec& spec) const;

  /// Device fingerprint of the default backend (what plain lookup()
  /// keys its entries under; computed once, at construction).
  [[nodiscard]] std::uint64_t default_device_fingerprint() const noexcept {
    return default_device_fp_;
  }

  /// Entries cached in both lists.
  [[nodiscard]] std::size_t size() const noexcept {
    return pairs_.entries.size() + dags_.entries.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

  /// Rate-allocator counters of every characterization this cache has
  /// run: the owned executor's plus those of the short-lived
  /// cross-backend executors and DAG runners.
  [[nodiscard]] pmemsim::AllocatorCounters allocator_counters()
      const noexcept {
    pmemsim::AllocatorCounters total = executor_.runner().allocator_counters();
    total += extra_allocator_counters_;
    return total;
  }

 private:
  /// One bounded LRU list: front = most recently used.
  struct Lru {
    using List = std::list<
        std::pair<std::uint64_t, std::shared_ptr<const CachedProfile>>>;
    List order;
    std::unordered_map<std::uint64_t, List::iterator> entries;
  };

  /// Combined (class, device) cache key.
  [[nodiscard]] static std::uint64_t key_of(std::uint64_t class_fp,
                                            std::uint64_t device_fp);
  /// The LRU code path both lists share: the entry of `spec` (a pair or
  /// a DAG spec) in `lru`, characterized and inserted on a miss.
  template <typename Spec>
  [[nodiscard]] Expected<std::shared_ptr<const CachedProfile>> lookup_in(
      Lru& lru, const Spec& spec, std::uint64_t class_fp,
      std::uint64_t device_fp, const devices::NodeDevices* backend);
  /// Fresh characterization on the default backend when `device_fp` is
  /// its fingerprint, else on a temporary one over `*backend`.
  [[nodiscard]] Expected<CachedProfile> characterize_keyed(
      const workflow::WorkflowSpec& spec, std::uint64_t class_fp,
      std::uint64_t device_fp, const devices::NodeDevices* backend) const;
  [[nodiscard]] Expected<CachedProfile> characterize_keyed(
      const dag::DagSpec& spec, std::uint64_t class_fp,
      std::uint64_t device_fp, const devices::NodeDevices* backend) const;

  std::size_t capacity_;
  core::Executor executor_;
  core::Recommender recommender_;
  std::uint64_t default_device_fp_;
  /// Counters of torn-down cross-backend executors and runners
  /// (mutable: const characterize() creates and destroys them).
  mutable pmemsim::AllocatorCounters extra_allocator_counters_;
  /// Pair and DAG entries: `capacity_` each.
  Lru pairs_;
  Lru dags_;
  CacheStats stats_;
};

}  // namespace pmemflow::service
