// Co-location policy machinery: which workflow classes may share a
// node, and how much they slow each other down when they do.
//
// The paper's §II-A multi-tenancy discussion motivates packing two
// workflows onto one dual-socket node with their writer/reader sockets
// mirrored: tenant A writes on socket 0 and reads on socket 1, tenant B
// the other way around. Whether that is a good idea is a property of
// the *pair* of classes, decided from the same I/O-index
// characterization the recommenders use (§IV-C):
//
//   compatibility — a write-heavy workflow (simulation I/O index
//     dominates) packs with a read-heavy one (analytics I/O index
//     dominates); two workflows heavy on the same direction would fight
//     over the same device bandwidth. Sub-stripe ("small") object
//     classes never pack: their interference is governed by per-DIMM
//     collision behaviour the pairwise model does not capture.
//
//   interference — for admissible pairs the slowdown is *measured*, not
//     guessed: one Runner::run_colocated simulation of the mirrored
//     deployment (each tenant's channel on its preferred parallel
//     placement) against two standalone runs, memoized per unordered
//     class-fingerprint pair *per memory backend* alongside the profile
//     cache (the same pair interferes very differently on Optane than
//     on a symmetric dram-like device). The scheduler charges the
//     measured factor to both tenants' finish events.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>

#include "core/config.hpp"
#include "service/profile_cache.hpp"
#include "workflow/runner.hpp"

namespace pmemflow::service {

/// Knobs of PlacementPolicy::kColocationAware.
struct ColocationParams {
  /// Tenant slots per node (clamped to Fleet::kMaxTenantsPerNode).
  std::uint32_t tenants_per_node = 2;
  /// One component's I/O index must dominate the other's by this margin
  /// for a workflow to count as write- or read-heavy; anything closer
  /// is balanced and never packs.
  double io_index_margin = 1.2;
};

/// Which direction dominates a workflow's device traffic.
enum class IoOrientation : std::uint8_t {
  kWriteHeavy,  ///< simulation (writer) I/O index dominates
  kReadHeavy,   ///< analytics (reader) I/O index dominates
  kBalanced,    ///< neither dominates by the margin
};

[[nodiscard]] const char* to_string(IoOrientation orientation) noexcept;

[[nodiscard]] IoOrientation io_orientation(const core::WorkflowProfile& profile,
                                           double margin) noexcept;

/// True when the two classes form a write-heavy + read-heavy pair and
/// neither uses sub-stripe objects. Core capacity is checked by the
/// interference table (it knows the platform).
[[nodiscard]] bool colocation_compatible(const CachedProfile& a,
                                         const CachedProfile& b,
                                         const ColocationParams& params);

/// The faster of the two parallel-mode Table I configurations for this
/// class (P-LocW on ties). Co-located tenants always co-run their
/// components: serial mode would idle half the node's cores.
[[nodiscard]] core::DeploymentConfig preferred_parallel_config(
    const CachedProfile& profile);

/// Measured mutual slowdown of one class pair sharing a node.
struct PairInterference {
  /// False when the pair cannot run together at all (joint rank demand
  /// exceeds a socket's cores under the mirrored deployment).
  bool feasible = false;
  double slowdown_a = 1.0;
  double slowdown_b = 1.0;
};

struct InterferenceStats {
  /// Pairs actually simulated (one colocated + two standalone runs).
  std::uint64_t measurements = 0;
  /// Lookups served from the memo.
  std::uint64_t hits = 0;
};

/// Pairwise interference table, memoized per unordered class pair.
/// Owned by the scheduler alongside the profile cache and, like it,
/// persistent across run() calls: each class pair costs one colocated
/// simulation ever.
class InterferenceTable {
 public:
  explicit InterferenceTable(workflow::Runner runner = workflow::Runner());

  /// The one lookup path: slowdown factors for running `a` and `b`
  /// together on the backend `device_fp` fingerprints, oriented to the
  /// call's argument order. Keyed on the profiles' class fingerprints
  /// and `device_fp`, so the pair is measured (and memoized) once per
  /// distinct backend; propagates simulation errors. `backend` is read
  /// only on a miss and may be null for the table's default backend
  /// (its Runner's devices).
  [[nodiscard]] Expected<PairInterference> lookup_keyed(
      const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
      const CachedProfile& b, const workflow::WorkflowSpec& spec_b,
      std::uint64_t device_fp, const devices::NodeDevices* backend);

  /// lookup_keyed on the table's default backend.
  [[nodiscard]] Expected<PairInterference> lookup(
      const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
      const CachedProfile& b, const workflow::WorkflowSpec& spec_b);

  /// lookup_keyed on an explicit node backend.
  [[nodiscard]] Expected<PairInterference> lookup(
      const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
      const CachedProfile& b, const workflow::WorkflowSpec& spec_b,
      const devices::NodeDevices& backend);

  [[nodiscard]] const InterferenceStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return pairs_.size(); }

  /// Applies to the owned runner and to every temporary cross-backend
  /// runner a measurement spins up. Default on.
  void set_allocator_memoization(bool enabled) noexcept {
    allocator_memoization_ = enabled;
    runner_.set_allocator_memoization(enabled);
  }

  /// Rate-allocator counters of every measurement this table has run
  /// (owned runner plus torn-down cross-backend runners).
  [[nodiscard]] pmemsim::AllocatorCounters allocator_counters()
      const noexcept {
    pmemsim::AllocatorCounters total = runner_.allocator_counters();
    total += extra_allocator_counters_;
    return total;
  }

 private:
  workflow::Runner runner_;
  bool allocator_memoization_ = true;
  /// Counters of torn-down cross-backend runners.
  pmemsim::AllocatorCounters extra_allocator_counters_;
  /// Keyed by (min fingerprint, max fingerprint, device fingerprint of
  /// the backend the pair was measured on); slowdowns stored in
  /// canonical (min, max) order.
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           PairInterference>
      pairs_;
  InterferenceStats stats_;
};

}  // namespace pmemflow::service
