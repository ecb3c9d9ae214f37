// Epoch-synchronized fleet sharding.
//
// The service fleet can be partitioned into *regions*: contiguous node
// slices, each a sub-scheduler with its own sim::EventQueue, Fleet,
// SubmissionQueue and Planner (candidate/score stages plus the memoized
// plan cache — service/planner.hpp). A region's planner plans only over
// the region's own node slice, so lookahead windows and plan caches
// never observe another region's fleet state. Every region shares the
// scheduler's one ProfileCache and InterferenceTable: a profile is a
// pure function of (class, backend), so a class is characterized once
// per run whichever region asks first. Submissions route to regions by
// a stable hash of their id (splitmix64 — the route depends only on
// the submission, so replays are reproducible no matter how the stream
// was generated or reordered).
//
// Regions interact ONLY at epoch barriers. The driver advances each
// region in region-index order to the next boundary t = Δ·k (each
// region processes events strictly *before* the boundary), then
// performs the cross-region exchange, also in region-index order:
//
//   - failed regions propagate their error and stop the run;
//   - queued work migrates: a region whose queue head is stuck behind a
//     fully-busy sub-fleet donates it to the lowest-index region with
//     an empty queue and an idle node (one steal per donor per barrier;
//     each target accepts at most one). The migrated submission
//     re-enters arrival at the barrier time, landing in the next epoch.
//
// Region count R and epoch length Δ are *semantic* knobs: changing
// either changes the (deterministic) schedule. Everything runs on the
// calling thread.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/expected.hpp"
#include "common/units.hpp"

namespace pmemflow::service {

class Region;

/// Sharding knobs of ServiceConfig.
struct ShardingConfig {
  /// Fleet regions. 1 (default) = the classic unsharded scheduler; the
  /// scheduler clamps this to the node count. Semantic knob: changing
  /// it changes the schedule (deterministically).
  std::uint32_t regions = 1;
  /// Epoch length Δ. Regions synchronize at multiples of Δ; larger
  /// epochs amortize barrier cost but delay cross-region migration.
  /// Semantic knob (with regions > 1).
  SimDuration epoch_ns = 250 * kMillisecond;
  /// Unread: regions run on the calling thread. Kept only because the
  /// replay benchmark (perfbench) still sets it.
  std::uint32_t threads = 0;

  [[nodiscard]] bool enabled() const noexcept { return regions > 1; }
};

/// Region owning submission `id` under an `regions`-way split (stable
/// splitmix64 of the id — independent of stream order and node count).
[[nodiscard]] std::uint32_t region_of(std::uint64_t id,
                                      std::uint32_t regions) noexcept;

/// Nodes owned by `region` when `nodes` split `regions` ways: regions
/// are contiguous slices in index order, the first nodes % regions of
/// them one node larger. Requires region < regions <= nodes.
[[nodiscard]] std::uint32_t region_node_count(std::uint32_t nodes,
                                              std::uint32_t regions,
                                              std::uint32_t region) noexcept;

/// Global index of `region`'s first node (the sum of the preceding
/// regions' node counts).
[[nodiscard]] std::uint32_t region_node_base(std::uint32_t nodes,
                                             std::uint32_t regions,
                                             std::uint32_t region) noexcept;

/// Outcome of one epoch-barrier run.
struct EpochRunStats {
  /// Barriers executed (== epochs the run spanned).
  std::uint64_t epochs = 0;
  /// Queued submissions migrated across regions at barriers.
  std::uint64_t shard_migrations = 0;
  /// First region failure, in region-index order (the run stops at the
  /// barrier that observes it).
  std::optional<Error> failure;
};

/// Advances every region to completion under the epoch barrier.
/// Regions must be seeded; on return every region's queues and event
/// queues are empty unless a failure stopped the run.
[[nodiscard]] EpochRunStats run_epochs(
    std::span<const std::unique_ptr<Region>> regions, SimDuration epoch_ns);

}  // namespace pmemflow::service
