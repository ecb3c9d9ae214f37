#include "service/sharding.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "service/region.hpp"

namespace pmemflow::service {
namespace {

/// splitmix64 finalizer: full-avalanche mix of the submission id.
/// Sequential ids (the common generator pattern) would make `id % R`
/// assign long runs to one region; the mix spreads them evenly while
/// staying a pure function of the id.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint32_t region_of(std::uint64_t id, std::uint32_t regions) noexcept {
  if (regions <= 1) return 0;
  return static_cast<std::uint32_t>(splitmix64(id) % regions);
}

std::uint32_t region_node_count(std::uint32_t nodes, std::uint32_t regions,
                                std::uint32_t region) noexcept {
  return nodes / regions + (region < nodes % regions ? 1u : 0u);
}

std::uint32_t region_node_base(std::uint32_t nodes, std::uint32_t regions,
                               std::uint32_t region) noexcept {
  const std::uint32_t per = nodes / regions;
  const std::uint32_t extra = nodes % regions;
  return region * per + std::min(region, extra);
}

EpochRunStats run_epochs(std::span<const std::unique_ptr<Region>> regions,
                         SimDuration epoch_ns) {
  EpochRunStats stats;
  const std::size_t count = regions.size();
  epoch_ns = std::max<SimDuration>(1, epoch_ns);

  // Boundary strictly after the earliest pending event: every epoch
  // processes at least that event, so the run always progresses.
  auto next_boundary = [&]() -> std::optional<SimTime> {
    std::optional<SimTime> min_next;
    for (const auto& region : regions) {
      const auto next = region->next_event_time();
      if (next.has_value() && (!min_next.has_value() || *next < *min_next)) {
        min_next = next;
      }
    }
    if (!min_next.has_value()) return std::nullopt;
    return epoch_ns * (*min_next / epoch_ns + 1);
  };

  for (auto boundary = next_boundary(); boundary.has_value();) {
    for (const auto& region : regions) region->advance_until(*boundary);

    // The barrier step: detect failures, migrate stuck queue heads,
    // pick the next boundary.
    ++stats.epochs;
    for (const auto& region : regions) {
      if (region->failure().has_value()) {
        stats.failure = region->failure();
        return stats;
      }
    }
    // Deterministic work stealing, donors and targets both in
    // region-index order. A donor's head is stuck behind a fully-busy
    // sub-fleet; the lowest-index idle-and-empty region takes it, one
    // submission per donor and per target each barrier. The migrated
    // submission re-enters arrival at the barrier time with a fresh
    // retry budget (it was admitted once already; the new region's
    // queue re-classifies it). Its next placement is planned by the
    // *target* region's planner over the target's node slice — plan
    // caches are per-region, so the migration can't replay a decision
    // keyed on the donor's fleet state.
    std::vector<bool> used(count, false);
    for (std::size_t donor = 0; donor < count; ++donor) {
      if (!regions[donor]->has_stealable_head(*boundary)) continue;
      for (std::size_t target = 0; target < count; ++target) {
        if (target == donor || used[target]) continue;
        if (!regions[target]->can_accept(*boundary)) continue;
        regions[target]->inject(regions[donor]->steal_head(), *boundary);
        used[target] = true;
        ++stats.shard_migrations;
        break;
      }
    }
    const auto next = next_boundary();
    PMEMFLOW_ASSERT_MSG(!next.has_value() || *next > *boundary,
                        "epoch boundary must advance");
    boundary = next;
  }
  return stats;
}

}  // namespace pmemflow::service
