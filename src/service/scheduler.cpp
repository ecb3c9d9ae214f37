#include "service/scheduler.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "service/class_key.hpp"
#include "service/region.hpp"

namespace pmemflow::service {

OnlineScheduler::OnlineScheduler(ServiceConfig config, core::Executor executor,
                                 core::Recommender recommender)
    : config_(std::move(config)),
      interference_(executor.runner()),
      cache_(config_.cache_capacity, std::move(executor), recommender) {}

void OnlineScheduler::ensure_planners(std::uint32_t regions) {
  // region_count is a pure function of the (immutable) config, so the
  // node slices never shift between run() calls.
  while (planners_.size() < regions) {
    const auto r = static_cast<std::uint32_t>(planners_.size());
    planners_.push_back(std::make_unique<Planner>(
        config_, region_node_base(config_.nodes, regions, r),
        region_node_count(config_.nodes, regions, r)));
  }
}

Expected<ServiceResult> OnlineScheduler::run(
    std::span<const Submission> submissions) {
  if (config_.nodes == 0) {
    return make_error("service config needs at least one fleet node");
  }
  if (!config_.node_specs.empty() &&
      config_.node_specs.size() != config_.nodes) {
    return make_error(
        format("node_specs has %zu entries for a %u-node fleet "
               "(must be empty or exactly one per node)",
               config_.node_specs.size(), config_.nodes));
  }

  // Region count is a semantic knob clamped to the fleet size.
  const std::uint32_t region_count = std::min(
      std::max<std::uint32_t>(1, config_.sharding.regions), config_.nodes);
  ensure_planners(region_count);

  // Planner stats are cumulative per planner (the plan cache persists
  // across runs); this run's share is the before/after delta.
  std::vector<PlannerStats> planner_before(region_count);
  for (std::uint32_t r = 0; r < region_count; ++r) {
    planner_before[r] = planners_[r]->stats();
  }

  std::vector<std::unique_ptr<Region>> regions;
  regions.reserve(region_count);
  for (std::uint32_t r = 0; r < region_count; ++r) {
    regions.push_back(std::make_unique<Region>(
        config_, cache_, interference_, *planners_[r], r,
        region_node_base(config_.nodes, region_count, r),
        region_node_count(config_.nodes, region_count, r)));
  }

  // Cache and allocator counters are cumulative (the pair persists
  // across runs); this run's share is the before/after delta.
  auto allocator_counters = [&] {
    pmemsim::AllocatorCounters total = cache_.allocator_counters();
    total += interference_.allocator_counters();
    return total;
  };
  const pmemsim::AllocatorCounters allocator_before = allocator_counters();
  const CacheStats cache_before = cache_.stats();

  // The service owns class keys: stamp them once on its own copy, so
  // every cache below reads a value it computed itself.
  std::vector<Submission> ordered(submissions.begin(), submissions.end());
  stamp_class_keys(ordered);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Submission& a, const Submission& b) {
                     if (a.arrival_ns != b.arrival_ns) {
                       return a.arrival_ns < b.arrival_ns;
                     }
                     return a.id < b.id;
                   });

  // Route by a stable hash of the id (all to region 0 when unsharded):
  // the split depends only on each submission, never on stream order.
  std::vector<std::vector<Submission>> routed(region_count);
  for (Submission& submission : ordered) {
    routed[region_of(submission.id, region_count)].push_back(
        std::move(submission));
  }
  for (std::uint32_t r = 0; r < region_count; ++r) {
    regions[r]->seed(std::move(routed[r]));
  }

  EpochRunStats epoch_stats;
  if (region_count == 1) {
    regions[0]->run_to_completion();
  } else {
    epoch_stats = run_epochs(regions, config_.sharding.epoch_ns);
  }

  for (const auto& region : regions) {
    if (region->failure().has_value()) {
      return Unexpected{*region->failure()};
    }
  }
  if (epoch_stats.failure.has_value()) {
    return Unexpected{*epoch_stats.failure};
  }
  for (const auto& region : regions) {
    PMEMFLOW_ASSERT_MSG(region->checkpoints_empty(),
                        "checkpointed victim never resumed");
  }

  // -- Deterministic merge, region-index order throughout. --
  ServiceResult result;
  if (region_count == 1) {
    result.completions = regions[0]->take_completions();
  } else {
    // Reserve the total up front: whether the last append reallocated
    // otherwise depended on how completions split across regions.
    std::size_t total = 0;
    for (const auto& region : regions) total += region->completion_count();
    result.completions.reserve(total);
    for (const auto& region : regions) {
      auto records = region->take_completions();
      result.completions.insert(result.completions.end(),
                                std::make_move_iterator(records.begin()),
                                std::make_move_iterator(records.end()));
    }
    // Global completion order; (finish, id) is a total order because
    // ids are unique, so the merged stream is schedule-determined.
    std::stable_sort(result.completions.begin(), result.completions.end(),
                     [](const CompletionRecord& a, const CompletionRecord& b) {
                       if (a.finish_ns != b.finish_ns) {
                         return a.finish_ns < b.finish_ns;
                       }
                       return a.id < b.id;
                     });
  }

  SimDuration makespan = 0;
  for (const CompletionRecord& record : result.completions) {
    makespan = std::max(makespan, record.finish_ns);
  }

  // Node utilization lines up with global node indices because regions
  // own contiguous slices in index order; every node is normalized by
  // the global makespan.
  std::vector<double> utilization;
  utilization.reserve(config_.nodes);
  QueueStats admission;
  std::uint64_t retries = 0, dropped = 0, colocations = 0, stage_hits = 0;
  std::uint64_t des_events = 0, evictions = 0;
  std::uint64_t plans = 0, plan_cache_hits = 0, plan_cache_misses = 0;
  Bytes gc_bytes = 0, residency_high_water = 0;
  std::int64_t interference_delta_ns = 0;
  for (std::uint32_t r = 0; r < region_count; ++r) {
    const Region& region = *regions[r];
    for (std::uint32_t i = 0; i < region.fleet().size(); ++i) {
      utilization.push_back(region.fleet().utilization(i, makespan));
    }
    const QueueStats& queue = region.queue().stats();
    admission.admitted += queue.admitted;
    admission.deferred += queue.deferred;
    admission.rejected += queue.rejected;
    admission.high_water = std::max(admission.high_water, queue.high_water);
    retries += region.retries();
    dropped += region.dropped();
    colocations += region.colocations();
    stage_hits += region.stage_hits();
    des_events += region.des_events();
    interference_delta_ns += region.interference_delta_ns();
    const capacity::ResidencyTracker& residency = region.fleet().residency();
    evictions += residency.stats().evictions;
    gc_bytes += residency.stats().gc_bytes;
    residency_high_water =
        std::max(residency_high_water, residency.residency_high_water());
    const PlannerStats& planner = planners_[r]->stats();
    plans += planner.plans - planner_before[r].plans;
    plan_cache_hits += planner.cache_hits - planner_before[r].cache_hits;
    plan_cache_misses += planner.cache_misses - planner_before[r].cache_misses;
  }

  result.metrics = aggregate_metrics(
      result.completions, makespan, utilization, admission,
      cache_.stats() - cache_before, retries, dropped, colocations,
      static_cast<SimDuration>(
          std::max<std::int64_t>(0, interference_delta_ns)),
      evictions, gc_bytes, stage_hits, residency_high_water);
  result.metrics.des_events = des_events;
  result.metrics.allocator = allocator_counters() - allocator_before;
  result.metrics.regions = region_count;
  result.metrics.shard_migrations = epoch_stats.shard_migrations;
  result.metrics.planner_window = std::max<std::uint32_t>(
      1, config_.planner.window);
  result.metrics.plans = plans;
  result.metrics.plan_cache_hits = plan_cache_hits;
  result.metrics.plan_cache_misses = plan_cache_misses;
  return result;
}

}  // namespace pmemflow::service
