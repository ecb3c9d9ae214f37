// Service-level metrics: what an operator of the scheduling service
// would put on a dashboard.
//
//   queueing delay — dispatch start minus arrival, per submission;
//   slowdown       — chosen-config runtime / oracle-best runtime (1.0
//                    means the placement chose the fastest Table I
//                    configuration for that workflow class);
//   utilization    — per-node busy time over the run's makespan;
//   admission      — admitted/deferred/rejected counts from the queue;
//   cache          — this run's hit/miss/eviction counts from the
//                    profile cache.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "core/config.hpp"
#include "metrics/summary.hpp"
#include "pmemsim/allocator.hpp"
#include "service/profile_cache.hpp"
#include "service/submission_queue.hpp"

namespace pmemflow::service {

/// One dispatched-and-finished submission.
struct CompletionRecord {
  std::uint64_t id = 0;
  std::string label;
  Priority priority = Priority::kNormal;
  std::uint32_t node = 0;
  /// Tenant slot within the node (always 0 for one-tenant policies).
  std::uint32_t slot = 0;
  core::DeploymentConfig config;
  bool cache_hit = false;
  SimTime arrival_ns = 0;
  /// First dispatch start (a preempted victim keeps its original start).
  SimTime start_ns = 0;
  SimTime finish_ns = 0;
  /// Oracle-best runtime of this workflow class (from the cached sweep).
  SimDuration best_runtime_ns = 0;
  /// Uninterrupted runtime under `config` (== finish - start when the
  /// workflow was never preempted).
  SimDuration config_runtime_ns = 0;
  /// Times this workflow was checkpointed off its node.
  std::uint32_t preemptions = 0;
  /// Resumes that landed on a different node than the checkpoint.
  std::uint32_t migrations = 0;
  /// Total checkpoint drain time charged (snapshot / PMEM write bw).
  SimDuration checkpoint_ns = 0;
  /// Total restore time charged (snapshot read + any migration leg).
  SimDuration restore_ns = 0;
  /// Pure work time executed across all segments; the remaining-time
  /// accounting invariant is work_executed_ns == config_runtime_ns at
  /// completion, preempted, co-located, or not.
  SimDuration work_executed_ns = 0;
  /// Times this workflow shared its node with a co-tenant (counted per
  /// pairing event, whether it was the incumbent or the joiner).
  std::uint32_t colocations = 0;
  /// True when the submission was a general DAG (src/dag) rather than a
  /// classic writer+reader pair.
  bool dag = false;
  /// Edges whose producer and consumer stages shared a socket under the
  /// chosen plan (0 for pair submissions and spread placements of
  /// chains).
  std::uint32_t ephemeral_edges = 0;

  [[nodiscard]] SimDuration queue_delay_ns() const noexcept {
    return start_ns - arrival_ns;
  }
  [[nodiscard]] SimDuration runtime_ns() const noexcept {
    return finish_ns - start_ns;
  }
  [[nodiscard]] double slowdown() const noexcept {
    return best_runtime_ns == 0
               ? 1.0
               : static_cast<double>(runtime_ns()) /
                     static_cast<double>(best_runtime_ns);
  }
  /// How much longer the workflow took end-to-end than its
  /// uninterrupted runtime (checkpoint/restore overhead + time parked
  /// in the queue while preempted). 1.0 when never preempted.
  [[nodiscard]] double victim_slowdown() const noexcept {
    return config_runtime_ns == 0
               ? 1.0
               : static_cast<double>(runtime_ns()) /
                     static_cast<double>(config_runtime_ns);
  }
};

/// Aggregated view of one service run.
struct ServiceMetrics {
  std::uint64_t completed = 0;
  metrics::SummaryStats queue_delay_ns;
  metrics::SummaryStats slowdown;
  metrics::SummaryStats runtime_ns;
  /// Finish time of the last workflow (simulated).
  SimDuration makespan_ns = 0;
  std::vector<double> node_utilization;
  double mean_utilization = 0.0;
  QueueStats admission;
  /// Profile-cache lookups this run, as the delta of the scheduler's
  /// cache counters across the run (the cache persists across runs).
  CacheStats cache;
  /// Deferred/rejected submissions automatically resubmitted by the
  /// service.
  std::uint64_t retries = 0;
  /// Submissions dropped after exhausting their retry budget.
  std::uint64_t dropped = 0;
  /// Checkpoint preemptions performed across the run.
  std::uint64_t preemptions = 0;
  /// Resumes that migrated the snapshot to a different node.
  std::uint64_t migrations = 0;
  /// Total simulated time spent draining checkpoints.
  SimDuration checkpoint_overhead_ns = 0;
  /// Total simulated time spent restoring (incl. migration transfers).
  SimDuration restore_overhead_ns = 0;
  /// End-to-end stretch of preempted victims vs their uninterrupted
  /// runtime (empty when nothing was preempted).
  metrics::SummaryStats victim_slowdown;
  /// Pack placements under kColocationAware: dispatches that joined an
  /// incumbent on a partially-occupied node.
  std::uint64_t colocations = 0;
  /// Net wall-clock added by interference charging across the run (the
  /// price paid for the nodes saved by packing).
  SimDuration interference_overhead_ns = 0;
  /// Cold finished-channel versions evicted to make room for a lease
  /// (0 when the capacity model is off).
  std::uint64_t evictions = 0;
  /// Snapshot bytes version GC reclaimed across the run.
  Bytes gc_bytes = 0;
  /// Iterations whose snapshot writes were fully absorbed by the DRAM
  /// staging tier.
  std::uint64_t stage_hits = 0;
  /// Peak concurrent occupancy of any per-socket capacity pool.
  Bytes residency_high_water = 0;
  /// Discrete events the service run loop processed (arrivals, retries,
  /// dispatch completions, preemption timers). The perf gate divides
  /// this by wall time to get events/sec. Sharded runs sum the
  /// per-region loops in region-index order.
  std::uint64_t des_events = 0;
  /// Rate-allocator work this run performed (characterizations and
  /// interference measurements), as the delta of the scheduler's
  /// profile-cache and interference-table counters across the run.
  pmemsim::AllocatorCounters allocator;
  /// Fleet regions the run was sharded into (1 = classic unsharded).
  std::uint32_t regions = 1;
  /// Queued submissions migrated across regions at epoch barriers.
  std::uint64_t shard_migrations = 0;
  /// Completed submissions that were general DAGs.
  std::uint64_t dag_completed = 0;
  /// Producer→consumer stage pairs fused onto one socket, summed over
  /// completed DAG submissions (the kDagFusion signal).
  std::uint64_t ephemeral_edges = 0;
  /// Lookahead window the placement planner ran with (1 = the queue
  /// head alone, one submission at a time).
  std::uint32_t planner_window = 1;
  /// Planner invocations this run (each plans up to planner_window
  /// steps), summed per region when sharded.
  std::uint64_t plans = 0;
  /// Cacheable windows served from the memoized plan cache / planned
  /// fresh. Both zero when the plan cache is off.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  /// Bandwidth-share solves the run's characterizations performed.
  [[nodiscard]] std::uint64_t rate_solves() const noexcept {
    return allocator.solves;
  }

  [[nodiscard]] double plan_cache_hit_rate() const noexcept {
    const std::uint64_t total = plan_cache_hits + plan_cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(plan_cache_hits) /
                            static_cast<double>(total);
  }
};

struct ServiceResult {
  /// Completed submissions in completion (finish-time) order.
  std::vector<CompletionRecord> completions;
  ServiceMetrics metrics;
};

/// Schedule fingerprint: every placement-visible field of every
/// completion record, in completion order, plus the drop count.
/// cache_hit and allocator counters are deliberately excluded — they
/// describe planner-internal traffic, not the schedule.
[[nodiscard]] std::uint64_t schedule_fingerprint(const ServiceResult& result);

/// Where and when a submission ran: the fields two runs must share even
/// when others legitimately differ (a label and the dag flag, or the
/// cache_hit that a warm profile cache flips). Names the first field
/// that differs, or returns nullptr.
[[nodiscard]] const char* schedule_difference(const CompletionRecord& a,
                                              const CompletionRecord& b);

/// All 20 fields: what two runs of one stream and config agree on.
/// Names the first field that differs, or returns nullptr.
[[nodiscard]] const char* record_difference(const CompletionRecord& a,
                                            const CompletionRecord& b);

/// Condenses completion records + component stats into ServiceMetrics.
[[nodiscard]] ServiceMetrics aggregate_metrics(
    const std::vector<CompletionRecord>& records, SimDuration makespan_ns,
    const std::vector<double>& node_utilization, const QueueStats& admission,
    const CacheStats& cache, std::uint64_t retries, std::uint64_t dropped,
    std::uint64_t colocations = 0, SimDuration interference_overhead_ns = 0,
    std::uint64_t evictions = 0, Bytes gc_bytes = 0,
    std::uint64_t stage_hits = 0, Bytes residency_high_water = 0);

/// Renders the operator dashboard as an aligned text table.
void print_service_report(std::ostream& out, const std::string& title,
                          const ServiceMetrics& metrics);

/// CSV export: one row per policy/run for cross-run comparisons.
[[nodiscard]] std::vector<std::string> service_csv_header();
void append_service_csv_row(CsvWriter& csv, const std::string& run_label,
                            const ServiceMetrics& metrics);

}  // namespace pmemflow::service
