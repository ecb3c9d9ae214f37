#include "service/metrics.hpp"

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace pmemflow::service {
namespace {

double to_ms(double ns) { return ns / 1e6; }

}  // namespace

std::uint64_t schedule_fingerprint(const ServiceResult& result) {
  Hasher64 hasher;
  hasher.update_u64(result.completions.size());
  hasher.update_u64(result.metrics.dropped);
  for (const auto& r : result.completions) {
    hasher.update_u64(r.id);
    hasher.update_u64(r.node);
    hasher.update_u64(r.slot);
    hasher.update_u64(static_cast<std::uint64_t>(r.config.mode));
    hasher.update_u64(static_cast<std::uint64_t>(r.config.placement));
    hasher.update_u64(r.start_ns);
    hasher.update_u64(r.finish_ns);
    hasher.update_u64(r.preemptions);
    hasher.update_u64(r.migrations);
    hasher.update_u64(r.colocations);
    hasher.update_u64(r.ephemeral_edges);
    hasher.update_bool(r.dag);
  }
  return hasher.digest();
}

const char* schedule_difference(const CompletionRecord& a,
                                const CompletionRecord& b) {
  if (a.id != b.id) return "id";
  if (a.node != b.node) return "node";
  if (a.slot != b.slot) return "slot";
  if (a.arrival_ns != b.arrival_ns) return "arrival";
  if (a.start_ns != b.start_ns) return "start";
  if (a.finish_ns != b.finish_ns) return "finish";
  return nullptr;
}

const char* record_difference(const CompletionRecord& a,
                              const CompletionRecord& b) {
  if (const char* field = schedule_difference(a, b)) return field;
  if (a.label != b.label) return "label";
  if (a.priority != b.priority) return "priority";
  if (a.config != b.config) return "config";
  if (a.cache_hit != b.cache_hit) return "cache_hit";
  if (a.best_runtime_ns != b.best_runtime_ns) return "best_runtime";
  if (a.config_runtime_ns != b.config_runtime_ns) return "config_runtime";
  if (a.preemptions != b.preemptions) return "preemptions";
  if (a.migrations != b.migrations) return "migrations";
  if (a.checkpoint_ns != b.checkpoint_ns) return "checkpoint";
  if (a.restore_ns != b.restore_ns) return "restore";
  if (a.work_executed_ns != b.work_executed_ns) return "work_executed";
  if (a.colocations != b.colocations) return "colocations";
  if (a.dag != b.dag) return "dag";
  if (a.ephemeral_edges != b.ephemeral_edges) return "ephemeral_edges";
  return nullptr;
}

ServiceMetrics aggregate_metrics(const std::vector<CompletionRecord>& records,
                                 SimDuration makespan_ns,
                                 const std::vector<double>& node_utilization,
                                 const QueueStats& admission,
                                 const CacheStats& cache,
                                 std::uint64_t retries, std::uint64_t dropped,
                                 std::uint64_t colocations,
                                 SimDuration interference_overhead_ns,
                                 std::uint64_t evictions, Bytes gc_bytes,
                                 std::uint64_t stage_hits,
                                 Bytes residency_high_water) {
  // A zero-completion run (everything rejected or dropped) must report
  // clean zeros: metrics::summarize returns an all-zero SummaryStats
  // for empty input, and every ratio below guards its denominator, so
  // neither the report nor the CSV can emit NaN.
  ServiceMetrics metrics;
  metrics.completed = records.size();
  std::vector<double> delays, slowdowns, runtimes, victim_slowdowns;
  delays.reserve(records.size());
  slowdowns.reserve(records.size());
  runtimes.reserve(records.size());
  for (const CompletionRecord& record : records) {
    delays.push_back(static_cast<double>(record.queue_delay_ns()));
    slowdowns.push_back(record.slowdown());
    runtimes.push_back(static_cast<double>(record.runtime_ns()));
    metrics.preemptions += record.preemptions;
    metrics.migrations += record.migrations;
    metrics.checkpoint_overhead_ns += record.checkpoint_ns;
    metrics.restore_overhead_ns += record.restore_ns;
    if (record.dag) ++metrics.dag_completed;
    metrics.ephemeral_edges += record.ephemeral_edges;
    if (record.preemptions > 0) {
      victim_slowdowns.push_back(record.victim_slowdown());
    }
  }
  metrics.queue_delay_ns = metrics::summarize(delays);
  metrics.slowdown = metrics::summarize(slowdowns);
  metrics.runtime_ns = metrics::summarize(runtimes);
  metrics.victim_slowdown = metrics::summarize(victim_slowdowns);
  metrics.makespan_ns = makespan_ns;
  metrics.node_utilization = node_utilization;
  double sum = 0.0;
  for (double u : node_utilization) sum += u;
  metrics.mean_utilization =
      node_utilization.empty()
          ? 0.0
          : sum / static_cast<double>(node_utilization.size());
  metrics.admission = admission;
  metrics.cache = cache;
  metrics.retries = retries;
  metrics.dropped = dropped;
  metrics.colocations = colocations;
  metrics.interference_overhead_ns = interference_overhead_ns;
  metrics.evictions = evictions;
  metrics.gc_bytes = gc_bytes;
  metrics.stage_hits = stage_hits;
  metrics.residency_high_water = residency_high_water;
  return metrics;
}

void print_service_report(std::ostream& out, const std::string& title,
                          const ServiceMetrics& metrics) {
  out << title << "\n";
  TextTable table({"Metric", "Value"}, {Align::kLeft, Align::kRight});
  table.add_row({"completed", format("%llu",
                                     static_cast<unsigned long long>(
                                         metrics.completed))});
  table.add_row({"makespan",
                 format("%.3f s",
                        static_cast<double>(metrics.makespan_ns) / 1e9)});
  table.add_row({"queue delay mean",
                 format("%.3f ms", to_ms(metrics.queue_delay_ns.mean))});
  table.add_row({"queue delay p50",
                 format("%.3f ms", to_ms(metrics.queue_delay_ns.p50))});
  table.add_row({"queue delay p99",
                 format("%.3f ms", to_ms(metrics.queue_delay_ns.p99))});
  table.add_row({"queue delay max",
                 format("%.3f ms", to_ms(metrics.queue_delay_ns.max))});
  table.add_row({"slowdown vs oracle mean",
                 format("%.4fx", metrics.slowdown.mean)});
  table.add_row({"slowdown vs oracle p99",
                 format("%.4fx", metrics.slowdown.p99)});
  table.add_row({"node utilization mean",
                 format("%.1f %%", 100.0 * metrics.mean_utilization)});
  table.add_row({"admitted", format("%llu", static_cast<unsigned long long>(
                                                metrics.admission.admitted))});
  table.add_row({"deferred", format("%llu", static_cast<unsigned long long>(
                                                metrics.admission.deferred))});
  table.add_row({"rejected", format("%llu", static_cast<unsigned long long>(
                                                metrics.admission.rejected))});
  table.add_row({"retries", format("%llu", static_cast<unsigned long long>(
                                               metrics.retries))});
  table.add_row({"dropped", format("%llu", static_cast<unsigned long long>(
                                               metrics.dropped))});
  table.add_row({"queue high water",
                 format("%llu", static_cast<unsigned long long>(
                                    metrics.admission.high_water))});
  table.add_row({"preemptions", format("%llu", static_cast<unsigned long long>(
                                                   metrics.preemptions))});
  table.add_row({"migrations", format("%llu", static_cast<unsigned long long>(
                                                  metrics.migrations))});
  table.add_row(
      {"checkpoint overhead",
       format("%.3f ms", to_ms(static_cast<double>(
                             metrics.checkpoint_overhead_ns)))});
  table.add_row({"restore overhead",
                 format("%.3f ms", to_ms(static_cast<double>(
                                       metrics.restore_overhead_ns)))});
  table.add_row({"victim slowdown p99",
                 format("%.4fx", metrics.victim_slowdown.p99)});
  table.add_row({"colocations", format("%llu", static_cast<unsigned long long>(
                                                   metrics.colocations))});
  table.add_row(
      {"interference overhead",
       format("%.3f ms", to_ms(static_cast<double>(
                             metrics.interference_overhead_ns)))});
  table.add_row({"cache hit rate",
                 format("%.1f %% (%llu/%llu)",
                        100.0 * metrics.cache.hit_rate(),
                        static_cast<unsigned long long>(metrics.cache.hits),
                        static_cast<unsigned long long>(metrics.cache.hits +
                                                        metrics.cache.misses))});
  table.add_row({"evictions", format("%llu", static_cast<unsigned long long>(
                                                 metrics.evictions))});
  table.add_row({"gc bytes",
                 format("%.3f GB",
                        static_cast<double>(metrics.gc_bytes) / 1e9)});
  table.add_row({"stage hits", format("%llu", static_cast<unsigned long long>(
                                                  metrics.stage_hits))});
  table.add_row({"residency high water",
                 format("%.3f GB",
                        static_cast<double>(metrics.residency_high_water) /
                            1e9)});
  table.add_row({"rate solves", format("%llu", static_cast<unsigned long long>(
                                                   metrics.rate_solves()))});
  table.add_row({"regions", format("%u", metrics.regions)});
  table.add_row({"shard migrations",
                 format("%llu", static_cast<unsigned long long>(
                                    metrics.shard_migrations))});
  table.add_row({"dag completed",
                 format("%llu", static_cast<unsigned long long>(
                                    metrics.dag_completed))});
  table.add_row({"ephemeral edges",
                 format("%llu", static_cast<unsigned long long>(
                                    metrics.ephemeral_edges))});
  table.add_row({"planner window", format("%u", metrics.planner_window)});
  table.add_row({"plans", format("%llu", static_cast<unsigned long long>(
                                             metrics.plans))});
  table.add_row(
      {"plan cache hit rate",
       format("%.1f %% (%llu/%llu)", 100.0 * metrics.plan_cache_hit_rate(),
              static_cast<unsigned long long>(metrics.plan_cache_hits),
              static_cast<unsigned long long>(metrics.plan_cache_hits +
                                              metrics.plan_cache_misses))});
  table.write(out);
}

std::vector<std::string> service_csv_header() {
  return {"run",
          "completed",
          "makespan_s",
          "queue_delay_mean_ms",
          "queue_delay_p99_ms",
          "slowdown_mean",
          "slowdown_p99",
          "utilization_mean",
          "admitted",
          "deferred",
          "rejected",
          "retries",
          "dropped",
          "high_water",
          "preemptions",
          "migrations",
          "checkpoint_overhead_ms",
          "restore_overhead_ms",
          "victim_slowdown_p99",
          "colocations",
          "interference_overhead_ms",
          "cache_hit_rate",
          "evictions",
          "gc_bytes",
          "stage_hits",
          "residency_high_water",
          "rate_solves",
          "regions",
          "shard_migrations",
          "dag_completed",
          "ephemeral_edges",
          "planner_window",
          "plans",
          "plan_cache_hits",
          "plan_cache_misses"};
}

void append_service_csv_row(CsvWriter& csv, const std::string& run_label,
                            const ServiceMetrics& metrics) {
  csv.add_row(
      {run_label,
       format("%llu", static_cast<unsigned long long>(metrics.completed)),
       format("%.6f", static_cast<double>(metrics.makespan_ns) / 1e9),
       format("%.6f", to_ms(metrics.queue_delay_ns.mean)),
       format("%.6f", to_ms(metrics.queue_delay_ns.p99)),
       format("%.6f", metrics.slowdown.mean),
       format("%.6f", metrics.slowdown.p99),
       format("%.6f", metrics.mean_utilization),
       format("%llu", static_cast<unsigned long long>(metrics.admission.admitted)),
       format("%llu", static_cast<unsigned long long>(metrics.admission.deferred)),
       format("%llu", static_cast<unsigned long long>(metrics.admission.rejected)),
       format("%llu", static_cast<unsigned long long>(metrics.retries)),
       format("%llu", static_cast<unsigned long long>(metrics.dropped)),
       format("%llu",
              static_cast<unsigned long long>(metrics.admission.high_water)),
       format("%llu", static_cast<unsigned long long>(metrics.preemptions)),
       format("%llu", static_cast<unsigned long long>(metrics.migrations)),
       format("%.6f", to_ms(static_cast<double>(metrics.checkpoint_overhead_ns))),
       format("%.6f", to_ms(static_cast<double>(metrics.restore_overhead_ns))),
       format("%.6f", metrics.victim_slowdown.p99),
       format("%llu", static_cast<unsigned long long>(metrics.colocations)),
       format("%.6f",
              to_ms(static_cast<double>(metrics.interference_overhead_ns))),
       format("%.6f", metrics.cache.hit_rate()),
       format("%llu", static_cast<unsigned long long>(metrics.evictions)),
       format("%llu", static_cast<unsigned long long>(metrics.gc_bytes)),
       format("%llu", static_cast<unsigned long long>(metrics.stage_hits)),
       format("%llu",
              static_cast<unsigned long long>(metrics.residency_high_water)),
       format("%llu", static_cast<unsigned long long>(metrics.rate_solves())),
       format("%u", metrics.regions),
       format("%llu",
              static_cast<unsigned long long>(metrics.shard_migrations)),
       format("%llu", static_cast<unsigned long long>(metrics.dag_completed)),
       format("%llu",
              static_cast<unsigned long long>(metrics.ephemeral_edges)),
       format("%u", metrics.planner_window),
       format("%llu", static_cast<unsigned long long>(metrics.plans)),
       format("%llu",
              static_cast<unsigned long long>(metrics.plan_cache_hits)),
       format("%llu",
              static_cast<unsigned long long>(metrics.plan_cache_misses))});
}

}  // namespace pmemflow::service
