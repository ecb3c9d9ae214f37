// Acceptance gates of the online service (service-subsystem extension).
//
// Each extension of the service is held to its claim by one scenario:
//
//   throughput  recommender-aware placement (the paper's Table II
//               recommendations, online) beats first-fit and
//               least-loaded on mean queueing delay and makespan;
//   preemption  checkpoint-restore preemption improves urgent p99
//               delay within the checkpoint + restore overhead it pays;
//   colocation  §IV-C I/O-index pairing packs a write-heavy with a
//               read-heavy tenant and wins makespan, and never packs
//               two writers;
//   capacity    bounded PMEM pools are strictly opt-in, and
//               capacity-aware placement + version GC meets the SLO
//               that small DIMMs break for capacity-blind placement;
//   dag         DAG fusion beats least-loaded, and a pair schedules as
//               a 2-node DAG;
//   planner     lookahead planning beats greedy, and the plan cache
//               replays steady state without changing the schedule;
//   trace       traces round-trip exactly, replay deterministically
//               and fit a statistical twin.
//
// Most scenarios also rerun one arm and require identical completion
// records: the DES determinism contract.
//
//   service_gates [scenario...] [--smoke] [--json f] [--csv f]
//
// Naming no scenario runs all seven; --smoke shrinks every stream. The
// throughput, capacity, dag and planner scenarios rewrite their
// service_<scenario> section of the --json file; --csv writes one
// scenario,gate,pass,detail row per gate. Exits 1 when a gate fails
// and 2 on a bad command line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_flags.hpp"
#include "bench_json.hpp"
#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "dag/spec.hpp"
#include "devices/registry.hpp"
#include "metrics/summary.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"
#include "traces/fit.hpp"
#include "traces/replay.hpp"
#include "traces/schema.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace pmemflow;
using service::CompletionRecord;
using service::record_difference;
using service::schedule_difference;
using Records = std::vector<CompletionRecord>;
using Stream = std::vector<service::Submission>;

struct Gate {
  std::string name;
  bool pass = false;
  std::string detail;
};

/// What a scenario hands the driver: the arms it ran, its gates and,
/// for the scenarios that have one, its BENCH_service.json section.
struct Report {
  std::vector<std::pair<std::string, service::ServiceMetrics>> arms;
  std::vector<Gate> gates;
  std::vector<std::pair<std::string, double>> json;

  void gate(std::string name, bool pass, std::string detail) {
    gates.push_back({std::move(name), pass, std::move(detail)});
  }
  [[nodiscard]] bool all_pass() const {
    return std::all_of(gates.begin(), gates.end(),
                       [](const Gate& gate) { return gate.pass; });
  }
};

/// The value of `result`. An error throws, and the driver reports it as
/// the scenario's failed "error" gate.
template <typename T>
T unwrap(Expected<T> result) {
  if (!result.has_value()) throw std::runtime_error(result.error().message);
  return std::move(*result);
}

/// Runs `stream` through a fresh scheduler and logs the arm for the
/// driver's table.
service::ServiceResult run_arm(Report& report, const std::string& label,
                               const service::ServiceConfig& config,
                               const Stream& stream) {
  service::OnlineScheduler scheduler(config);
  auto result = scheduler.run(stream);
  if (!result.has_value()) {
    throw std::runtime_error(label + ": " + result.error().message);
  }
  report.arms.emplace_back(label, result->metrics);
  return std::move(*result);
}

/// Sizes the queue to the stream and never defers, so every submission
/// is admitted: arms then complete identical work and their deltas are
/// purely scheduling quality. (Admission control under saturation is
/// exercised by tests/service and pmemflowd instead.)
service::ServiceConfig admit_all(std::uint32_t nodes,
                                 std::size_t submissions) {
  service::ServiceConfig config;
  config.nodes = nodes;
  config.queue_capacity = submissions;
  config.defer_watermark = 1.0;
  return config;
}

/// Empty when `a` and `b` agree record by record under `compare`
/// (record_difference or schedule_difference), else the first
/// difference.
std::string first_difference(const Records& a, const Records& b,
                             const char* (*compare)(const CompletionRecord&,
                                                    const CompletionRecord&)) {
  if (a.size() != b.size()) {
    return format("%zu vs %zu completions", a.size(), b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const char* field = compare(x, y);
    if (field == nullptr) continue;
    return format(
        "completion %zu differs in %s: id %llu node %u [%llu, %llu] vs id "
        "%llu node %u [%llu, %llu]",
        i, field, static_cast<unsigned long long>(x.id), x.node,
        static_cast<unsigned long long>(x.start_ns),
        static_cast<unsigned long long>(x.finish_ns),
        static_cast<unsigned long long>(y.id), y.node,
        static_cast<unsigned long long>(y.start_ns),
        static_cast<unsigned long long>(y.finish_ns));
  }
  return "";
}

/// The gate that passes when a rerun reproduces every record.
void replay_gate(Report& report, const Records& first,
                 const Records& replay) {
  const std::string diff =
      first_difference(first, replay, record_difference);
  report.gate("replay-identical", diff.empty(),
              diff.empty() ? format("%zu records replayed", first.size())
                           : diff);
}

// --- throughput -------------------------------------------------------

void throughput_gates(bool smoke, Report& report) {
  service::ArrivalParams arrivals;
  arrivals.count = smoke ? 5000 : 100000;
  arrivals.classes = 24;
  // Mean gap tuned to straddle the stability boundary on an 8-node
  // fleet: under the fixed configuration the offered load is just
  // above capacity (queues grow), under per-class recommendations it
  // is just below (queues stay bounded) — the regime where config
  // choice matters most at fleet level.
  arrivals.mean_interarrival_ns = 150.0e6;
  const auto stream = unwrap(service::make_submission_stream(arrivals));
  const std::uint32_t nodes = 8;
  std::cout << format(
      "=== Online service: %llu submissions, %u classes, %u nodes ===\n\n",
      static_cast<unsigned long long>(arrivals.count), arrivals.classes,
      nodes);

  auto config = admit_all(nodes, stream.size());
  const service::PlacementPolicy policies[] = {
      service::PlacementPolicy::kFirstFit,
      service::PlacementPolicy::kLeastLoaded,
      service::PlacementPolicy::kRecommenderAware};
  std::vector<service::ServiceMetrics> by_policy;
  // The JSON section's wall-clock rate: completions + retries across
  // every policy run, over the time spent running them.
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;
  for (const auto policy : policies) {
    config.policy = policy;
    const auto wall_start = std::chrono::steady_clock::now();
    by_policy.push_back(run_arm(report, to_string(policy), config, stream)
                            .metrics);
    wall_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    events_processed += by_policy.back().completed + by_policy.back().retries;
  }

  // Recommender-aware must beat both fixed-config policies on mean
  // queueing delay and makespan. Expect first-fit and least-loaded to
  // tie exactly: under sustained load at most one node is idle at each
  // dispatch, so only the configuration choice still has leverage.
  const auto& aware = by_policy.back();
  for (std::size_t i = 0; i + 1 < by_policy.size(); ++i) {
    const auto& fixed = by_policy[i];
    report.gate(
        format("beats-%s", to_string(policies[i])),
        aware.queue_delay_ns.mean < fixed.queue_delay_ns.mean &&
            aware.makespan_ns < fixed.makespan_ns,
        format("delay %.2fx  makespan %.2fx",
               fixed.queue_delay_ns.mean / aware.queue_delay_ns.mean,
               static_cast<double>(fixed.makespan_ns) /
                   static_cast<double>(aware.makespan_ns)));
  }

  const double runs = static_cast<double>(by_policy.size());
  report.json = {
      {"submissions", static_cast<double>(arrivals.count)},
      {"nodes", static_cast<double>(nodes)},
      {"policy_runs", runs},
      {"wall_seconds", wall_seconds},
      {"events_per_sec",
       wall_seconds > 0.0
           ? static_cast<double>(events_processed) / wall_seconds
           : 0.0},
      {"submissions_per_sec",
       wall_seconds > 0.0
           ? static_cast<double>(arrivals.count) * runs / wall_seconds
           : 0.0},
      {"p99_delay_ms", aware.queue_delay_ns.p99 / 1e6},
      {"pass", report.all_pass() ? 1.0 : 0.0}};
}

// --- preemption -------------------------------------------------------

/// Queueing-delay summary of the urgent submissions.
metrics::SummaryStats urgent_delay(const Records& records) {
  std::vector<double> delays;
  for (const auto& record : records) {
    if (record.priority == service::Priority::kUrgent) {
      delays.push_back(static_cast<double>(record.queue_delay_ns()));
    }
  }
  return metrics::summarize(delays);
}

void preemption_gates(bool smoke, Report& report) {
  service::ArrivalParams arrivals;
  arrivals.count = smoke ? 2000 : 20000;
  arrivals.classes = 16;
  // Saturating mix: batch workflows hold nodes for whole runtimes, so
  // without preemption an urgent arrival routinely waits behind one.
  arrivals.mean_interarrival_ns = 120.0e6;
  arrivals.urgent_fraction = 0.15;
  arrivals.batch_fraction = 0.45;
  const auto stream = unwrap(service::make_submission_stream(arrivals));
  const std::uint32_t nodes = 4;
  std::cout << format(
      "=== Preemption: %llu submissions, %u classes, %u nodes ===\n\n",
      static_cast<unsigned long long>(arrivals.count), arrivals.classes,
      nodes);

  auto config = admit_all(nodes, stream.size());
  config.policy = service::PlacementPolicy::kLeastLoaded;
  config.preemption = service::PreemptionPolicy::kNone;
  const auto baseline =
      run_arm(report, to_string(config.preemption), config, stream);
  config.preemption = service::PreemptionPolicy::kCheckpointRestore;
  const auto preempt =
      run_arm(report, to_string(config.preemption), config, stream);
  const auto replay =
      run_arm(report, "checkpoint-restore (replay)", config, stream);

  // The whole point: urgent work no longer waits behind whole batch
  // runtimes.
  const double baseline_p99 = urgent_delay(baseline.completions).p99;
  const double preempt_p99 = urgent_delay(preempt.completions).p99;
  report.gate("urgent-p99-improves", preempt_p99 < baseline_p99,
              format("urgent p99 delay %.2f ms -> %.2f ms",
                     baseline_p99 / 1e6, preempt_p99 / 1e6));

  // Preemption moves work around and pays the snapshot I/O; it must not
  // lose work, so makespan may regress only by the overhead charged.
  const auto& before = baseline.metrics;
  const auto& after = preempt.metrics;
  const SimDuration overhead_bound =
      after.checkpoint_overhead_ns + after.restore_overhead_ns;
  report.gate(
      "makespan-within-overhead",
      after.makespan_ns <= before.makespan_ns + overhead_bound,
      format("makespan %.3f s -> %.3f s (overhead bound %.1f ms)",
             static_cast<double>(before.makespan_ns) / 1e9,
             static_cast<double>(after.makespan_ns) / 1e9,
             static_cast<double>(overhead_bound) / 1e6));

  // Cancellable finish events and drain timers keep the DES
  // deterministic.
  replay_gate(report, preempt.completions, replay.completions);

  // A stream that never preempts makes the gates above vacuous.
  report.gate("triggers-preemption", after.preemptions > 0,
              format("%llu preemptions, %llu migrations",
                     static_cast<unsigned long long>(after.preemptions),
                     static_cast<unsigned long long>(after.migrations)));
}

// --- colocation -------------------------------------------------------

/// Write-heavy class: bulk per-iteration simulation output, analytics
/// that barely computes — the simulation (writer) I/O index dominates.
workflow::WorkflowSpec write_heavy_class() {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 8 * kMiB;
  sim.objects_per_rank = 6;
  sim.compute_ns = 0.0;
  sim.name = "wh-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 1.0e6;
  analytics.name = "wh-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                                 /*iterations=*/2);
  spec.label = "write-heavy";
  return spec;
}

/// Read-heavy class: the simulation mostly computes, the analytics
/// streams every object back with no compute — the analytics (reader)
/// I/O index dominates.
workflow::WorkflowSpec read_heavy_class() {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 8 * kMiB;
  sim.objects_per_rank = 6;
  sim.compute_ns = 2.5e7;
  sim.name = "rh-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 0.0;
  analytics.name = "rh-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                                 /*iterations=*/2);
  spec.label = "read-heavy";
  return spec;
}

/// Fixed-gap stream over the given classes, round-robin, all kNormal.
Stream make_fixed_gap_stream(
    const std::vector<workflow::WorkflowSpec>& classes, std::uint64_t count,
    SimDuration gap_ns) {
  Stream stream;
  stream.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    service::Submission submission;
    submission.id = i;
    submission.spec = classes[i % classes.size()];
    submission.arrival_ns = static_cast<SimTime>(i) * gap_ns;
    submission.priority = service::Priority::kNormal;
    stream.push_back(std::move(submission));
  }
  return stream;
}

void colocation_gates(bool smoke, Report& report) {
  const std::uint64_t submissions = smoke ? 80 : 400;
  const std::uint32_t nodes = 2;
  // Arrivals outpace the fleet's one-per-node capacity, so makespan is
  // capacity-bound and the doubled tenancy is what gates it.
  const SimDuration gap_ns = 10 * kMillisecond;
  const auto mixed = make_fixed_gap_stream(
      {write_heavy_class(), read_heavy_class()}, submissions, gap_ns);
  const auto write_only =
      make_fixed_gap_stream({write_heavy_class()}, submissions, gap_ns);
  std::cout << format(
      "=== Co-location: %llu submissions (alternating WH/RH), %u nodes "
      "===\n\n",
      static_cast<unsigned long long>(submissions), nodes);

  auto config = admit_all(nodes, submissions);
  config.policy = service::PlacementPolicy::kLeastLoaded;
  const auto baseline =
      run_arm(report, "least-loaded (mixed)", config, mixed).metrics;
  config.policy = service::PlacementPolicy::kColocationAware;
  const auto packed = run_arm(report, "colocation (mixed)", config, mixed);
  const auto write_heavy =
      run_arm(report, "colocation (write-heavy only)", config, write_only)
          .metrics;
  const auto replay = run_arm(report, "colocation (replay)", config, mixed);

  // Two nodes running four compatible tenants finish sooner than one
  // workflow per node, even after paying the measured interference.
  const auto& packed_metrics = packed.metrics;
  report.gate("packs-and-wins-makespan",
              packed_metrics.colocations > 0 &&
                  packed_metrics.makespan_ns < baseline.makespan_ns,
              format("makespan %.3f s -> %.3f s (%llu colocations)",
                     static_cast<double>(baseline.makespan_ns) / 1e9,
                     static_cast<double>(packed_metrics.makespan_ns) / 1e9,
                     static_cast<unsigned long long>(
                         packed_metrics.colocations)));

  // Two same-direction tenants would fight over device write bandwidth,
  // so every write-heavy placement waits for an empty node instead.
  report.gate("write-heavy-never-packs", write_heavy.colocations == 0,
              format("%llu colocations", static_cast<unsigned long long>(
                                             write_heavy.colocations)));

  // Re-schedulable finish events and interference re-timing keep the
  // DES deterministic.
  replay_gate(report, packed.completions, replay.completions);
}

// --- capacity ---------------------------------------------------------

void capacity_gates(bool smoke, Report& report) {
  service::ArrivalParams arrivals;
  arrivals.count = smoke ? 400 : 2000;
  arrivals.classes = 12;
  // Long-lived channels with real volume: the gap keeps the aware run
  // stable while the blind run's eviction drains push it underwater.
  arrivals.mean_interarrival_ns = 2.0e9;
  auto stream = unwrap(service::make_submission_stream(arrivals));
  // The pool's classes run 2 iterations — too few committed versions
  // for retention to matter. Stretch every submission to 6 so a
  // capacity-blind lease (all versions) is 3x the retain-2 window.
  for (service::Submission& submission : stream) {
    submission.spec.iterations = 6;
  }
  const std::uint32_t nodes = 4;
  const double capacity_gb = 64.0;
  std::cout << format(
      "=== Capacity: %llu submissions, %u classes, %u nodes, "
      "%.0f GB/socket ===\n\n",
      static_cast<unsigned long long>(arrivals.count), arrivals.classes,
      nodes, capacity_gb);

  auto config = admit_all(nodes, stream.size());
  config.policy = service::PlacementPolicy::kLeastLoaded;

  // The capacity knobs every bounded arm shares; pmem_per_socket is
  // what switches the model on.
  capacity::ResidencyParams bounded;
  bounded.pmem_per_socket = static_cast<Bytes>(capacity_gb * 1e9);
  bounded.retention.retain_versions = 2;
  bounded.retention.gc = true;
  bounded.staging.stage_bytes = 2 * kGiB;

  // Capacity model off entirely.
  const auto baseline = run_arm(report, "baseline", config, stream);
  // Every knob set but pools unbounded: the model must stay dormant.
  config.capacity = bounded;
  config.capacity.pmem_per_socket = 0;
  const auto unbounded = run_arm(report, "unbounded", config, stream);
  // Bounded pools, GC off: every channel leases its full version volume
  // and leaves it all cold at finish, so dispatches keep tripping over
  // residue — the eviction-storm regime.
  config.capacity = bounded;
  config.capacity.retention.retain_versions = 0;
  config.capacity.retention.gc = false;
  config.capacity.staging.stage_bytes = 0;
  const auto blind = run_arm(report, "blind", config, stream).metrics;
  // Capacity-aware placement with retain-2 GC and the DRAM staging
  // tier: small retained-window leases, spill to the other socket
  // before evicting, evict before deferring.
  config.policy = service::PlacementPolicy::kCapacityAware;
  config.capacity = bounded;
  const auto aware = run_arm(report, "aware", config, stream).metrics;

  // Bounded pools are strictly opt-in: unbounded ones leave the
  // schedule byte-identical and every capacity metric zero.
  const std::string diff = first_difference(
      baseline.completions, unbounded.completions, record_difference);
  report.gate("unbounded-identical", diff.empty(),
              diff.empty()
                  ? format("%zu records", baseline.completions.size())
                  : diff);
  const auto& dormant = unbounded.metrics;
  report.gate(
      "unbounded-dormant",
      dormant.evictions == 0 && dormant.gc_bytes == 0 &&
          dormant.stage_hits == 0 && dormant.residency_high_water == 0,
      format("evictions %llu, GC %llu B, stage hits %llu, high water "
             "%llu B",
             static_cast<unsigned long long>(dormant.evictions),
             static_cast<unsigned long long>(dormant.gc_bytes),
             static_cast<unsigned long long>(dormant.stage_hits),
             static_cast<unsigned long long>(dormant.residency_high_water)));

  // Cold residue must collide with new leases, or the SLO gate below
  // is vacuous.
  report.gate("blind-storms", blind.evictions > 0,
              format("%llu evictions",
                     static_cast<unsigned long long>(blind.evictions)));

  // Capacity-aware placement + GC meets the SLO blind collapses under.
  // The stream's makespan is arrival-bound (both arms end within a
  // second or two of each other), so queue delay carries the gate and
  // the makespan ratio is reported only.
  report.gate(
      "aware-beats-blind",
      aware.queue_delay_ns.p99 < blind.queue_delay_ns.p99 &&
          aware.queue_delay_ns.mean < blind.queue_delay_ns.mean &&
          aware.evictions < blind.evictions,
      format("p99 %.2fx  mean delay %.2fx  makespan %.2fx  evictions %llu "
             "vs %llu",
             blind.queue_delay_ns.p99 /
                 std::max(aware.queue_delay_ns.p99, 1.0),
             blind.queue_delay_ns.mean /
                 std::max(aware.queue_delay_ns.mean, 1.0),
             static_cast<double>(blind.makespan_ns) /
                 static_cast<double>(
                     std::max<SimDuration>(aware.makespan_ns, 1)),
             static_cast<unsigned long long>(aware.evictions),
             static_cast<unsigned long long>(blind.evictions)));

  report.json = {
      {"submissions", static_cast<double>(arrivals.count)},
      {"nodes", static_cast<double>(nodes)},
      {"capacity_gb", capacity_gb},
      {"blind_p99_delay_ms", blind.queue_delay_ns.p99 / 1e6},
      {"aware_p99_delay_ms", aware.queue_delay_ns.p99 / 1e6},
      {"blind_mean_delay_ms", blind.queue_delay_ns.mean / 1e6},
      {"aware_mean_delay_ms", aware.queue_delay_ns.mean / 1e6},
      {"blind_makespan_s", static_cast<double>(blind.makespan_ns) / 1e9},
      {"aware_makespan_s", static_cast<double>(aware.makespan_ns) / 1e9},
      {"blind_evictions", static_cast<double>(blind.evictions)},
      {"aware_evictions", static_cast<double>(aware.evictions)},
      {"aware_gc_gb", static_cast<double>(aware.gc_bytes) / 1e9},
      {"aware_stage_hits", static_cast<double>(aware.stage_hits)},
      {"pass", report.all_pass() ? 1.0 : 0.0}};
}

// --- dag --------------------------------------------------------------

/// One simulation stage feeding two analytics consumers: the fan-out
/// shape where co-placement pays (transfer-dominated edges).
dag::DagSpec make_fanout_dag(std::uint32_t iterations) {
  dag::DagSpec spec;
  spec.label = "fanout-analytics";
  spec.iterations = iterations;
  dag::DagComponent sim;
  sim.name = "sim";
  sim.ranks = 8;
  sim.object_size = 16 * kMiB;
  sim.objects_per_rank = 16;
  sim.compute_ns = 20e6;
  dag::DagComponent stats;
  stats.name = "stats";
  stats.ranks = 8;
  stats.object_size = 1 * kMiB;
  stats.objects_per_rank = 4;
  stats.analytics_ns_per_object = 30000.0;
  dag::DagComponent viz = stats;
  viz.name = "viz";
  viz.analytics_ns_per_object = 20000.0;
  spec.components = {sim, stats, viz};
  spec.edges = {dag::DagEdge{"sim", "stats", {}, 4},
                dag::DagEdge{"sim", "viz", {}, 4}};
  return spec;
}

/// A two-component chain: exactly a writer+reader pair.
dag::DagSpec make_chain_dag(std::uint32_t iterations) {
  dag::DagSpec spec;
  spec.label = "pair-as-dag";
  spec.iterations = iterations;
  dag::DagComponent writer;
  writer.name = "writer";
  writer.ranks = 8;
  writer.object_size = 8 * kMiB;
  writer.objects_per_rank = 8;
  writer.compute_ns = 50e6;
  dag::DagComponent reader;
  reader.name = "reader";
  reader.ranks = 8;
  reader.analytics_ns_per_object = 25000.0;
  spec.components = {writer, reader};
  spec.edges = {dag::DagEdge{"writer", "reader", {}, 0}};
  return spec;
}

/// A pair-class stream where every other submission is replaced by a
/// fan-out DAG, deterministically.
Stream make_mixed_stream(std::uint64_t count,
                         std::shared_ptr<const dag::DagSpec> dag_class) {
  service::ArrivalParams arrivals;
  arrivals.count = count;
  arrivals.classes = 6;
  arrivals.mean_interarrival_ns = 120.0e6;
  auto stream = unwrap(service::make_submission_stream(arrivals));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i % 2 != 0) continue;
    stream[i].dag = dag_class;
    stream[i].spec = workflow::WorkflowSpec{};
  }
  return stream;
}

void dag_gates(bool smoke, Report& report) {
  const std::uint64_t count = smoke ? 60 : 400;
  const auto fanout = std::make_shared<const dag::DagSpec>(
      make_fanout_dag(smoke ? 6 : 10));
  const auto mixed = make_mixed_stream(count, fanout);
  std::cout << format("=== DAG gate: %zu submissions (every 2nd a "
                      "fan-out DAG)%s ===\n\n",
                      mixed.size(), smoke ? " (smoke)" : "");

  // kDagFusion co-locates producer→consumer stages (ephemeral edges)
  // and beats least-loaded on makespan, because fused edges stream
  // socket-locally instead of paying the interconnect.
  auto config = admit_all(4, mixed.size());
  config.policy = service::PlacementPolicy::kLeastLoaded;
  const auto base = run_arm(report, "least-loaded", config, mixed).metrics;
  config.policy = service::PlacementPolicy::kDagFusion;
  const auto fused = run_arm(report, "dag-fusion", config, mixed).metrics;
  const double baseline_makespan_s =
      static_cast<double>(base.makespan_ns) / 1e9;
  const double fusion_makespan_s =
      static_cast<double>(fused.makespan_ns) / 1e9;
  std::string fusion_failure;
  if (fused.dag_completed == 0) {
    fusion_failure = "no DAG submissions completed";
  } else if (fused.ephemeral_edges == 0) {
    fusion_failure = "kDagFusion fused no edges";
  } else if (base.ephemeral_edges != 0) {
    fusion_failure =
        format("least-loaded spread placement fused %llu edges",
               static_cast<unsigned long long>(base.ephemeral_edges));
  } else if (fused.makespan_ns >= base.makespan_ns) {
    fusion_failure = format("fusion makespan %.3f s !< least-loaded %.3f s",
                            fusion_makespan_s, baseline_makespan_s);
  }
  report.gate(
      "fusion-beats-least-loaded", fusion_failure.empty(),
      fusion_failure.empty()
          ? format("%llu DAGs, %llu fused edges (least-loaded %llu), "
                   "makespan %.3f s vs %.3f s (%.1f%% faster)",
                   static_cast<unsigned long long>(fused.dag_completed),
                   static_cast<unsigned long long>(fused.ephemeral_edges),
                   static_cast<unsigned long long>(base.ephemeral_edges),
                   fusion_makespan_s, baseline_makespan_s,
                   100.0 * (1.0 - fusion_makespan_s / baseline_makespan_s))
          : fusion_failure);

  // A pair class submitted as a two-component chain DAG schedules
  // exactly like the classic pair path under kLeastLoaded.
  const auto chain =
      std::make_shared<const dag::DagSpec>(make_chain_dag(smoke ? 4 : 8));
  const auto pair = unwrap(dag::to_pair_workflow(*chain));
  const std::uint64_t n = smoke ? 12 : 48;
  Stream as_pairs, as_dags;
  for (std::uint64_t i = 0; i < n; ++i) {
    service::Submission s;
    s.id = i;
    s.arrival_ns = i * 150 * kMillisecond;
    s.spec = pair;
    as_pairs.push_back(s);
    s.spec = workflow::WorkflowSpec{};
    s.dag = chain;
    as_dags.push_back(std::move(s));
  }
  auto pair_config = admit_all(3, n);
  pair_config.policy = service::PlacementPolicy::kLeastLoaded;
  const auto pairs = run_arm(report, "pairs", pair_config, as_pairs);
  const auto dags = run_arm(report, "2-node DAGs", pair_config, as_dags);
  const std::string pair_diff = first_difference(
      pairs.completions, dags.completions, schedule_difference);
  report.gate(
      "pair-equals-2-node-dag", pair_diff.empty(),
      pair_diff.empty()
          ? format("%zu completions, runtime %.3f s each, identical nodes "
                   "and times",
                   pairs.completions.size(),
                   static_cast<double>(
                       pairs.completions.front().runtime_ns()) /
                       1e9)
          : pair_diff);

  report.json = {
      {"submissions", static_cast<double>(mixed.size())},
      {"dag_completed", static_cast<double>(fused.dag_completed)},
      {"ephemeral_edges", static_cast<double>(fused.ephemeral_edges)},
      {"fusion_makespan_s", fusion_makespan_s},
      {"least_loaded_makespan_s", baseline_makespan_s},
      {"fusion_speedup", fusion_makespan_s > 0.0
                             ? baseline_makespan_s / fusion_makespan_s
                             : 0.0},
      {"pair_dag_identical", pair_diff.empty() ? 1.0 : 0.0}};
}

// --- planner ----------------------------------------------------------

/// Mixed-backend fleet: half dram-like, half cxl-like — the regime
/// where joint planning pays, because a class's runtime differs
/// across nodes.
std::vector<service::NodeSpec> storm_fleet_specs(std::uint32_t nodes) {
  const char* presets[] = {"dram-like", "cxl-like"};
  std::vector<service::NodeSpec> specs;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    service::NodeSpec spec;
    spec.backend_name = presets[i % 2];
    spec.devices = unwrap(devices::parse_backend(spec.backend_name));
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Bursty storm of two heterogeneous classes whose per-backend
/// preference is *inverted*: a compute-bound class that runs the same
/// everywhere, and a bandwidth-bound class that is fast on dram-like
/// and slow on cxl-like. When a node frees under backlog, the
/// lookahead planner picks the window entry that finishes earliest on
/// that node's backend (compute work to cxl, streaming work to dram);
/// window 1 must take the queue head and mismatches half the time.
Stream make_storm_stream(std::uint64_t bursts, std::uint64_t burst_size,
                         SimDuration gap_ns) {
  workloads::SyntheticSimulation::Params compute_sim;
  compute_sim.object_size = 64 * kKiB;
  compute_sim.objects_per_rank = 8;
  compute_sim.compute_ns = 2.0e9;
  compute_sim.name = "storm-compute-sim";
  workloads::SyntheticAnalytics::Params compute_ana;
  compute_ana.compute_ns_per_object = 0.0;
  compute_ana.name = "storm-compute-ana";
  auto compute =
      workloads::make_synthetic_workflow(compute_sim, compute_ana, 8, 2);
  compute.label = "storm-compute";

  workloads::SyntheticSimulation::Params io_sim;
  io_sim.object_size = 64 * kMiB;
  io_sim.objects_per_rank = 8;
  io_sim.compute_ns = 0.0;
  io_sim.name = "storm-io-sim";
  workloads::SyntheticAnalytics::Params io_ana;
  io_ana.compute_ns_per_object = 0.0;
  io_ana.name = "storm-io-ana";
  auto io = workloads::make_synthetic_workflow(io_sim, io_ana, 8, 2);
  io.label = "storm-io";

  Stream stream;
  for (std::uint64_t i = 0; i < bursts * burst_size; ++i) {
    service::Submission submission;
    submission.id = i;
    submission.spec = (i % 2 == 0) ? compute : io;
    submission.arrival_ns =
        (i / burst_size) * gap_ns + (i % burst_size) * kMillisecond;
    stream.push_back(std::move(submission));
  }
  return stream;
}

service::ServiceConfig storm_config(std::size_t submissions,
                                    std::uint32_t nodes,
                                    std::uint32_t window, bool plan_cache) {
  auto config = admit_all(nodes, submissions);
  config.policy = service::PlacementPolicy::kLeastLoaded;
  config.node_specs = storm_fleet_specs(nodes);
  config.planner.window = window;
  config.planner.plan_cache = plan_cache;
  return config;
}

void planner_gates(bool smoke, Report& report) {
  const std::uint32_t nodes = 6;
  const std::uint64_t bursts = smoke ? 6 : 20;
  const std::uint64_t burst_size = 12;
  const auto storm = make_storm_stream(bursts, burst_size, 20 * kSecond);
  std::cout << format(
      "=== planner gate: %zu submissions in %llu bursts of %llu, "
      "%u mixed-backend nodes%s ===\n\n",
      storm.size(), static_cast<unsigned long long>(bursts),
      static_cast<unsigned long long>(burst_size), nodes,
      smoke ? " (smoke)" : "");

  // Planning k >= 4 submissions jointly by min-estimated-finish routes
  // each class to the backend where it finishes earliest, and beats the
  // window-1 baseline, which can only place the queue head.
  const auto greedy =
      run_arm(report, "window 1",
              storm_config(storm.size(), nodes, 1, /*plan_cache=*/false),
              storm)
          .metrics;
  const auto lookahead = run_arm(
      report, "window 8",
      storm_config(storm.size(), nodes, 8, /*plan_cache=*/false), storm);
  const double greedy_makespan_s =
      static_cast<double>(greedy.makespan_ns) / 1e9;
  const double lookahead_makespan_s =
      static_cast<double>(lookahead.metrics.makespan_ns) / 1e9;
  std::string lookahead_failure;
  if (greedy.completed != storm.size() ||
      lookahead.metrics.completed != storm.size()) {
    lookahead_failure = "not every submission completed";
  } else if (lookahead.metrics.makespan_ns >= greedy.makespan_ns) {
    lookahead_failure =
        format("window-8 makespan %.3f s !< window-1 %.3f s",
               lookahead_makespan_s, greedy_makespan_s);
  }
  report.gate(
      "lookahead-beats-greedy", lookahead_failure.empty(),
      lookahead_failure.empty()
          ? format("makespan %.3f s vs %.3f s (%.1f%% faster)",
                   lookahead_makespan_s, greedy_makespan_s,
                   100.0 * (1.0 - lookahead_makespan_s / greedy_makespan_s))
          : lookahead_failure);

  // The same trace twice through one scheduler revisits the same
  // (window class sequence × fleet state) keys, so the second run
  // serves > 90% of its plans from the cache, schedule unchanged.
  auto twin_config =
      storm_config(storm.size(), nodes, 4, /*plan_cache=*/true);
  twin_config.planner.plan_cache_capacity = 1 << 16;
  service::OnlineScheduler scheduler(twin_config);
  const auto first = unwrap(scheduler.run(storm));
  const auto second = unwrap(scheduler.run(storm));
  // Metrics are per-run deltas: this is the second run's own rate.
  const auto twin_hits = second.metrics.plan_cache_hits;
  const auto twin_misses = second.metrics.plan_cache_misses;
  const double twin_hit_rate = second.metrics.plan_cache_hit_rate();
  std::string twin_diff = first_difference(
      first.completions, second.completions, schedule_difference);
  const std::string hit_rate =
      format("second-run hit rate %.1f%% (%llu/%llu)", 100.0 * twin_hit_rate,
             static_cast<unsigned long long>(twin_hits),
             static_cast<unsigned long long>(twin_hits + twin_misses));
  if (twin_diff.empty() && twin_hit_rate <= 0.9) {
    twin_diff = format("%s !> 90%%", hit_rate.c_str());
  }
  report.gate("plan-cache-steady-state", twin_diff.empty(),
              twin_diff.empty() ? hit_rate + ", schedule identical"
                                : twin_diff);

  // Memoization is a pure cost optimization, never a decision input:
  // every record is identical with the plan cache on or off.
  const auto cached = run_arm(
      report, "window 8, plan cache",
      storm_config(storm.size(), nodes, 8, /*plan_cache=*/true), storm);
  const std::string cache_diff = first_difference(
      lookahead.completions, cached.completions, record_difference);
  report.gate("plan-cache-transparent", cache_diff.empty(),
              cache_diff.empty()
                  ? format("%zu completions identical, cache on vs off",
                           cached.completions.size())
                  : cache_diff);

  report.json = {
      {"submissions", static_cast<double>(storm.size())},
      {"greedy_makespan_s", greedy_makespan_s},
      {"lookahead_makespan_s", lookahead_makespan_s},
      {"lookahead_speedup", lookahead_makespan_s > 0.0
                                ? greedy_makespan_s / lookahead_makespan_s
                                : 0.0},
      {"lookahead_plans", static_cast<double>(lookahead.metrics.plans)},
      {"plan_cache_hits", static_cast<double>(twin_hits)},
      {"plan_cache_misses", static_cast<double>(twin_misses)},
      {"plan_cache_hit_rate", twin_hit_rate}};
}

// --- trace ------------------------------------------------------------

void trace_gates(bool smoke, Report& report) {
  service::ArrivalParams arrivals;
  arrivals.count = smoke ? 2000 : 20000;
  arrivals.classes = 8;
  arrivals.mean_interarrival_ns = 40.0e6;
  const auto stream = unwrap(service::make_submission_stream(arrivals));
  const auto pool = service::make_class_pool(arrivals.classes, arrivals.seed);
  const auto trace = traces::record_trace(stream, pool);
  const traces::TraceReplayer replayer{pool};
  std::cout << format("=== Trace gate: %zu submissions, %u classes%s ===\n\n",
                      stream.size(), arrivals.classes,
                      smoke ? " (smoke)" : "");

  // Recording a stream and replaying the trace reproduces it bit for
  // bit (ids, arrivals, priorities, labels, class fingerprints), and
  // the serialization is canonical: serialize∘parse∘serialize is
  // byte-identical.
  const auto text = traces::serialize_trace(trace);
  const auto parsed = unwrap(traces::parse_trace(text));
  std::string round_trip_failure;
  if (traces::serialize_trace(parsed) != text) {
    round_trip_failure = "serialize∘parse∘serialize changed the bytes";
  } else {
    const auto replayed = unwrap(replayer.replay(parsed));
    if (replayed.size() != stream.size()) {
      round_trip_failure = format("replayed %zu of %zu submissions",
                                  replayed.size(), stream.size());
    }
    for (std::size_t i = 0; round_trip_failure.empty() && i < stream.size();
         ++i) {
      const auto& a = stream[i];
      const auto& b = replayed[i];
      if (a.id != b.id || a.arrival_ns != b.arrival_ns ||
          a.priority != b.priority || a.spec.label != b.spec.label ||
          workflow::class_fingerprint(a.spec) !=
              workflow::class_fingerprint(b.spec)) {
        round_trip_failure =
            format("submission %zu differs after round trip", i);
      }
    }
  }
  report.gate("round-trip", round_trip_failure.empty(),
              round_trip_failure.empty()
                  ? format("%zu submissions, %zu trace bytes, canonical",
                           stream.size(), text.size())
                  : round_trip_failure);

  // Two loads of one trace file drive identical schedules, record for
  // record.
  const std::string path = "service_trace_gate_tmp.csv";
  const auto written = traces::write_trace(trace, path);
  const auto first_load = traces::load_trace(path);
  const auto second_load = traces::load_trace(path);
  std::remove(path.c_str());
  unwrap(written);
  auto config = admit_all(4, stream.size());
  config.policy = service::PlacementPolicy::kRecommenderAware;
  const auto first = run_arm(report, "trace load 1", config,
                             unwrap(replayer.replay(unwrap(first_load))));
  const auto second = run_arm(report, "trace load 2", config,
                              unwrap(replayer.replay(unwrap(second_load))));
  const std::string replay_diff = first_difference(
      first.completions, second.completions, record_difference);
  report.gate(
      "deterministic-replay", replay_diff.empty(),
      replay_diff.empty()
          ? format("%llu completions, makespan %.3f s, identical twice",
                   static_cast<unsigned long long>(first.metrics.completed),
                   static_cast<double>(first.metrics.makespan_ns) / 1e9)
          : replay_diff);

  // Fitting the recorded trace and generating a stream from the fitted
  // params reproduces the arrival rate and class-mix entropy within 5%
  // and the priority mix within 5 points.
  const auto fit1 = unwrap(traces::fit_arrival_params(trace));
  auto params = fit1.params;
  params.seed = arrivals.seed + 1;  // an independent sample
  const auto twin = unwrap(service::make_submission_stream(params));
  const auto fit2 = unwrap(traces::fit_arrival_params(traces::record_trace(
      twin, service::make_class_pool(params.classes, params.seed))));
  const double rate_error =
      std::abs(fit2.arrival_rate_per_s - fit1.arrival_rate_per_s) /
      fit1.arrival_rate_per_s;
  const double entropy_error =
      std::abs(fit2.class_mix_entropy_bits - fit1.class_mix_entropy_bits) /
      fit1.class_mix_entropy_bits;
  const bool rate_ok =
      std::abs(fit2.arrival_rate_per_s - fit1.arrival_rate_per_s) <=
      0.05 * std::abs(fit1.arrival_rate_per_s);
  const bool mix_ok =
      std::abs(fit2.params.urgent_fraction - fit1.params.urgent_fraction) <=
          0.05 &&
      std::abs(fit2.params.batch_fraction - fit1.params.batch_fraction) <=
          0.05;
  report.gate(
      "fit-generate-fit",
      rate_ok && mix_ok && entropy_error <= 0.05 &&
          fit2.params.classes == fit1.params.classes,
      format("rate %.2f vs %.2f /s (%.1f%%), entropy %.3f vs %.3f bits "
             "(%.1f%%), urgent %.3f vs %.3f, batch %.3f vs %.3f, classes "
             "%u vs %u",
             fit2.arrival_rate_per_s, fit1.arrival_rate_per_s,
             100.0 * rate_error, fit2.class_mix_entropy_bits,
             fit1.class_mix_entropy_bits, 100.0 * entropy_error,
             fit2.params.urgent_fraction, fit1.params.urgent_fraction,
             fit2.params.batch_fraction, fit1.params.batch_fraction,
             fit2.params.classes, fit1.params.classes));
}

// --- driver -----------------------------------------------------------

struct Scenario {
  const char* name;
  void (*run)(bool smoke, Report& report);
};

constexpr Scenario kScenarios[] = {
    {"throughput", throughput_gates}, {"preemption", preemption_gates},
    {"colocation", colocation_gates}, {"capacity", capacity_gates},
    {"dag", dag_gates},               {"planner", planner_gates},
    {"trace", trace_gates},
};

void print_arms(const Report& report) {
  if (report.arms.empty()) return;
  TextTable table({"Arm", "Completed", "Mean delay", "P99 delay", "Makespan",
                   "Util"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight});
  for (const auto& [label, m] : report.arms) {
    table.add_row(
        {label, format("%llu", static_cast<unsigned long long>(m.completed)),
         format("%.2f ms", m.queue_delay_ns.mean / 1e6),
         format("%.2f ms", m.queue_delay_ns.p99 / 1e6),
         format("%.3f s", static_cast<double>(m.makespan_ns) / 1e9),
         format("%.1f %%", 100.0 * m.mean_utilization)});
  }
  table.write(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::vector<const char*> names;
  for (const Scenario& scenario : kScenarios) names.push_back(scenario.name);
  FlagParser flags(
      "service_gates [scenario...]: the online service's acceptance gates. "
      "Runs the named scenarios (throughput, preemption, colocation, "
      "capacity, dag, planner, trace), or all of them");
  flags.add_bool("smoke", false, "shrink every stream (the ctest run)");
  flags.add_string("json", "BENCH_service.json",
                   "rewrite the service_<scenario> sections of this JSON file");
  flags.add_string("csv", "",
                   "also write one scenario,gate,pass,detail row per gate");
  if (const auto exit_code =
          bench::parse_bench_flags(flags, argc, argv, {}, names)) {
    return *exit_code;
  }
  const auto& selected = flags.positional();
  const std::string json_path = flags.get_string("json");
  const std::string csv_path = flags.get_string("csv");

  bench::BenchJson json(json_path);
  bool json_changed = false;
  CsvWriter csv({"scenario", "gate", "pass", "detail"});
  std::size_t gates = 0;
  std::vector<std::string> failed;
  for (const Scenario& scenario : kScenarios) {
    if (!selected.empty() &&
        std::find(selected.begin(), selected.end(), scenario.name) ==
            selected.end()) {
      continue;
    }
    Report report;
    try {
      scenario.run(flags.get_bool("smoke"), report);
    } catch (const std::exception& error) {
      report.gate("error", false, error.what());
    }
    print_arms(report);
    for (const Gate& gate : report.gates) {
      std::cout << format("%-10s %-26s %s  %s\n", scenario.name,
                          gate.name.c_str(), gate.pass ? "PASS" : "FAIL",
                          gate.detail.c_str());
      csv.add_row({scenario.name, gate.name, gate.pass ? "1" : "0",
                   gate.detail});
      if (!gate.pass) {
        failed.push_back(format("%s/%s", scenario.name, gate.name.c_str()));
      }
    }
    std::cout << "\n";
    gates += report.gates.size();
    if (!report.json.empty()) {
      json.set_section(format("service_%s", scenario.name), report.json);
      json_changed = true;
    }
  }
  if (failed.empty()) {
    std::cout << format("result: all %zu gates pass\n", gates);
  } else {
    std::cout << format("result: %zu of %zu gates FAILED: %s\n",
                        failed.size(), gates, join(failed, ", ").c_str());
  }

  if (json_changed && !json.write()) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return failed.empty() ? 0 : 1;
}
