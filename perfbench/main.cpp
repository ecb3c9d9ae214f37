// Replay benchmark: times service::OnlineScheduler::run on one
// generated workload and checks every replay's output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// --trace 0 replays the workload back to back for S seconds with no
// tracing and prints the end-to-end metrics. --trace 1 spends part of
// the budget on the same untraced replays, then replays under spans
// (setup, construction, run), runs the layer probes (probes.hpp) on the
// workload's own inputs and prints the per-layer metrics; --spans
// writes every span and the per-name self times to FILE at exit.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `attempted` counts submissions replayed; `failed` counts those of
// replays that errored. A submission the service drops after its
// retries is an answer of admission control, not a failed operation: it
// shows in dropped_frac.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace pmemflow;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0') options.seconds = 0.0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || !have_seed ||
      !have_trace || !(options.seconds > 0.0)) {
    return std::nullopt;
  }
  return options;
}

/// FNV-1a over the schedule-defining fields of every completion, in
/// order (the same fields bench/perf_service hashes).
std::uint64_t fingerprint(const std::vector<service::CompletionRecord>& records) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  for (const auto& record : records) {
    mix(record.id);
    mix(record.node);
    mix(record.slot);
    mix(static_cast<std::uint64_t>(record.config.mode));
    mix(static_cast<std::uint64_t>(record.config.placement));
    mix(record.start_ns);
    mix(record.finish_ns);
    mix(record.preemptions);
    mix(record.checkpoint_ns);
  }
  return hash;
}

/// Output checks of one replay; empty when every one holds.
std::string check_result(std::size_t submitted,
                         const service::ServiceResult& result) {
  const service::ServiceMetrics& metrics = result.metrics;
  char message[256];
  if (metrics.completed != result.completions.size() ||
      metrics.completed + metrics.dropped != submitted) {
    std::snprintf(message, sizeof message,
                  "completed %llu + dropped %llu != submitted %zu",
                  static_cast<unsigned long long>(metrics.completed),
                  static_cast<unsigned long long>(metrics.dropped), submitted);
    return message;
  }
  for (const service::CompletionRecord& record : result.completions) {
    if (record.arrival_ns > record.start_ns ||
        record.start_ns > record.finish_ns) {
      std::snprintf(message, sizeof message,
                    "submission %llu: arrival %llu, start %llu, finish %llu "
                    "out of order",
                    static_cast<unsigned long long>(record.id),
                    static_cast<unsigned long long>(record.arrival_ns),
                    static_cast<unsigned long long>(record.start_ns),
                    static_cast<unsigned long long>(record.finish_ns));
      return message;
    }
    if (record.work_executed_ns != record.config_runtime_ns) {
      std::snprintf(message, sizeof message,
                    "submission %llu: executed %llu ns of %llu ns of work",
                    static_cast<unsigned long long>(record.id),
                    static_cast<unsigned long long>(record.work_executed_ns),
                    static_cast<unsigned long long>(record.config_runtime_ns));
      return message;
    }
  }
  return {};
}

/// Set-ups per replay. Each is timed as one `setup_s` sample (a set-up
/// takes milliseconds, so one per replay left too few samples for a
/// steady median); the last one's stream and scheduler are replayed.
constexpr int kSetupsPerReplay = 5;

/// Set-ups plus one replay.
struct Replay {
  std::vector<double> setup_s;  // one sample per set-up
  double run_s = 0.0;
  std::size_t submitted = 0;
  std::uint64_t fingerprint = 0;
  service::ServiceMetrics metrics;
  service::InterferenceStats interference;
  /// Kept only when the caller asks (the probes need them).
  std::vector<service::Submission> stream;
  std::vector<service::CompletionRecord> completions;
  /// Run error or failed output check; empty when the replay is good.
  std::string error;

  [[nodiscard]] double submissions_per_s() const {
    return static_cast<double>(submitted) / run_s;
  }
};

Replay replay_once(const perfbench::WorkloadSpec& workload,
                   const service::ServiceConfig& config, std::uint64_t seed,
                   SpanRecorder* spans, bool keep_for_probes) {
  Replay replay;
  SpanRecorder::Scope replay_span(spans, "bench.replay");
  std::optional<service::OnlineScheduler> scheduler;
  for (int i = 0; i < kSetupsPerReplay; ++i) {
    // The previous set-up is torn down outside the timed section.
    scheduler.reset();
    replay.stream = std::vector<service::Submission>();
    const auto t0 = Clock::now();
    {
      SpanRecorder::Scope setup_span(spans, "bench.setup");
      replay.stream = perfbench::generate(workload, seed, spans);
      SpanRecorder::Scope ctor_span(spans, "service.OnlineScheduler.ctor");
      scheduler.emplace(config, perfbench::make_executor());
    }
    replay.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const auto t1 = Clock::now();
  Expected<service::ServiceResult> result = [&] {
    SpanRecorder::Scope run_span(spans, "service.OnlineScheduler.run");
    return scheduler->run(replay.stream);
  }();
  const auto t2 = Clock::now();
  replay.run_s = std::chrono::duration<double>(t2 - t1).count();
  replay.submitted = replay.stream.size();
  if (!result.has_value()) {
    replay.error = result.error().message;
    return replay;
  }
  replay.error = check_result(replay.submitted, *result);
  replay.fingerprint = fingerprint(result->completions);
  replay.metrics = result->metrics;
  replay.interference = scheduler->interference().stats();
  if (keep_for_probes) {
    replay.completions = std::move(result->completions);
  } else {
    replay.stream = std::vector<service::Submission>();  // frees it
  }
  return replay;
}

/// The `q`-quantile of `values`, interpolated between order statistics.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] +
         (position - static_cast<double>(low)) * (values[high] - values[low]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

struct Series {
  std::vector<Replay> replays;  // summaries; streams dropped
  /// Leading replays that only warm up (checked, not measured).
  std::size_t warmup = 0;
  /// First failure; the series stops at it.
  std::string error;

  [[nodiscard]] std::span<const Replay> measured() const {
    return std::span<const Replay>(replays).subspan(warmup);
  }
};

/// Replays back to back until `budget_s` has passed and at least
/// `min_replays` were measured, or a replay fails. Replays that start
/// within the first `warmup_s` are warm-up: the first ones fault in the
/// heap and ran 10-25 % slower. Every replay's fingerprint must equal
/// `*reference` (set by the first replay when empty).
Series replay_series(const perfbench::WorkloadSpec& workload,
                     const service::ServiceConfig& config, std::uint64_t seed,
                     double budget_s, double warmup_s, std::size_t min_replays,
                     SpanRecorder* spans,
                     std::optional<std::uint64_t>& reference) {
  Series series;
  const auto start = Clock::now();
  auto elapsed_s = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  while (series.replays.size() - series.warmup < min_replays ||
         elapsed_s() < budget_s) {
    if (elapsed_s() < warmup_s) ++series.warmup;
    Replay replay = replay_once(workload, config, seed, spans, false);
    if (replay.error.empty()) {
      if (!reference.has_value()) reference = replay.fingerprint;
      if (replay.fingerprint != *reference) {
        char message[128];
        std::snprintf(message, sizeof message,
                      "fingerprint %016llx differs from %016llx",
                      static_cast<unsigned long long>(replay.fingerprint),
                      static_cast<unsigned long long>(*reference));
        replay.error = message;
      }
    }
    if (!replay.error.empty()) series.error = replay.error;
    series.replays.push_back(std::move(replay));
    if (!series.error.empty()) break;
  }
  return series;
}

/// Throughput of the series: the 90th percentile of its replays'
/// submissions_per_s. Other tenants of a shared host only ever slow a
/// replay down, by 10-25 % for seconds at a time; the fastest tenth are
/// the least disturbed. Across runs it spread about half as much as the
/// median did.
double series_sps(const Series& series) {
  std::vector<double> values;
  for (const Replay& replay : series.measured()) {
    values.push_back(replay.submissions_per_s());
  }
  return quantile(std::move(values), 0.9);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer metrics of the traced run. Counters come from the
/// replay's returned ServiceMetrics / InterferenceStats; times from the
/// spans. A metric with no meaning on this workload is reported as 0
/// and listed in `absent` with the reason.
std::vector<Metric> layer_metrics(
    const perfbench::WorkloadSpec& workload, const Replay& traced,
    const SpanRecorder& spans, double untraced_sps, double traced_sps,
    double two_worker_sps,
    std::vector<std::pair<std::string, std::string>>& absent) {
  const service::ServiceMetrics& m = traced.metrics;
  const auto submitted = static_cast<double>(traced.submitted);
  const double lookups = static_cast<double>(m.cache.hits + m.cache.misses);
  const double des_events = static_cast<double>(m.des_events);
  const double run_ns = traced.run_s * 1e9;

  const auto fp = spans.totals_of("workflow.class_fingerprint");
  const auto hit = spans.totals_of("service.profile_cache.lookup");
  const auto characterize =
      spans.totals_of("service.profile_cache.characterize");
  const auto sweep = spans.totals_of("core.executor.sweep");
  const auto characterize_dag =
      spans.totals_of("service.profile_cache.characterize_dag");
  const auto fusion = spans.totals_of("dag.plan_fusion");
  const auto queue_ops = spans.totals_of("sim.event_queue.schedule_pop");

  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, std::string unit) {
    out.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  auto missing = [&absent](const std::string& name, std::string reason) {
    absent.emplace_back(name, std::move(reason));
  };

  add("service.tracing_overhead_sps", traced_sps - untraced_sps, "1/s");

  add("workflow.class_fingerprint_ns", fp.ns_per_call(), "ns");
  add("service.profile_cache.hit_ns", hit.ns_per_call(), "ns");
  if (fp.count == 0) {
    missing("workflow.class_fingerprint_ns", "no pair submissions");
  }
  if (hit.count == 0) {
    missing("service.profile_cache.hit_ns", "no pair submissions");
  }
  add("sim.event_queue.op_ns", queue_ops.ns_per_call(), "ns");
  add("service.host_ns_per_des_event", ratio(run_ns, des_events), "ns");
  add("service.des_events", des_events, "count");
  add("service.des_events_per_submission", ratio(des_events, submitted),
      "count");

  const double characterize_ms = characterize.ns_per_call() / 1e6;
  const double sweep_ms = sweep.ns_per_call() / 1e6;
  add("service.profile_cache.characterize_ms", characterize_ms, "ms");
  add("core.executor.sweep_ms", sweep_ms, "ms");
  add("core.characterize_self_ms", characterize_ms - sweep_ms, "ms");
  add("service.profile_cache.characterize_dag_ms",
      characterize_dag.ns_per_call() / 1e6, "ms");
  add("dag.plan_fusion_us", fusion.ns_per_call() / 1e3, "us");
  if (characterize_dag.count == 0) {
    missing("service.profile_cache.characterize_dag_ms",
            "workload has no DAG submissions");
    missing("dag.plan_fusion_us", "workload has no DAG submissions");
  }
  add("service.profile_cache.lookups", lookups, "count");
  add("service.profile_cache.misses", static_cast<double>(m.cache.misses),
      "count");
  add("service.profile_cache.miss_rate",
      ratio(static_cast<double>(m.cache.misses), lookups), "ratio");
  add("service.profile_cache.lookups_per_submission",
      ratio(lookups, submitted), "count");

  const double solves = static_cast<double>(m.allocator.solves);
  const double solve_hits = static_cast<double>(m.allocator.cache_hits);
  add("pmemsim.allocator.solves", solves, "count");
  add("pmemsim.allocator.solves_per_characterization",
      ratio(solves, static_cast<double>(m.cache.misses)), "count");
  add("pmemsim.allocator.hit_rate", ratio(solve_hits, solves + solve_hits),
      "ratio");

  const double windows =
      static_cast<double>(m.plan_cache_hits + m.plan_cache_misses);
  add("service.planner.plans_per_submission",
      ratio(static_cast<double>(m.plans), submitted), "count");
  add("service.plan_cache.windows", windows, "count");
  add("service.plan_cache.hit_rate",
      ratio(static_cast<double>(m.plan_cache_hits), windows), "ratio");
  if (windows == 0.0) {
    missing("service.plan_cache.hit_rate", "plan cache off");
  }
  add("service.interference.measurements",
      static_cast<double>(traced.interference.measurements), "count");
  if (traced.interference.measurements == 0) {
    missing("service.interference.measurements",
            workload.config.policy == service::PlacementPolicy::kColocationAware
                ? "no write-heavy/read-heavy class pair to pack in the pool"
                : "policy never packs");
  }

  // Epochs are not returned by the service; with an event in every
  // epoch (true at the sharded workload's arrival rate) the barrier
  // count is the makespan in epochs.
  const bool sharded = m.regions > 1;
  const double epochs =
      sharded ? std::ceil(static_cast<double>(m.makespan_ns) /
                          static_cast<double>(workload.config.sharding.epoch_ns))
              : 0.0;
  add("service.sharding.epochs", epochs, "count");
  add("service.sharding.events_per_region_epoch",
      ratio(des_events, epochs * m.regions), "count");
  add("service.sharding.migrations_per_submission",
      ratio(static_cast<double>(m.shard_migrations), submitted), "count");
  add("service.sharding.worker_speedup", ratio(two_worker_sps, untraced_sps),
      "ratio");
  if (!sharded) {
    for (const char* name :
         {"service.sharding.epochs", "service.sharding.events_per_region_epoch",
          "service.sharding.migrations_per_submission",
          "service.sharding.worker_speedup"}) {
      missing(name, "workload is unsharded");
    }
  }

  add("capacity.evictions_per_submission",
      ratio(static_cast<double>(m.evictions), submitted), "count");
  add("capacity.stage_hits", static_cast<double>(m.stage_hits), "count");
  if (!workload.config.capacity.enabled()) {
    missing("capacity.evictions_per_submission", "capacity model off");
    missing("capacity.stage_hits", "capacity model off");
  }
  add("service.preemptions_per_submission",
      ratio(static_cast<double>(m.preemptions), submitted), "count");
  add("service.admission.retries_per_submission",
      ratio(static_cast<double>(m.retries), submitted), "count");

  // Placement-loop self time: run() minus the probed layer costs scaled
  // by the run's own counts (every miss priced as a pair
  // characterization).
  const double layer_ns = static_cast<double>(m.cache.hits) *
                              hit.ns_per_call() +
                          static_cast<double>(m.cache.misses) *
                              characterize.ns_per_call() +
                          des_events * queue_ops.ns_per_call();
  add("service.run_self_ms_est", (run_ns - layer_ns) / 1e6, "ms");
  return out;
}

void print_span_table(const SpanRecorder& spans) {
  std::printf("%-42s %8s %10s %12s %12s %12s\n", "span", "spans", "calls",
              "total_ms", "self_ms", "ns/call");
  for (const perfbench::SpanTotals& t : spans.totals()) {
    std::printf("%-42s %8llu %10llu %12.3f %12.3f %12.1f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.spans),
                static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                t.self_ns / 1e6, t.ns_per_call());
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds: glibc otherwise adapts its mmap
  // threshold to the allocation history, so whether a replay's stream
  // lands on fresh (faulting) pages or reused heap differs run to run.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const auto options = parse_options(argc, argv);
  if (!options.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* workload =
      perfbench::find_workload(options->workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options->workload.c_str());
    return 2;
  }

  const auto start = Clock::now();
  auto elapsed_s = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const double seconds = options->seconds;

  // Untraced replays: the whole budget, or 40 % of it when tracing;
  // those starting in the first second only warm up.
  std::optional<std::uint64_t> reference;
  const Series untraced =
      replay_series(*workload, workload->config, options->seed,
                    options->trace ? 0.4 * seconds : seconds, 1.0, 3, nullptr,
                    reference);
  const double rss_mb = peak_rss_mb();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Replay& replay : untraced.replays) {
    attempted += replay.submitted;
  }
  std::string error = untraced.error;
  if (!error.empty()) failed += untraced.replays.back().submitted;
  const Replay& first = untraced.replays.front();
  const double untraced_sps = series_sps(untraced);

  std::printf("perfbench: workload %s seed %llu: %zu submissions, %zu "
              "untraced replays (%zu warm-up), fingerprint %016llx\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(options->seed), first.submitted,
              untraced.replays.size(), untraced.warmup,
              static_cast<unsigned long long>(reference.value_or(0)));
  std::printf("perfbench: completed %llu, dropped %llu, retries %llu, "
              "colocations %llu, mean utilization %.3f, DES events %llu\n",
              static_cast<unsigned long long>(first.metrics.completed),
              static_cast<unsigned long long>(first.metrics.dropped),
              static_cast<unsigned long long>(first.metrics.retries),
              static_cast<unsigned long long>(first.metrics.colocations),
              first.metrics.mean_utilization,
              static_cast<unsigned long long>(first.metrics.des_events));

  std::vector<Metric> metrics;
  if (!options->trace) {
    std::vector<double> setup;
    for (const Replay& replay : untraced.measured()) {
      setup.insert(setup.end(), replay.setup_s.begin(), replay.setup_s.end());
    }
    const service::ServiceMetrics& m = first.metrics;
    const double submitted = static_cast<double>(first.submitted);
    metrics = {
        {"submissions_per_s", untraced_sps, "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_queue_delay_p50_ms", m.queue_delay_ns.p50 / 1e6, "ms"},
        {"sim_queue_delay_p99_ms", m.queue_delay_ns.p99 / 1e6, "ms"},
        {"sim_slowdown_mean", m.slowdown.mean, "ratio"},
        {"sim_makespan_s", static_cast<double>(m.makespan_ns) / 1e9, "s"},
        {"dropped_frac",
         ratio(static_cast<double>(m.dropped) + (error.empty() ? 0.0 : submitted),
               submitted),
         "ratio"},
    };
  } else if (error.empty()) {
    SpanRecorder spans;
    // Traced replays until 70 % of the budget; the last one keeps its
    // stream and completions for the probes.
    Series traced = replay_series(*workload, workload->config, options->seed,
                                  std::max(0.0, 0.7 * seconds - elapsed_s()),
                                  0.0, 0, &spans, reference);
    Replay last = replay_once(*workload, workload->config, options->seed,
                              &spans, true);
    if (last.error.empty() && last.fingerprint != *reference) {
      last.error = "traced replay fingerprint differs";
    }
    traced.replays.push_back(std::move(last));
    for (const Replay& replay : traced.replays) {
      attempted += replay.submitted;
    }
    if (traced.error.empty()) traced.error = traced.replays.back().error;
    error = traced.error;
    if (!error.empty()) failed += traced.replays.back().submitted;

    // The sharded workload's worker count is a pure performance knob:
    // a 2-worker replay must reproduce the 1-worker fingerprint.
    double two_worker_sps = 0.0;
    if (error.empty() && workload->config.sharding.enabled()) {
      service::ServiceConfig two_workers = workload->config;
      two_workers.sharding.threads = 2;
      const Series parallel =
          replay_series(*workload, two_workers, options->seed,
                        std::max(0.0, 0.85 * seconds - elapsed_s()), 0.0, 1,
                        nullptr, reference);
      for (const Replay& replay : parallel.replays) {
        attempted += replay.submitted;
      }
      if (!parallel.error.empty()) {
        error = "2-worker replay: " + parallel.error;
        failed += parallel.replays.back().submitted;
      }
      two_worker_sps = series_sps(parallel);
    }

    const Replay& probe_replay = traced.replays.back();
    if (error.empty()) {
      perfbench::probe_class_fingerprint(probe_replay.stream, spans);
      if (!perfbench::probe_profile_cache(*workload, probe_replay.stream,
                                          spans, error)) {
        error = "profile-cache probe: " + error;
      }
      perfbench::probe_event_queue(probe_replay.completions, spans);
    }

    std::vector<std::pair<std::string, std::string>> absent;
    metrics = layer_metrics(*workload, probe_replay, spans, untraced_sps,
                            series_sps(traced), two_worker_sps, absent);
    print_span_table(spans);
    for (const auto& [name, reason] : absent) {
      std::printf("perfbench: absent %s: %s\n", name.c_str(), reason.c_str());
    }
    if (!options->spans_path.empty() &&
        !spans.write_json(options->spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options->spans_path.c_str());
    }
  }

  if (!error.empty()) {
    std::printf("perfbench: FAILED: %s\n", error.c_str());
  }
  print_result(error.empty(), attempted, failed, metrics);
  return error.empty() ? 0 : 1;
}
