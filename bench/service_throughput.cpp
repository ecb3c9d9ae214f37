// Online-service throughput bench (service-subsystem extension).
//
// Drives >= 100k Poisson submissions over a pool of synthetic workflow
// classes through the online scheduler under each placement policy and
// compares mean/P99 queueing delay, makespan, slowdown vs oracle, and
// utilization. The PMEM-unaware policies (first-fit, least-loaded) run
// everything under one fixed Table I configuration; recommender-aware
// combines least-loaded placement with the paper's per-class
// recommendation — the delta between them is the online, fleet-level
// value of Table II. The profile cache is what makes the scale
// practical: ~dozens of characterizations serve 100k submissions.
//
// Expect first-fit and least-loaded to tie exactly: under sustained
// load at most one node is idle at each dispatch, so every placement
// rule degenerates to "the node that just freed"; only the
// configuration choice still has leverage.
//
//   service_throughput [--submissions N] [--nodes N] [--smoke]
//                      [--csv out.csv] [--json f]
//
// --smoke shrinks the stream for CI tier-1; a bad command line exits 2.
// The run also appends a "service_throughput" section (wall-clock
// events/sec and the recommender-aware p99 delay) to BENCH_service.json
// for the CI artifact.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>

#include "bench_flags.hpp"
#include "bench_json.hpp"
#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"

int main(int argc, char** argv) {
  using namespace pmemflow;

  FlagParser flags(
      "service_throughput: placement policies on one Poisson stream "
      "(recommender-aware must win on mean delay and makespan)");
  flags.add_int("submissions", 100000, "submissions in the Poisson stream");
  flags.add_int("nodes", 8, "fleet size");
  flags.add_bool("smoke", false,
                 "cap the stream at 5000 submissions (CI smoke job)");
  flags.add_string("csv", "", "also write per-policy metrics to this CSV");
  flags.add_string("json", "BENCH_service.json",
                   "write the service_throughput section of this JSON file");
  if (const auto exit_code = bench::parse_bench_flags(
          flags, argc, argv,
          {{"submissions", std::numeric_limits<std::int64_t>::max()},
           {"nodes", std::numeric_limits<std::uint32_t>::max()}})) {
    return *exit_code;
  }
  std::uint64_t submissions =
      static_cast<std::uint64_t>(flags.get_int("submissions"));
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  const std::string csv_path = flags.get_string("csv");
  const std::string json_path = flags.get_string("json");
  if (flags.get_bool("smoke")) {
    submissions = std::min<std::uint64_t>(submissions, 5000);
  }

  service::ArrivalParams arrivals;
  arrivals.count = submissions;
  arrivals.classes = 24;
  // Mean gap tuned to straddle the stability boundary on an 8-node
  // fleet: under the fixed configuration the offered load is just
  // above capacity (queues grow), under per-class recommendations it
  // is just below (queues stay bounded) — the regime where config
  // choice matters most at fleet level.
  arrivals.mean_interarrival_ns = 150.0e6;
  const auto stream = *service::make_submission_stream(arrivals);

  std::cout << format(
      "=== Online service: %llu submissions, %u classes, %u nodes ===\n\n",
      static_cast<unsigned long long>(arrivals.count), arrivals.classes,
      nodes);

  service::ServiceConfig config;
  config.nodes = nodes;
  // Size the queue to the stream so every submission is admitted: the
  // three policies then complete identical work and the delay/makespan
  // deltas are purely scheduling quality. (Admission control under
  // saturation is exercised by tests/service and pmemflowd instead.)
  config.queue_capacity = static_cast<std::size_t>(submissions);
  config.defer_watermark = 1.0;  // no deferrals: identical completion sets

  struct PolicyOutcome {
    service::PlacementPolicy policy;
    service::ServiceMetrics metrics;
  };
  std::vector<PolicyOutcome> outcomes;

  TextTable table({"Policy", "Completed", "Mean delay", "P99 delay",
                   "Makespan", "Slowdown", "Util", "Cache hits"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  CsvWriter csv(service::service_csv_header());

  // Wall-clock accounting for the throughput section of
  // BENCH_service.json: completions + retries across every policy
  // run, over the time spent inside run().
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;

  for (const auto policy : {service::PlacementPolicy::kFirstFit,
                            service::PlacementPolicy::kLeastLoaded,
                            service::PlacementPolicy::kRecommenderAware}) {
    config.policy = policy;
    service::OnlineScheduler scheduler(config);
    const auto wall_start = std::chrono::steady_clock::now();
    auto result = scheduler.run(stream);
    wall_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    if (!result.has_value()) {
      std::cerr << "error: " << result.error().message << "\n";
      return 1;
    }
    const auto& m = result->metrics;
    events_processed += m.completed + m.retries;
    outcomes.push_back({policy, m});
    table.add_row(
        {to_string(policy),
         format("%llu", static_cast<unsigned long long>(m.completed)),
         format("%.2f ms", m.queue_delay_ns.mean / 1e6),
         format("%.2f ms", m.queue_delay_ns.p99 / 1e6),
         format("%.3f s", static_cast<double>(m.makespan_ns) / 1e9),
         format("%.4fx", m.slowdown.mean),
         format("%.1f %%", 100.0 * m.mean_utilization),
         format("%.1f %%", 100.0 * m.cache.hit_rate())});
    append_service_csv_row(csv, to_string(policy), m);
  }
  table.write(std::cout);

  // Acceptance: the recommender-aware policy must beat both
  // fixed-config policies on mean queueing delay and total makespan.
  const auto& aware = outcomes.back().metrics;
  bool wins = true;
  for (std::size_t i = 0; i + 1 < outcomes.size(); ++i) {
    const auto& fixed = outcomes[i].metrics;
    const bool beats = aware.queue_delay_ns.mean < fixed.queue_delay_ns.mean &&
                       aware.makespan_ns < fixed.makespan_ns;
    std::cout << format(
        "\nrecommender-aware vs %-13s delay %.2fx  makespan %.2fx  %s",
        to_string(outcomes[i].policy),
        fixed.queue_delay_ns.mean / aware.queue_delay_ns.mean,
        static_cast<double>(fixed.makespan_ns) /
            static_cast<double>(aware.makespan_ns),
        beats ? "WIN" : "LOSS");
    wins = wins && beats;
  }
  std::cout << "\n\nresult: "
            << (wins ? "recommender-aware wins on mean delay and makespan"
                     : "recommender-aware does NOT dominate (unexpected)")
            << "\n";

  const auto& recommender = outcomes.back().metrics;
  bench::BenchJson json(json_path);
  json.set_section(
      "service_throughput",
      {{"submissions", static_cast<double>(submissions)},
       {"nodes", static_cast<double>(nodes)},
       {"policy_runs", static_cast<double>(outcomes.size())},
       {"wall_seconds", wall_seconds},
       {"events_per_sec",
        wall_seconds > 0.0 ? static_cast<double>(events_processed) /
                                 wall_seconds
                           : 0.0},
       {"submissions_per_sec",
        wall_seconds > 0.0
            ? static_cast<double>(submissions * outcomes.size()) /
                  wall_seconds
            : 0.0},
       {"p99_delay_ms", recommender.queue_delay_ns.p99 / 1e6},
       {"pass", wins ? 1.0 : 0.0}});
  if (!json.write()) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return wins ? 0 : 1;
}
