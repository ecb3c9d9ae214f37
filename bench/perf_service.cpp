// Service perf gate: repeatable unsharded and sharded replay.
//
// Replays one large Poisson submission stream through the online
// scheduler, best-of-3 unsharded and best-of-3 over min(4, nodes)
// regions, and checks:
//
//   1. repeat identity: every unsharded repeat produces the
//      byte-identical schedule (service::schedule_fingerprint) and DES
//      event count;
//   2. sharded identity: every sharded repeat does too, with the same
//      migration count.
//
// The sharded run's events/sec sits next to the unsharded one: their
// ratio is what the region split costs.
//
// Results land in the "perf_service" section of BENCH_perf.json via
// bench::BenchJson, which CI uploads as an artifact, so the events/sec
// trend is visible across commits.
//
//   perf_service [--submissions N] [--nodes N] [--classes N]
//                [--json f] [--smoke]
//
// --smoke shrinks the stream for the CI tier-1 smoke job. A bad command
// line exits 2.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_flags.hpp"
#include "bench_json.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"

namespace {

using namespace pmemflow;

struct RunOutcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t completed = 0;
  std::uint64_t des_events = 0;
  std::uint64_t shard_migrations = 0;
  std::uint64_t rate_solves = 0;
  double wall_seconds = 0.0;
  /// Every best-of repeat matched the first one's fingerprint and DES
  /// event count.
  bool repeats_identical = true;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(des_events) / wall_seconds
               : 0.0;
  }
  [[nodiscard]] double submissions_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(completed) / wall_seconds
               : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pmemflow;

  FlagParser flags(
      "perf_service: service perf gate (unsharded and sharded repeat "
      "identity)");
  flags.add_int("submissions", 50000, "submissions in the Poisson stream");
  flags.add_int("nodes", 8, "fleet size");
  flags.add_int("classes", 24, "workflow classes in the stream");
  flags.add_string("json", "BENCH_perf.json",
                   "write the perf_service section of this JSON file");
  flags.add_bool("smoke", false,
                 "cap the stream at 4000 submissions (CI smoke job)");
  // Every count is positive; the fleet-shape ones must fit 32 bits.
  constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  if (const auto exit_code = bench::parse_bench_flags(
          flags, argc, argv,
          {{"submissions", std::numeric_limits<std::int64_t>::max()},
           {"nodes", kMaxU32},
           {"classes", kMaxU32}})) {
    return *exit_code;
  }

  std::uint64_t submissions =
      static_cast<std::uint64_t>(flags.get_int("submissions"));
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  const auto classes = static_cast<std::uint32_t>(flags.get_int("classes"));
  const std::string json_path = flags.get_string("json");
  if (flags.get_bool("smoke")) {
    submissions = std::min<std::uint64_t>(submissions, 4000);
  }
  constexpr int kRepeats = 3;  // best-of-3 absorbs scheduler jitter

  service::ArrivalParams arrivals;
  arrivals.count = submissions;
  arrivals.classes = classes;
  arrivals.mean_interarrival_ns = 150.0e6;
  const auto stream = *service::make_submission_stream(arrivals);

  service::ServiceConfig base_config;
  base_config.nodes = nodes;
  base_config.policy = service::PlacementPolicy::kRecommenderAware;
  // Admit everything: all runs must complete the identical set of
  // submissions for the fingerprint comparison to be meaningful.
  base_config.queue_capacity = static_cast<std::size_t>(submissions);
  base_config.defer_watermark = 1.0;

  std::cout << format(
      "=== perf_service: %llu submissions, %u classes, %u nodes ===\n\n",
      static_cast<unsigned long long>(submissions), classes, nodes);

  // A fresh scheduler per run keeps the profile cache cold every time.
  auto run_once = [&](std::uint32_t regions) -> RunOutcome {
    service::ServiceConfig config = base_config;
    config.sharding.regions = regions;
    service::OnlineScheduler scheduler(config);
    const auto wall_start = std::chrono::steady_clock::now();
    auto result = scheduler.run(stream);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (!result.has_value()) {
      std::cerr << "error: " << result.error().message << "\n";
      std::exit(1);
    }
    RunOutcome outcome;
    outcome.fingerprint = service::schedule_fingerprint(*result);
    outcome.completed = result->metrics.completed;
    outcome.des_events = result->metrics.des_events;
    outcome.shard_migrations = result->metrics.shard_migrations;
    outcome.rate_solves = result->metrics.rate_solves();
    outcome.wall_seconds = wall_seconds;
    return outcome;
  };

  // Best wall clock of kRepeats, with every repeat's fingerprint
  // checked against the first: repeats are free determinism trials.
  auto best_of = [&](std::uint32_t regions) -> RunOutcome {
    RunOutcome best = run_once(regions);
    bool identical = true;
    for (int r = 1; r < kRepeats; ++r) {
      RunOutcome repeat = run_once(regions);
      identical = identical && repeat.fingerprint == best.fingerprint &&
                  repeat.des_events == best.des_events &&
                  repeat.shard_migrations == best.shard_migrations;
      if (repeat.wall_seconds < best.wall_seconds) best = repeat;
    }
    best.repeats_identical = identical;
    return best;
  };

  // Regions are a semantic knob: the sharded schedule legitimately
  // differs from the unsharded one.
  const std::uint32_t regions = std::min<std::uint32_t>(4, nodes);
  const RunOutcome unsharded = best_of(1);
  const RunOutcome sharded = best_of(regions);

  TextTable table({"Regions", "Completed", "DES events", "Migrations", "Wall",
                   "Events/s", "Rate solves", "Fingerprint"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight, Align::kLeft});
  for (const auto& [count, run] :
       {std::pair{1u, unsharded}, std::pair{regions, sharded}}) {
    table.add_row(
        {format("%u", count),
         format("%llu", static_cast<unsigned long long>(run.completed)),
         format("%llu", static_cast<unsigned long long>(run.des_events)),
         format("%llu", static_cast<unsigned long long>(run.shard_migrations)),
         format("%.3f s", run.wall_seconds),
         format("%.0f", run.events_per_sec()),
         format("%llu", static_cast<unsigned long long>(run.rate_solves)),
         format("%016llx", static_cast<unsigned long long>(run.fingerprint))});
  }
  table.write(std::cout);

  // Gates 1 and 2: byte-identical schedules across each best-of's
  // repeats.
  const bool identical = unsharded.repeats_identical;
  const bool identical_sharded = sharded.repeats_identical;
  std::cout << format("\nrepeat identity    %s across %d repeats\n",
                      identical ? "IDENTICAL" : "DIVERGED", kRepeats);
  std::cout << format("sharded identity   %s across %d repeats\n",
                      identical_sharded ? "IDENTICAL" : "DIVERGED", kRepeats);

  const bool pass = identical && identical_sharded;
  std::cout << "\nresult: " << (pass ? "PASS" : "FAIL") << "\n";

  bench::BenchJson json(json_path);
  const std::vector<std::pair<std::string, double>> section{
      {"submissions", static_cast<double>(submissions)},
      {"nodes", static_cast<double>(nodes)},
      {"classes", static_cast<double>(classes)},
      {"des_events", static_cast<double>(unsharded.des_events)},
      {"wall_seconds", unsharded.wall_seconds},
      {"events_per_sec", unsharded.events_per_sec()},
      {"submissions_per_sec", unsharded.submissions_per_sec()},
      {"rate_solves", static_cast<double>(unsharded.rate_solves)},
      {"identical", identical ? 1.0 : 0.0},
      {"regions", static_cast<double>(regions)},
      {"identical_sharded", identical_sharded ? 1.0 : 0.0},
      {"events_per_sec_sharded", sharded.events_per_sec()},
      {"shard_migrations", static_cast<double>(sharded.shard_migrations)},
      {"pass", pass ? 1.0 : 0.0}};
  json.set_section("perf_service", section);
  if (!json.write()) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  return pass ? 0 : 1;
}
