// Service perf gate: repeatable replay and sharded replay.
//
// Replays one large Poisson submission stream through the online
// scheduler and checks:
//
// Unsharded, best-of-3:
//   1. repeat identity: every repeat produces the byte-identical
//      schedule (service::schedule_fingerprint) and DES event count.
//
// Sharded replay (regions pinned to min(4, nodes) — the *semantic*
// knob), sweeping worker threads 1/2/4 (the pure performance knob):
//   2. determinism: every thread count (and every repeat) produces the
//      byte-identical schedule — `--shards N` must never change
//      results;
//   3. speedup: best-of-3 events/sec at 4 workers is >= 2x the
//      1-worker baseline. Only enforced when the host actually has
//      >= 4 hardware threads (always recorded in the JSON).
//
// Results land in the "perf_service" section of BENCH_perf.json via
// bench::BenchJson, which CI uploads as an artifact, so the events/sec
// trend is visible across commits.
//
//   perf_service [--submissions N] [--nodes N] [--classes N]
//                [--shards N] [--json f] [--smoke]
//
// --smoke shrinks the stream for the CI tier-1 smoke job; --shards
// caps the worker-thread sweep (default 4). A bad command line exits 2.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
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
      "perf_service: service perf gate (repeat identity, sharded-replay "
      "identity and speedup)");
  flags.add_int("submissions", 50000, "submissions in the Poisson stream");
  flags.add_int("nodes", 8, "fleet size");
  flags.add_int("classes", 24, "workflow classes in the stream");
  flags.add_int("shards", 4,
                "largest worker-thread count of the 1/2/4 sharded sweep");
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
           {"classes", kMaxU32},
           {"shards", kMaxU32}})) {
    return *exit_code;
  }

  std::uint64_t submissions =
      static_cast<std::uint64_t>(flags.get_int("submissions"));
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  const auto classes = static_cast<std::uint32_t>(flags.get_int("classes"));
  const auto max_shards = static_cast<std::uint32_t>(flags.get_int("shards"));
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

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::cout << format(
      "=== perf_service: %llu submissions, %u classes, %u nodes, "
      "%u hw threads ===\n\n",
      static_cast<unsigned long long>(submissions), classes, nodes,
      hardware_threads);

  // A fresh scheduler per run keeps the profile cache cold every time.
  auto run_once = [&](std::uint32_t regions,
                      std::uint32_t threads) -> RunOutcome {
    service::ServiceConfig config = base_config;
    config.sharding.regions = regions;
    config.sharding.threads = threads;
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
  auto best_of = [&](std::uint32_t regions,
                     std::uint32_t threads) -> RunOutcome {
    RunOutcome best = run_once(regions, threads);
    bool identical = true;
    for (int r = 1; r < kRepeats; ++r) {
      RunOutcome repeat = run_once(regions, threads);
      identical = identical && repeat.fingerprint == best.fingerprint &&
                  repeat.des_events == best.des_events;
      if (repeat.wall_seconds < best.wall_seconds) best = repeat;
    }
    best.repeats_identical = identical;
    return best;
  };

  // ---- Unsharded replay ----
  const RunOutcome unsharded = best_of(1, 0);

  TextTable table({"Completed", "DES events", "Wall", "Events/s",
                   "Rate solves", "Fingerprint"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kLeft});
  table.add_row(
      {format("%llu", static_cast<unsigned long long>(unsharded.completed)),
       format("%llu", static_cast<unsigned long long>(unsharded.des_events)),
       format("%.3f s", unsharded.wall_seconds),
       format("%.0f", unsharded.events_per_sec()),
       format("%llu", static_cast<unsigned long long>(unsharded.rate_solves)),
       format("%016llx",
              static_cast<unsigned long long>(unsharded.fingerprint))});
  std::cout << "--- unsharded replay ---\n";
  table.write(std::cout);

  // Gate 1: byte-identical schedules across the best-of repeats.
  const bool identical = unsharded.repeats_identical;
  std::cout << format("\nrepeat identity    %s across %d repeats\n",
                      identical ? "IDENTICAL" : "DIVERGED", kRepeats);

  // ---- Sharded-replay gate ----
  // Regions are pinned (semantic knob: a 4-region schedule legitimately
  // differs from the 1-region one above); only the worker-thread count
  // varies, and it must not move a single byte.
  const std::uint32_t regions = std::min<std::uint32_t>(4, nodes);
  std::vector<std::uint32_t> thread_counts;
  for (std::uint32_t t : {1u, 2u, 4u}) {
    if (t <= max_shards) thread_counts.push_back(t);
  }
  std::vector<RunOutcome> sharded;
  sharded.reserve(thread_counts.size());
  for (std::uint32_t t : thread_counts) {
    sharded.push_back(best_of(regions, t));
  }

  TextTable shard_table({"Workers", "Completed", "DES events", "Migrations",
                         "Wall", "Events/s", "Fingerprint"},
                        {Align::kRight, Align::kRight, Align::kRight,
                         Align::kRight, Align::kRight, Align::kRight,
                         Align::kLeft});
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const RunOutcome& run = sharded[i];
    shard_table.add_row(
        {format("%u", thread_counts[i]),
         format("%llu", static_cast<unsigned long long>(run.completed)),
         format("%llu", static_cast<unsigned long long>(run.des_events)),
         format("%llu",
                static_cast<unsigned long long>(run.shard_migrations)),
         format("%.3f s", run.wall_seconds),
         format("%.0f", run.events_per_sec()),
         format("%016llx", static_cast<unsigned long long>(run.fingerprint))});
  }
  std::cout << format("\n--- sharded replay: %u regions ---\n", regions);
  shard_table.write(std::cout);

  // Gate 2: the worker-thread count is a pure performance knob.
  bool identical_sharded = true;
  for (const RunOutcome& run : sharded) {
    identical_sharded =
        identical_sharded && run.repeats_identical &&
        run.fingerprint == sharded.front().fingerprint &&
        run.completed == sharded.front().completed &&
        run.des_events == sharded.front().des_events &&
        run.shard_migrations == sharded.front().shard_migrations;
  }
  // Gate 3: >= 2x events/sec at 4 workers vs 1 — only meaningful (and
  // only enforced) when the host has >= 4 hardware threads and the
  // sweep actually reached 4 workers.
  double speedup = 1.0;
  if (sharded.size() > 1 && sharded.front().events_per_sec() > 0.0) {
    speedup = sharded.back().events_per_sec() /
              sharded.front().events_per_sec();
  }
  const bool speedup_enforced =
      hardware_threads >= 4 && thread_counts.back() >= 4;
  const bool fast_enough = !speedup_enforced || speedup >= 2.0;

  std::cout << format(
      "sharded identity   %s across %zu worker counts\n",
      identical_sharded ? "IDENTICAL" : "DIVERGED", sharded.size());
  const char* speedup_verdict = fast_enough ? "OK" : "TOO SLOW";
  if (hardware_threads < 4) {
    speedup_verdict = "not enforced (needs >= 4 hw threads)";
  } else if (!speedup_enforced) {
    speedup_verdict = "not enforced (sweep stops below 4 workers)";
  }
  std::cout << format("sharded speedup    %.2fx (workers %u -> %u)  %s\n",
                      speedup, thread_counts.front(), thread_counts.back(),
                      speedup_verdict);

  const bool pass = identical && identical_sharded && fast_enough;
  std::cout << "\nresult: " << (pass ? "PASS" : "FAIL") << "\n";

  bench::BenchJson json(json_path);
  std::vector<std::pair<std::string, double>> section{
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
      {"hardware_threads", static_cast<double>(hardware_threads)},
      {"identical_sharded", identical_sharded ? 1.0 : 0.0},
      {"speedup_shards", speedup},
      {"shard_migrations",
       static_cast<double>(sharded.front().shard_migrations)},
      {"pass", pass ? 1.0 : 0.0}};
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    section.emplace_back(format("events_per_sec_shards%u", thread_counts[i]),
                         sharded[i].events_per_sec());
  }
  json.set_section("perf_service", section);
  if (!json.write()) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  return pass ? 0 : 1;
}
