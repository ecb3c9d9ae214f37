// Calibration harness for the device/stack model.
//
// Runs the paper's 18-workflow suite under all four configurations and
// scores the outcome against the qualitative acceptance criteria from
// DESIGN.md §4 (expected winner per figure panel plus the margin
// anchors the paper quotes). With --search N it performs a seeded
// random-restart hill climb over the model knobs and prints the best
// parameter set found, which is then baked into the library defaults.
//
// This tool is for maintainers; it is not part of the figure benches.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_flags.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/executor.hpp"
#include "devices/registry.hpp"
#include "workloads/analytics.hpp"
#include "workloads/gtc.hpp"
#include "workloads/microbench.hpp"
#include "workloads/miniamr.hpp"
#include "workloads/suite.hpp"

namespace pmemflow {
namespace {

using core::ConfigSweep;
using core::DeploymentConfig;
using workloads::Family;

/// Everything the search may tune.
struct Knobs {
  pmemsim::OptaneParams optane;
  interconnect::UpiParams upi;
  stack::SoftwareCostModel nvstream = stack::nvstream_cost_model();
  workloads::GtcSimulation::Params gtc;
  workloads::MiniAmrSimulation::Params miniamr;
  workloads::MatrixMultAnalytics::Params gtc_mm{
      .matrix_edge = 512, .mults_per_object = 5.0, .flops_per_ns = 8.0};
  workloads::MatrixMultAnalytics::Params miniamr_mm{
      .matrix_edge = 20, .mults_per_object = 5.0, .flops_per_ns = 8.0};
};

workflow::WorkflowSpec build(const Knobs& knobs, Family family,
                             std::uint32_t ranks) {
  workflow::WorkflowSpec spec;
  spec.ranks = ranks;
  spec.iterations = 10;
  spec.stack = workflow::WorkflowSpec::Stack::kNvStream;
  spec.cost_override = knobs.nvstream;
  spec.verify_reads = false;  // host-time optimization for the search
  switch (family) {
    case Family::kMicro64MB:
      spec.simulation = workloads::micro_64mb();
      spec.analytics = workloads::readonly_analytics();
      break;
    case Family::kMicro2KB:
      spec.simulation = workloads::micro_2kb();
      spec.analytics = workloads::readonly_analytics();
      break;
    case Family::kGtcReadOnly:
      spec.simulation =
          std::make_shared<workloads::GtcSimulation>(knobs.gtc);
      spec.analytics = workloads::readonly_analytics();
      break;
    case Family::kGtcMatrixMult:
      spec.simulation =
          std::make_shared<workloads::GtcSimulation>(knobs.gtc);
      spec.analytics = std::make_shared<workloads::MatrixMultAnalytics>(
          knobs.gtc_mm, "mm-gtc");
      break;
    case Family::kMiniAmrReadOnly:
      spec.simulation =
          std::make_shared<workloads::MiniAmrSimulation>(knobs.miniamr);
      spec.analytics = workloads::readonly_analytics();
      break;
    case Family::kMiniAmrMatrixMult:
      spec.simulation =
          std::make_shared<workloads::MiniAmrSimulation>(knobs.miniamr);
      spec.analytics = std::make_shared<workloads::MatrixMultAnalytics>(
          knobs.miniamr_mm, "mm-amr");
      break;
  }
  spec.label = format("%s@%u", to_string(family), ranks);
  return spec;
}

/// Expected winner per panel (paper Figs 4-9, Table II).
struct PanelExpectation {
  Family family;
  std::uint32_t ranks;
  const char* winner;
};

const std::vector<PanelExpectation>& expectations() {
  static const std::vector<PanelExpectation> table = {
      {Family::kMicro64MB, 8, "S-LocW"},
      {Family::kMicro64MB, 16, "S-LocW"},
      {Family::kMicro64MB, 24, "S-LocW"},
      {Family::kMicro2KB, 8, "P-LocR"},
      {Family::kMicro2KB, 16, "P-LocR"},
      {Family::kMicro2KB, 24, "S-LocR"},
      {Family::kGtcReadOnly, 8, "P-LocR"},
      {Family::kGtcReadOnly, 16, "S-LocR"},
      {Family::kGtcReadOnly, 24, "S-LocW"},
      {Family::kGtcMatrixMult, 8, "P-LocR"},
      {Family::kGtcMatrixMult, 16, "P-LocR"},
      {Family::kGtcMatrixMult, 24, "S-LocW"},
      {Family::kMiniAmrReadOnly, 8, "P-LocR"},
      {Family::kMiniAmrReadOnly, 16, "S-LocR"},
      {Family::kMiniAmrReadOnly, 24, "S-LocW"},
      {Family::kMiniAmrMatrixMult, 8, "P-LocW"},
      {Family::kMiniAmrMatrixMult, 16, "S-LocW"},
      {Family::kMiniAmrMatrixMult, 24, "S-LocW"},
  };
  return table;
}

/// Margin anchors: runtime(slower)/runtime(faster) targets the paper
/// quotes. Scored softly.
struct MarginAnchor {
  Family family;
  std::uint32_t ranks;
  const char* slower;
  const char* faster;
  double target;  // expected ratio, > 1
};

const std::vector<MarginAnchor>& margin_anchors() {
  static const std::vector<MarginAnchor> table = {
      // Fig 4c: S-LocW up to 2.5x better than other scenarios.
      {Family::kMicro64MB, 24, "S-LocR", "S-LocW", 2.5},
      // Fig 5a/5b: P-LocR 10-14% faster than S-LocR.
      {Family::kMicro2KB, 8, "S-LocR", "P-LocR", 1.12},
      {Family::kMicro2KB, 16, "S-LocR", "P-LocR", 1.10},
      // Fig 5c: S-LocR 11.5% faster than parallel.
      {Family::kMicro2KB, 24, "P-LocR", "S-LocR", 1.115},
      // Fig 6b: S-LocR 6-7% faster than parallel.
      {Family::kGtcReadOnly, 16, "P-LocR", "S-LocR", 1.065},
      // Fig 6c: S-LocW 6% faster than S-LocR.
      {Family::kGtcReadOnly, 24, "S-LocR", "S-LocW", 1.06},
      // Fig 7a: parallel 3-9% faster than serial.
      {Family::kGtcMatrixMult, 8, "S-LocR", "P-LocR", 1.06},
      // Fig 8b: S-LocR 6% faster than P-LocR.
      {Family::kMiniAmrReadOnly, 16, "P-LocR", "S-LocR", 1.06},
      // Fig 8c: S-LocW 25% faster than S-LocR.
      {Family::kMiniAmrReadOnly, 24, "S-LocR", "S-LocW", 1.25},
      // Fig 9a: P-LocW 7% better than P-LocR.
      {Family::kMiniAmrMatrixMult, 8, "P-LocR", "P-LocW", 1.07},
  };
  return table;
}

double runtime_of(const ConfigSweep& sweep, const char* label) {
  for (const auto& result : sweep.results) {
    if (result.config.label() == label) {
      return static_cast<double>(result.run.total_ns);
    }
  }
  std::fprintf(stderr, "unknown config %s\n", label);
  std::abort();
}

struct Evaluation {
  double score = 0.0;
  int winners_correct = 0;
  std::map<std::pair<int, std::uint32_t>, ConfigSweep> sweeps;
  std::vector<std::string> report_lines;
};

Evaluation evaluate(const Knobs& knobs, bool verbose) {
  core::Executor executor{workflow::Runner({}, knobs.optane, knobs.upi)};
  Evaluation eval;

  for (const auto& panel : expectations()) {
    const auto spec = build(knobs, panel.family, panel.ranks);
    auto sweep = executor.sweep(spec);
    if (!sweep.has_value()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   sweep.error().message.c_str());
      std::abort();
    }
    const std::string actual = sweep->best().config.label();
    const bool correct = (actual == panel.winner);
    double panel_score;
    if (correct) {
      panel_score = 1.0;
      ++eval.winners_correct;
    } else {
      // Partial credit (capped well below a correct winner, so the
      // search cannot profit from flattening all configs into a tie)
      // when the expected config is nearly optimal.
      const double expected_ns = runtime_of(*sweep, panel.winner);
      const double best_ns =
          static_cast<double>(sweep->best().run.total_ns);
      const double regret = expected_ns / best_ns - 1.0;
      panel_score = std::max(0.0, 0.5 - 5.0 * regret);
    }
    eval.score += panel_score;
    if (verbose) {
      std::string line = format(
          "%-22s expect %-6s got %-6s %s [", spec.label.c_str(),
          panel.winner, actual.c_str(), correct ? "OK  " : "MISS");
      for (std::size_t i = 0; i < sweep->results.size(); ++i) {
        line += format("%s=%.3fs ",
                       sweep->results[i].config.label().c_str(),
                       static_cast<double>(sweep->results[i].run.total_ns) /
                           1e9);
      }
      line += "]";
      eval.report_lines.push_back(std::move(line));
    }
    eval.sweeps.emplace(
        std::make_pair(static_cast<int>(panel.family), panel.ranks),
        *std::move(sweep));
  }

  for (const auto& anchor : margin_anchors()) {
    const auto& sweep =
        eval.sweeps.at({static_cast<int>(anchor.family), anchor.ranks});
    const double ratio =
        runtime_of(sweep, anchor.slower) / runtime_of(sweep, anchor.faster);
    // Normalize the miss against the *excess over parity*, so a ratio
    // of 1.0 (configs indistinguishable) scores zero for any target.
    const double closeness = std::max(
        0.0, 1.0 - std::abs(ratio - anchor.target) / (anchor.target - 1.0));
    eval.score += 0.5 * closeness;
    if (verbose) {
      eval.report_lines.push_back(format(
          "margin %-20s@%-2u %s/%s = %.3f (target %.3f)",
          to_string(anchor.family), anchor.ranks, anchor.slower,
          anchor.faster, ratio, anchor.target));
    }
  }
  return eval;
}

/// Tunable knob descriptor for the random search.
struct KnobRange {
  const char* name;
  double* value;
  double lo;
  double hi;
};

std::vector<KnobRange> knob_ranges(Knobs& knobs) {
  return {
      {"optane.mixed_interference", &knobs.optane.mixed_interference, 0.0,
       0.4},
      {"optane.cache_thrash_threshold",
       &knobs.optane.cache_thrash_threshold, 6.0, 30.0},
      {"optane.cache_thrash_coeff", &knobs.optane.cache_thrash_coeff, 0.0,
       0.2},
      {"optane.small_access_coeff", &knobs.optane.small_access_coeff, 0.0,
       0.8},
      {"optane.small_stall_knee", &knobs.optane.small_stall_knee, 8.0,
       32.0},
      {"optane.small_stall_quad", &knobs.optane.small_stall_quad, 1e-4,
       6e-3},
      {"optane.small_access_flows", &knobs.optane.small_access_flows, 6.0,
       32.0},
      {"optane.per_thread_small_read_cap",
       &knobs.optane.per_thread_small_read_cap, 0.5, 2.9},
      {"optane.per_thread_small_write_cap",
       &knobs.optane.per_thread_small_write_cap, 0.5, 3.5},
      {"optane.write_decline_per_thread",
       &knobs.optane.write_decline_per_thread, 0.0, 0.05},
      {"optane.latency_load_coeff", &knobs.optane.latency_load_coeff, 0.0,
       0.1},
      {"upi.write_contention_knee", &knobs.upi.write_contention_knee, 2.0,
       8.0},
      {"upi.write_contention_slope", &knobs.upi.write_contention_slope, 0.05,
       2.0},
      {"upi.write_contention_floor", &knobs.upi.write_contention_floor, 0.1,
       0.6},
      {"upi.remote_write_ceiling", &knobs.upi.remote_write_ceiling, 4.0,
       13.9},
      {"upi.remote_write_latency_ns", &knobs.upi.remote_write_latency_ns,
       10.0, 300.0},
      {"upi.remote_read_latency_ns", &knobs.upi.remote_read_latency_ns, 60.0,
       600.0},
      {"nvstream.write_ns_per_op", &knobs.nvstream.write_ns_per_op, 1000.0,
       14000.0},
      {"nvstream.read_ns_per_op", &knobs.nvstream.read_ns_per_op, 800.0,
       12000.0},
      {"gtc.base_compute_ns", &knobs.gtc.base_compute_ns, 2e8, 6e9},
      {"gtc.compute_scaling_exponent",
       &knobs.gtc.compute_scaling_exponent, 1.0, 3.5},
      {"miniamr.stencil_ns_per_block", &knobs.miniamr.stencil_ns_per_block,
       50.0, 8000.0},
      {"gtc_mm.mults_per_object", &knobs.gtc_mm.mults_per_object, 0.5, 40.0},
      {"miniamr_mm.mults_per_object", &knobs.miniamr_mm.mults_per_object,
       0.5, 40.0},
  };
}

void print_knobs(const Knobs& knobs) {
  Knobs mutable_copy = knobs;
  for (const auto& range : knob_ranges(mutable_copy)) {
    std::printf("  %-38s = %.6g\n", range.name, *range.value);
  }
}

void search(Knobs& knobs, int budget, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Evaluation best_eval = evaluate(knobs, false);
  Knobs best = knobs;
  std::printf("initial score %.3f (%d/18 winners)\n", best_eval.score,
              best_eval.winners_correct);

  for (int i = 0; i < budget; ++i) {
    Knobs candidate = best;
    auto ranges = knob_ranges(candidate);
    // Perturb 1-3 random knobs multiplicatively.
    const int mutations = 1 + static_cast<int>(rng.below(3));
    for (int m = 0; m < mutations; ++m) {
      auto& range = ranges[rng.below(ranges.size())];
      const double factor = std::exp((rng.uniform() - 0.5) * 0.6);
      *range.value =
          std::min(range.hi, std::max(range.lo, *range.value * factor));
    }
    const Evaluation eval = evaluate(candidate, false);
    if (eval.score > best_eval.score) {
      best_eval = eval;
      best = candidate;
      std::printf("iter %4d: score %.3f (%d/18 winners)\n", i,
                  eval.score, eval.winners_correct);
    }
  }
  knobs = best;
  std::printf("\nbest score %.3f (%d/18 winners); knobs:\n",
              best_eval.score, best_eval.winners_correct);
  print_knobs(best);
}

}  // namespace
}  // namespace pmemflow

int main(int argc, char** argv) {
  using namespace pmemflow;
  FlagParser flags(
      "calibrate: score the device/stack model against the paper's "
      "18-workflow acceptance criteria");
  flags.add_int("search", 0,
                "hill-climb iterations over the model knobs (0 = score only)");
  flags.add_int("seed", 20260706, "search seed");
  flags.add_string("backend", "",
                   "seed the knobs from this optane-kind registry preset");
  if (const auto exit_code = bench::parse_bench_flags(flags, argc, argv, {})) {
    return *exit_code;
  }
  const std::int64_t search_budget = flags.get_int("search");
  if (search_budget < 0 || search_budget > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "error: --search must be between 0 and %d, got %lld\n",
                 std::numeric_limits<int>::max(),
                 static_cast<long long>(search_budget));
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::string backend_name = flags.get_string("backend");

  Knobs knobs;
  if (!backend_name.empty()) {
    // Seed the search from a registry preset instead of the library
    // defaults. Only optane-kind presets expose the full knob surface
    // (DRAM/CXL presets have no small-access or thrash regimes to
    // tune), so anything else is an error, not a silent approximation.
    const auto preset = devices::DeviceRegistry::builtin().find(backend_name);
    if (!preset.has_value()) {
      std::fprintf(stderr, "--backend: %s\n",
                   preset.error().message.c_str());
      return 2;
    }
    if (preset->spec.kind != devices::DeviceKind::kOptane) {
      std::fprintf(stderr,
                   "--backend %s: calibration tunes the Optane timing model; "
                   "pick an optane-kind preset\n",
                   backend_name.c_str());
      return 2;
    }
    knobs.optane = preset->spec.optane;
    knobs.upi = preset->spec.upi;
    std::printf("seeding knobs from preset %s\n", backend_name.c_str());
  }
  if (search_budget > 0) {
    search(knobs, static_cast<int>(search_budget), seed);
  }
  const Evaluation eval = evaluate(knobs, true);
  for (const auto& line : eval.report_lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("\nscore %.3f, winners %d/18\n", eval.score,
              eval.winners_correct);
  return 0;
}
