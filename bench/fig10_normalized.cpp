// Reproduces Fig 10: workflow runtime normalized to the fastest
// configuration, for the four application workflows (GTC/miniAMR x
// Read-Only/MatrixMult) at every concurrency. Also computes the
// paper's headline numbers: no single optimal configuration, and
// mis-configuration costing up to ~70 % (§VII).
#include <algorithm>
#include <iostream>
#include <set>

#include "bench/common.hpp"
#include "common/strings.hpp"
#include "core/executor.hpp"
#include "metrics/report.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv,
          "Fig 10: workflow runtime normalized to the fastest configuration",
          csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Fig 10: Workflow runtime normalized to the fastest "
               "configuration ===\n\n";

  const struct {
    workloads::Family family;
    const char* panel;
  } panels[] = {
      {workloads::Family::kGtcReadOnly, "Fig 10a: GTC + Read-Only"},
      {workloads::Family::kGtcMatrixMult, "Fig 10b: GTC + MatrixMult"},
      {workloads::Family::kMiniAmrReadOnly, "Fig 10c: miniAMR + Read-Only"},
      {workloads::Family::kMiniAmrMatrixMult,
       "Fig 10d: miniAMR + MatrixMult"},
  };

  core::Executor executor;
  CsvWriter csv(metrics::sweep_csv_header());
  std::set<std::string> winners;
  double worst_penalty = 1.0;

  for (const auto& panel : panels) {
    std::cout << panel.panel << "\n";
    for (std::uint32_t ranks : workloads::kConcurrencyLevels) {
      const auto spec = workloads::make_workflow(panel.family, ranks);
      auto sweep = executor.sweep(spec);
      if (!sweep.has_value()) {
        std::cerr << "error: " << sweep.error().message << "\n";
        return 1;
      }
      metrics::print_normalized(std::cout, format("  %u ranks", ranks),
                                *sweep);
      metrics::append_sweep_rows(csv, std::string(to_string(panel.family)),
                                 ranks, *sweep);
      winners.insert(sweep->best().config.label());
      worst_penalty = std::max(worst_penalty, sweep->worst_case_penalty());
    }
  }

  std::cout << format(
      "distinct winning configurations across panels: %zu (paper: no "
      "single optimal configuration)\n",
      winners.size());
  std::cout << format(
      "worst mis-configuration penalty: %.0f%% slowdown (paper: up to "
      "~70%%)\n",
      (worst_penalty - 1.0) * 100.0);

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
