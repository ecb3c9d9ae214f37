// Reproduces Fig 1 (motivation): two miniAMR workflows that differ
// only in their analytics kernel, each run under two configurations.
// The paper's point: a configuration tuned for one workflow loses
// 1.4-1.6x when the analytics kernel changes, unless scheduling and
// placement are adjusted too (§I).
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "common/strings.hpp"
#include "core/executor.hpp"
#include "metrics/report.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Fig 1: miniAMR workflows under two configurations",
          csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Fig 1: Performance of miniAMR workflows with "
               "different configurations ===\n\n";

  core::Executor executor;
  CsvWriter csv({"workflow", "config", "runtime_s", "normalized"});

  const workloads::Family families[] = {
      workloads::Family::kMiniAmrReadOnly,
      workloads::Family::kMiniAmrMatrixMult};
  constexpr std::uint32_t kRanks = 16;

  for (const auto family : families) {
    const auto spec = workloads::make_workflow(family, kRanks);
    auto sweep = executor.sweep(spec);
    if (!sweep.has_value()) {
      std::cerr << "error: " << sweep.error().message << "\n";
      return 1;
    }
    metrics::print_normalized(
        std::cout,
        format("%s at %u ranks (normalized to best config)",
               to_string(family), kRanks),
        *sweep);
    for (std::size_t i = 0; i < sweep->results.size(); ++i) {
      csv.add_row({std::string(to_string(family)),
                   sweep->results[i].config.label(),
                   format("%.6f", metrics::to_seconds(
                                      sweep->results[i].run.total_ns)),
                   format("%.4f", sweep->normalized(i))});
    }
    std::cout << format(
        "worst mis-configuration costs %.2fx (paper: 1.4-1.6x loss when "
        "the analytics kernel changes without re-configuring)\n\n",
        sweep->worst_case_penalty());
  }

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
