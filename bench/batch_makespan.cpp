// Batch-scheduling extension bench (paper §X future work).
//
// Feeds the full 18-workflow suite as a job queue to the
// BatchScheduler under every policy and reports makespans: what a
// PMEM-unaware scheduler costs versus Table II, the model-based
// scheduler, and the oracle. This quantifies the end-to-end value of
// the paper's recommendations in an actual scheduling loop.
#include <iostream>

#include "bench/common.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/batch.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Batch scheduling: makespan of the 18-workflow suite",
          csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Batch scheduling: makespan of the 18-workflow suite "
               "===\n\n";

  core::BatchScheduler scheduler;
  const auto batch = workloads::full_suite();
  auto results = scheduler.compare(batch);
  if (!results.has_value()) {
    std::cerr << "error: " << results.error().message << "\n";
    return 1;
  }

  const double oracle_ns =
      static_cast<double>(results->back().makespan_ns);
  TextTable table({"Policy", "Makespan", "vs oracle", ""},
                  {Align::kLeft, Align::kRight, Align::kRight,
                   Align::kLeft});
  CsvWriter csv({"policy", "makespan_s", "vs_oracle"});
  for (const auto& result : *results) {
    const double makespan = static_cast<double>(result.makespan_ns);
    table.add_row({to_string(result.policy),
                   format("%.1f s", makespan / 1e9),
                   format("%.2fx", makespan / oracle_ns),
                   ascii_bar(makespan, makespan, 1).empty()
                       ? ""
                       : ascii_bar(makespan / oracle_ns, 2.0, 30)});
    csv.add_row({to_string(result.policy), format("%.6f", makespan / 1e9),
                 format("%.4f", makespan / oracle_ns)});
  }
  table.write(std::cout);

  // Per-workflow decisions of the rule-based policy vs the oracle.
  std::cout << "\nrule-based decisions vs oracle:\n";
  const auto& rule = (*results)[2];
  const auto& oracle = (*results)[4];
  int agree = 0;
  for (std::size_t i = 0; i < rule.items.size(); ++i) {
    if (rule.items[i].config == oracle.items[i].config) {
      ++agree;
    } else {
      std::cout << format("  %-24s rule %-6s oracle %-6s (+%.1f%%)\n",
                          rule.items[i].label.c_str(),
                          rule.items[i].config.label().c_str(),
                          oracle.items[i].config.label().c_str(),
                          (static_cast<double>(rule.items[i].runtime_ns) /
                               static_cast<double>(
                                   oracle.items[i].runtime_ns) -
                           1.0) *
                              100.0);
    }
  }
  std::cout << format("  agreement on %d/%zu workflows\n", agree,
                      rule.items.size());

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
