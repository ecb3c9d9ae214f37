// Extension: fine-grained concurrency sweep.
//
// The paper samples each workflow at 8/16/24 ranks; its Table II
// therefore bins concurrency as low/medium/high. This bench sweeps
// every even rank count from 2 to 28 for each workflow family and
// reports where the winning configuration actually flips — the
// crossover points a production scheduler would want to know, and a
// direct answer to "how sensitive are the recommendations to the
// concurrency bins?".
#include <iostream>

#include "bench/common.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/executor.hpp"
#include "metrics/report.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Extension: winner vs concurrency (2-28 ranks)",
          csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Extension: winner vs concurrency (2-28 ranks) ===\n\n";

  core::Executor executor;
  CsvWriter csv({"workload", "ranks", "winner", "best_s", "worst_penalty"});
  TextTable table({"Workload", "Winner by rank count (2,4,...,28)",
                   "Crossovers"},
                  {Align::kLeft, Align::kLeft, Align::kLeft});

  for (const auto family : workloads::all_families()) {
    std::string winners_row;
    std::string crossovers;
    std::string previous;
    for (std::uint32_t ranks = 2; ranks <= 28; ranks += 2) {
      const auto spec = workloads::make_workflow(family, ranks);
      auto sweep = executor.sweep(spec);
      if (!sweep.has_value()) {
        std::cerr << "error: " << sweep.error().message << "\n";
        return 1;
      }
      const std::string winner = sweep->best().config.label();
      if (!winners_row.empty()) winners_row += " ";
      // Compact cell: S-LocW -> SW, P-LocR -> PR, ...
      winners_row += winner[0];
      winners_row += winner[5];
      if (!previous.empty() && winner != previous) {
        crossovers += format("%s->%s@%u ", previous.c_str(),
                             winner.c_str(), ranks);
      }
      previous = winner;
      csv.add_row({std::string(to_string(family)), format("%u", ranks),
                   winner,
                   format("%.6f",
                          metrics::to_seconds(sweep->best().run.total_ns)),
                   format("%.4f", sweep->worst_case_penalty())});
    }
    table.add_row({to_string(family), winners_row,
                   crossovers.empty() ? "none" : crossovers});
  }
  table.write(std::cout);
  std::cout << "\n(SW=S-LocW SR=S-LocR PW=P-LocW PR=P-LocR; the paper's "
               "8/16/24 samples are columns 4, 8 and 12)\n";

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
