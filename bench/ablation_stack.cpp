// Stack ablation (§VII "Observations not tied to a particular storage
// mechanism"): reruns representative workflows over NOVA instead of
// NVStream. Expectation from the paper: large-object workflows show
// the same configuration trends on both stacks; small-object workflows
// shift because NOVA's per-op syscall/journal overhead changes the
// effective PMEM concurrency.
#include <iostream>

#include "bench/common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/executor.hpp"
#include "metrics/report.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Stack ablation: NVStream vs NOVA", csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Stack ablation: NVStream vs NOVA (paper SVII) ===\n\n";

  core::Executor executor;
  TextTable table({"Workflow", "Stack", "Best", "S-LocW", "S-LocR",
                   "P-LocW", "P-LocR"},
                  {Align::kLeft, Align::kLeft, Align::kLeft, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight});
  CsvWriter csv({"workflow", "stack", "config", "total_s", "normalized"});

  const struct {
    workloads::Family family;
    std::uint32_t ranks;
  } cases[] = {
      {workloads::Family::kGtcReadOnly, 16},     // large objects
      {workloads::Family::kGtcReadOnly, 24},     // large objects
      {workloads::Family::kMicro2KB, 16},        // small objects
      {workloads::Family::kMiniAmrReadOnly, 16}, // small objects
  };

  int same_winner_large = 0;
  int large_cases = 0;
  for (const auto& test_case : cases) {
    std::string winners[2];
    for (int stack_index = 0; stack_index < 2; ++stack_index) {
      const auto stack = (stack_index == 0)
                             ? workflow::WorkflowSpec::Stack::kNvStream
                             : workflow::WorkflowSpec::Stack::kNova;
      const auto spec =
          workloads::make_workflow(test_case.family, test_case.ranks, stack);
      auto sweep = executor.sweep(spec);
      if (!sweep.has_value()) {
        std::cerr << "error: " << sweep.error().message << "\n";
        return 1;
      }
      std::vector<std::string> row = {spec.label,
                                      std::string(to_string(stack)),
                                      sweep->best().config.label()};
      for (std::size_t i = 0; i < sweep->results.size(); ++i) {
        row.push_back(format(
            "%.2fs", metrics::to_seconds(sweep->results[i].run.total_ns)));
        csv.add_row({spec.label, std::string(to_string(stack)),
                     sweep->results[i].config.label(),
                     format("%.6f", metrics::to_seconds(
                                        sweep->results[i].run.total_ns)),
                     format("%.4f", sweep->normalized(i))});
      }
      table.add_row(row);
      winners[stack_index] = sweep->best().config.label();
    }
    const bool large = test_case.family == workloads::Family::kGtcReadOnly;
    if (large) {
      ++large_cases;
      if (winners[0] == winners[1]) ++same_winner_large;
    }
  }
  table.write(std::cout);
  std::cout << format(
      "\nlarge-object workflows with identical winners on both stacks: "
      "%d/%d (paper: \"similar trends with both NOVA and NVStream for "
      "large objects\")\n",
      same_winner_large, large_cases);

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
