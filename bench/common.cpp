#include "bench/common.hpp"

#include <cstdio>
#include <iostream>

#include "bench/bench_flags.hpp"
#include "common/strings.hpp"
#include "metrics/report.hpp"

namespace pmemflow::bench {

namespace {

constexpr const char* kCsvHelp = "also write the results to this CSV file";

}  // namespace

std::optional<int> parse_csv_flag(int argc, char** argv,
                                  std::string description,
                                  std::string& csv_path) {
  FlagParser flags(std::move(description));
  flags.add_string("csv", "", kCsvHelp);
  if (auto exit_code = parse_bench_flags(flags, argc, argv, {})) {
    return exit_code;
  }
  csv_path = flags.get_string("csv");
  return std::nullopt;
}

int run_figure(int argc, char** argv, const FigureSpec& figure) {
  FlagParser flags(figure.title);
  flags.add_string("csv", "", kCsvHelp);
  flags.add_bool("quiet", false, "print only the winners, not the panels");
  if (const auto exit_code = parse_bench_flags(flags, argc, argv, {})) {
    return *exit_code;
  }
  const std::string csv_path = flags.get_string("csv");
  const bool quiet = flags.get_bool("quiet");

  std::cout << "=== " << figure.title << " ===\n";
  std::cout << "workload: " << to_string(figure.family) << " over "
            << to_string(figure.stack) << ", 10 iterations/rank\n\n";

  core::Executor executor;
  CsvWriter csv(metrics::sweep_csv_header());
  int matched = 0;

  for (const Panel& panel : figure.panels) {
    const auto spec =
        workloads::make_workflow(figure.family, panel.ranks, figure.stack);
    auto sweep = executor.sweep(spec);
    if (!sweep.has_value()) {
      std::cerr << "error: " << sweep.error().message << "\n";
      return 1;
    }

    if (!quiet) {
      metrics::print_panel(
          std::cout,
          format("%s (%u ranks)", panel.caption, panel.ranks), *sweep);
    }
    const std::string measured = sweep->best().config.label();
    const bool match = measured == panel.paper_winner;
    if (match) ++matched;
    std::cout << format("paper winner: %-6s  measured winner: %-6s  %s\n\n",
                        panel.paper_winner, measured.c_str(),
                        match ? "[reproduced]" : "[DEVIATION]");
    metrics::append_sweep_rows(csv, std::string(to_string(figure.family)),
                               panel.ranks, *sweep);
  }

  std::cout << format("%d/%zu panels reproduce the paper's winner\n",
                      matched, figure.panels.size());

  if (!csv_path.empty()) {
    if (!csv.write_file(csv_path)) {
      std::cerr << "error: could not write " << csv_path << "\n";
      return 1;
    }
    std::cout << "series written to " << csv_path << "\n";
  }
  return 0;
}

}  // namespace pmemflow::bench
