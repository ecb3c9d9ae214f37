// Shared driver for the figure-reproduction benches.
//
// Each bench binary reproduces one figure of the paper: it runs the
// figure's workflow at each concurrency panel under all four Table I
// configurations, prints the runtime series (split writer/reader bars
// for serial modes, as in the paper), states the measured winner next
// to the paper's winner, and optionally dumps CSV (--csv <path>).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workloads/suite.hpp"

namespace pmemflow::bench {

struct Panel {
  std::uint32_t ranks;
  /// The configuration the paper's figure shows winning this panel.
  const char* paper_winner;
  /// Short annotation, e.g. "Fig 4a, 80 GB".
  const char* caption;
};

struct FigureSpec {
  /// e.g. "Fig 4: Benchmark Writer + Reader with 64MB objects".
  std::string title;
  workloads::Family family;
  std::vector<Panel> panels;
  workflow::WorkflowSpec::Stack stack =
      workflow::WorkflowSpec::Stack::kNvStream;
};

/// Runs the figure and prints it; returns a process exit code
/// (0 even when the measured winner deviates — benches report, tests
/// enforce, 2 on a bad command line). Accepts --csv <path> and --quiet.
int run_figure(int argc, char** argv, const FigureSpec& figure);

/// Parses the command line of a bench whose one flag is --csv <path>;
/// `description` heads its --help. Returns the exit code the bench
/// stops with (0 after --help, 2 after a bad command line), or nullopt
/// when the run goes ahead with `csv_path` set.
std::optional<int> parse_csv_flag(int argc, char** argv,
                                  std::string description,
                                  std::string& csv_path);

}  // namespace pmemflow::bench
