// Reproduces Table II: configuration recommendations for workflows.
//
// For every workflow in the 18-workflow suite: characterize it
// (features = Table II's columns), obtain the rule-based (Table II)
// and model-based recommendations, and compare both against the
// empirical best from an exhaustive sweep — including each strategy's
// regret. This is the validation the paper's conclusions ask future
// schedulers to perform.
#include <iostream>

#include "bench/common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/autotuner.hpp"
#include "metrics/report.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv,
          "Table II: configuration recommendations for the 18-workflow suite",
          csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Table II: Configuration recommendations for "
               "workflows ===\n\n";

  core::AutoTuner tuner;
  TextTable table(
      {"Workflow", "SimCmp", "SimWr", "AnaCmp", "AnaRd", "Obj", "Conc",
       "Best", "Rule", "rgt", "Model", "rgt"},
      {Align::kLeft, Align::kLeft, Align::kLeft, Align::kLeft, Align::kLeft,
       Align::kLeft, Align::kLeft, Align::kLeft, Align::kLeft, Align::kRight,
       Align::kLeft, Align::kRight});
  CsvWriter csv({"workflow", "ranks", "sim_compute", "sim_write",
                 "ana_compute", "ana_read", "object_class", "concurrency",
                 "best_config", "rule_config", "rule_regret",
                 "model_config", "model_regret"});

  double worst_rule_regret = 1.0;
  double worst_model_regret = 1.0;
  int rule_optimal = 0;
  int model_optimal = 0;
  int total = 0;

  for (const auto& spec : workloads::full_suite()) {
    auto report = tuner.tune(spec);
    if (!report.has_value()) {
      std::cerr << "error: " << report.error().message << "\n";
      return 1;
    }
    const auto& f = report->profile.features;
    const char* object_class = f.small_objects ? "small" : "large";
    table.add_row({
        spec.label,
        core::to_string(f.sim_compute),
        core::to_string(f.sim_write),
        core::to_string(f.analytics_compute),
        core::to_string(f.analytics_read),
        object_class,
        core::to_string(f.concurrency),
        report->best.label(),
        report->rule_based.config.label(),
        format("%.2f", report->rule_based_regret),
        report->model_based.config.label(),
        format("%.2f", report->model_based_regret),
    });
    csv.add_row({spec.label, format("%u", spec.ranks),
                 core::to_string(f.sim_compute),
                 core::to_string(f.sim_write),
                 core::to_string(f.analytics_compute),
                 core::to_string(f.analytics_read), object_class,
                 core::to_string(f.concurrency), report->best.label(),
                 report->rule_based.config.label(),
                 format("%.4f", report->rule_based_regret),
                 report->model_based.config.label(),
                 format("%.4f", report->model_based_regret)});
    worst_rule_regret = std::max(worst_rule_regret,
                                 report->rule_based_regret);
    worst_model_regret = std::max(worst_model_regret,
                                  report->model_based_regret);
    if (report->rule_based.config == report->best) ++rule_optimal;
    if (report->model_based.config == report->best) ++model_optimal;
    ++total;
  }

  table.write(std::cout);
  std::cout << format(
      "\nrule-based (Table II): optimal on %d/%d workflows, worst regret "
      "%.2fx\n",
      rule_optimal, total, worst_rule_regret);
  std::cout << format(
      "model-based scheduler: optimal on %d/%d workflows, worst regret "
      "%.2fx\n",
      model_optimal, total, worst_model_regret);
  std::cout << "(regret = runtime of recommended config / runtime of "
               "empirical best)\n";

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
