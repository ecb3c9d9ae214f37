// Reproduces Fig 3: the workflow parameter space. For each of the nine
// application-kernel workflows (plus the microbenchmarks), prints the
// measured simulation/analytics I/O indexes, object-size class, and
// concurrency class — the axes of the paper's radar chart (§IV-C).
#include <iostream>

#include "bench/common.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/characterizer.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Fig 3: workflow parameter space", csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Fig 3: Workflow parameter space ===\n"
            << "I/O index = I/O time / iteration time, standalone,\n"
            << "serial, node-local PMEM (paper SIV-C definition)\n\n";

  core::Characterizer characterizer;
  TextTable table({"Workflow", "Sim I/O idx", "Ana I/O idx", "Object size",
                   "Objects/iter", "Concurrency"},
                  {Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kLeft});
  CsvWriter csv({"workflow", "ranks", "sim_io_index", "ana_io_index",
                 "object_size_bytes", "objects_per_iteration",
                 "concurrency_class"});

  for (const auto& spec : workloads::full_suite()) {
    auto profile = characterizer.profile(spec);
    if (!profile.has_value()) {
      std::cerr << "error: " << profile.error().message << "\n";
      return 1;
    }
    table.add_row({
        spec.label,
        format("%.2f", profile->simulation.io_index()),
        format("%.2f", profile->analytics.io_index()),
        format_bytes(profile->simulation.object_size),
        format("%llu", static_cast<unsigned long long>(
                           profile->simulation.objects_per_iteration)),
        core::to_string(profile->features.concurrency),
    });
    csv.add_row({spec.label, format("%u", spec.ranks),
                 format("%.4f", profile->simulation.io_index()),
                 format("%.4f", profile->analytics.io_index()),
                 format("%llu", static_cast<unsigned long long>(
                                    profile->simulation.object_size)),
                 format("%llu", static_cast<unsigned long long>(
                                    profile->simulation
                                        .objects_per_iteration)),
                 core::to_string(profile->features.concurrency)});
  }
  table.write(std::cout);
  std::cout << "\nNote: no single axis determines the best configuration "
               "(paper SIV-C);\nsee table2_recommendations for the full "
               "feature -> config mapping.\n";

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
