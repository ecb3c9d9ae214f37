// Extension: calibration-sensitivity study.
//
// The device model's conclusions should not hinge on razor-edge
// constants. This bench perturbs each headline knob by +/-20% and
// reports how many of the 18 suite winners change — a robustness check
// on the reproduction (small counts = conclusions are driven by the
// mechanisms, not the specific constants).
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/executor.hpp"
#include "devices/registry.hpp"
#include "workloads/suite.hpp"

namespace pmemflow {
namespace {

struct KnobCase {
  const char* name;
  double pmemsim::OptaneParams::* optane_member;
  double interconnect::UpiParams::* upi_member;
};

/// Calibration baseline: the registry's gen1 preset, so this study
/// perturbs exactly the constants every other consumer of the registry
/// runs with.
devices::DeviceSpec gen1_spec() {
  auto preset = devices::DeviceRegistry::builtin().find("optane-gen1");
  if (!preset.has_value()) {
    std::cerr << "error: " << preset.error().message << "\n";
    std::exit(1);
  }
  return preset->spec;
}

std::vector<std::string> suite_winners(const devices::DeviceSpec& device) {
  core::Executor executor{workflow::Runner({}, devices::NodeDevices(device))};
  std::vector<std::string> winners;
  for (const auto& spec : workloads::full_suite()) {
    auto sweep = executor.sweep(spec);
    if (!sweep.has_value()) {
      std::cerr << "error: " << sweep.error().message << "\n";
      std::exit(1);
    }
    winners.push_back(sweep->best().config.label());
  }
  return winners;
}

}  // namespace
}  // namespace pmemflow

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Extension: winner sensitivity to +/-20% knob changes",
          csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Extension: winner sensitivity to +/-20% knob "
               "perturbations ===\n\n";

  const KnobCase knobs[] = {
      {"mixed_interference", &pmemsim::OptaneParams::mixed_interference,
       nullptr},
      {"cache_thrash_coeff", &pmemsim::OptaneParams::cache_thrash_coeff,
       nullptr},
      {"small_access_coeff", &pmemsim::OptaneParams::small_access_coeff,
       nullptr},
      {"small_stall_quad", &pmemsim::OptaneParams::small_stall_quad,
       nullptr},
      {"write_decline_per_thread",
       &pmemsim::OptaneParams::write_decline_per_thread, nullptr},
      {"remote_write_ceiling", nullptr,
       &interconnect::UpiParams::remote_write_ceiling},
      {"write_contention_slope", nullptr,
       &interconnect::UpiParams::write_contention_slope},
      {"write_contention_floor", nullptr,
       &interconnect::UpiParams::write_contention_floor},
      {"remote_read_latency_ns", nullptr,
       &interconnect::UpiParams::remote_read_latency_ns},
  };

  const devices::DeviceSpec base_spec = gen1_spec();
  const auto baseline = suite_winners(base_spec);

  TextTable table({"Knob", "-20% flips", "+20% flips"},
                  {Align::kLeft, Align::kRight, Align::kRight});
  CsvWriter csv({"knob", "direction", "winners_changed"});
  for (const auto& knob : knobs) {
    std::string cells[2];
    int index = 0;
    for (const double factor : {0.8, 1.2}) {
      devices::DeviceSpec perturbed = base_spec;
      if (knob.optane_member != nullptr) {
        perturbed.optane.*knob.optane_member *= factor;
      } else {
        perturbed.upi.*knob.upi_member *= factor;
      }
      const auto winners = suite_winners(perturbed);
      int flips = 0;
      for (std::size_t i = 0; i < winners.size(); ++i) {
        if (winners[i] != baseline[i]) ++flips;
      }
      cells[index++] = format("%d/18", flips);
      csv.add_row({knob.name, factor < 1.0 ? "-20%" : "+20%",
                   format("%d", flips)});
    }
    table.add_row({knob.name, cells[0], cells[1]});
  }
  table.write(std::cout);
  std::cout << "\nflips = suite panels whose winning configuration changes "
               "under the perturbation.\n";

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
