// Model ablation: quantifies how much each contention mechanism in the
// device model contributes to the paper's headline effects, by turning
// mechanisms off one at a time and re-running two sentinel workflows:
//   - micro-64MB @ 24 (bandwidth-bound; S-LocW's win depends on the
//     shared-media constraint and remote-write collapse)
//   - micro-2KB @ 24 (overhead-bound; S-LocR's win depends on the
//     small-access thrash)
// DESIGN.md §5 calls these design choices out; this bench is their
// ablation study.
#include <iostream>

#include "bench/common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/executor.hpp"
#include "metrics/report.hpp"
#include "workloads/suite.hpp"

namespace pmemflow {
namespace {

struct Variant {
  const char* name;
  pmemsim::OptaneParams optane;
  interconnect::UpiParams upi;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"full model", {}, {}});

  Variant no_remote_collapse{"no remote-write collapse", {}, {}};
  no_remote_collapse.upi.write_contention_slope = 0.0;
  out.push_back(no_remote_collapse);

  Variant no_small_thrash{"no small-access thrash", {}, {}};
  no_small_thrash.optane.small_access_coeff = 0.0;
  out.push_back(no_small_thrash);

  Variant no_cache_thrash{"no internal-cache thrash", {}, {}};
  no_cache_thrash.optane.cache_thrash_coeff = 0.0;
  out.push_back(no_cache_thrash);

  Variant no_mixed{"no mixed-traffic interference", {}, {}};
  no_mixed.optane.mixed_interference = 0.0;
  out.push_back(no_mixed);

  Variant no_write_decline{"no write decline past 8 threads", {}, {}};
  no_write_decline.optane.write_decline_per_thread = 0.0;
  out.push_back(no_write_decline);
  return out;
}

}  // namespace
}  // namespace pmemflow

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Model ablation: contention mechanisms", csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Model ablation: contention mechanisms ===\n\n";

  const struct {
    workloads::Family family;
    std::uint32_t ranks;
    const char* paper_winner;
  } sentinels[] = {
      {workloads::Family::kMicro64MB, 24, "S-LocW"},
      {workloads::Family::kMicro2KB, 24, "S-LocR"},
  };

  CsvWriter csv({"workload", "variant", "winner", "worst_penalty"});
  for (const auto& sentinel : sentinels) {
    std::cout << to_string(sentinel.family) << " @ " << sentinel.ranks
              << " ranks (paper winner " << sentinel.paper_winner << ")\n";
    TextTable table({"Model variant", "Winner", "Worst penalty", "Note"},
                    {Align::kLeft, Align::kLeft, Align::kRight,
                     Align::kLeft});
    for (const auto& variant : variants()) {
      core::Executor executor{
          workflow::Runner({}, variant.optane, variant.upi)};
      const auto spec =
          workloads::make_workflow(sentinel.family, sentinel.ranks);
      auto sweep = executor.sweep(spec);
      if (!sweep.has_value()) {
        std::cerr << "error: " << sweep.error().message << "\n";
        return 1;
      }
      const std::string winner = sweep->best().config.label();
      table.add_row({variant.name, winner,
                     format("%.2fx", sweep->worst_case_penalty()),
                     winner == sentinel.paper_winner
                         ? ""
                         : "<- paper's winner lost"});
      csv.add_row({std::string(to_string(sentinel.family)), variant.name,
                   winner, format("%.4f", sweep->worst_case_penalty())});
    }
    table.write(std::cout);
    std::cout << "\n";
  }

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
