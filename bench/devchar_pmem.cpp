// Device characterization sweep (§II-B): regenerates the raw Optane
// behaviour the paper's reasoning is built on, straight from the
// device model:
//   - local read bandwidth scaling to 39.4 GB/s at ~17 threads
//   - local write bandwidth saturating at 13.9 GB/s by 4 threads
//   - remote-write collapse vs mild remote-read degradation
//   - idle latencies (write 90 ns < read 169 ns)
//   - small-access (sub-stripe) penalties at high thread counts
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "pmemsim/allocator.hpp"

namespace pmemflow {
namespace {

double aggregate_bandwidth(pmemsim::OptaneRateAllocator& allocator, int n,
                           sim::IoKind kind, sim::Locality locality,
                           Bytes op_size) {
  std::vector<sim::Flow> flows(static_cast<std::size_t>(n));
  std::vector<sim::Flow*> pointers;
  for (auto& flow : flows) {
    flow.spec.kind = kind;
    flow.spec.locality = locality;
    flow.spec.op_size = op_size;
    flow.spec.total_bytes = op_size;
    flow.remaining_bytes = static_cast<double>(op_size);
    pointers.push_back(&flow);
  }
  allocator.allocate(pointers);
  double total = 0.0;
  for (const auto& flow : flows) total += flow.progress_rate;
  return total;
}

}  // namespace
}  // namespace pmemflow

int main(int argc, char** argv) {
  using namespace pmemflow;
  std::string csv_path;
  if (const auto exit_code = bench::parse_csv_flag(
          argc, argv, "Device characterization sweep (paper SII-B)",
          csv_path)) {
    return *exit_code;
  }

  std::cout << "=== Device characterization (paper SII-B) ===\n\n";

  pmemsim::OptaneParams params;
  interconnect::UpiModel upi;
  pmemsim::OptaneRateAllocator allocator(
      pmemsim::BandwidthModel(params, upi));

  TextTable table({"Threads", "Rd local", "Wr local", "Rd remote",
                   "Wr remote", "Rd 4K local", "Wr 4K local"},
                  {Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight});
  CsvWriter csv({"threads", "read_local_gbps", "write_local_gbps",
                 "read_remote_gbps", "write_remote_gbps",
                 "read_small_gbps", "write_small_gbps"});

  const Bytes big = 64 * kMB;
  const Bytes small = 4 * kKiB;
  for (int n : {1, 2, 4, 8, 12, 16, 17, 20, 24}) {
    const double read_local = aggregate_bandwidth(
        allocator, n, sim::IoKind::kRead, sim::Locality::kLocal, big);
    const double write_local = aggregate_bandwidth(
        allocator, n, sim::IoKind::kWrite, sim::Locality::kLocal, big);
    const double read_remote = aggregate_bandwidth(
        allocator, n, sim::IoKind::kRead, sim::Locality::kRemote, big);
    const double write_remote = aggregate_bandwidth(
        allocator, n, sim::IoKind::kWrite, sim::Locality::kRemote, big);
    const double read_small = aggregate_bandwidth(
        allocator, n, sim::IoKind::kRead, sim::Locality::kLocal, small);
    const double write_small = aggregate_bandwidth(
        allocator, n, sim::IoKind::kWrite, sim::Locality::kLocal, small);
    table.add_row({format("%d", n), format_rate(read_local),
                   format_rate(write_local), format_rate(read_remote),
                   format_rate(write_remote), format_rate(read_small),
                   format_rate(write_small)});
    csv.add_row({format("%d", n), format("%.3f", read_local),
                 format("%.3f", write_local), format("%.3f", read_remote),
                 format("%.3f", write_remote), format("%.3f", read_small),
                 format("%.3f", write_small)});
  }
  table.write(std::cout);

  pmemsim::BandwidthModel model(params, upi);
  std::cout << format(
      "\nidle latencies: read %.0f ns, write %.0f ns (paper: 169/90 ns)\n",
      model.op_latency_ns(sim::IoKind::kRead, sim::Locality::kLocal, 1.0),
      model.op_latency_ns(sim::IoKind::kWrite, sim::Locality::kLocal, 1.0));
  std::cout << format(
      "remote adders: read +%.0f ns, write +%.0f ns\n",
      upi.remote_latency_ns(false), upi.remote_latency_ns(true));
  std::cout << format(
      "remote write degradation at 24 threads: %.1fx (reads: %.2fx)\n",
      1.0 / upi.write_degradation(24.0), 1.0 / upi.read_degradation(24.0));

  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
