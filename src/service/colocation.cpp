#include "service/colocation.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"

namespace pmemflow::service {
namespace {

/// Below this, both components are effectively compute-only and the
/// ratio test is noise on noise.
constexpr double kNegligibleIoIndex = 1e-6;

/// Mirrored deployment of one tenant: slot 0 writes on socket 0 and
/// reads on socket 1, slot 1 the other way around. The channel lands on
/// whichever of the tenant's own sockets its preferred parallel
/// placement makes local.
workflow::RunOptions tenant_options(std::uint32_t slot,
                                    core::Placement placement) {
  workflow::RunOptions options;
  options.serial = false;
  options.writer_socket = slot == 0 ? 0 : 1;
  options.reader_socket = slot == 0 ? 1 : 0;
  options.channel_socket = placement == core::Placement::kLocalWrite
                               ? options.writer_socket
                               : options.reader_socket;
  return options;
}

}  // namespace

const char* to_string(IoOrientation orientation) noexcept {
  switch (orientation) {
    case IoOrientation::kWriteHeavy: return "write-heavy";
    case IoOrientation::kReadHeavy: return "read-heavy";
    case IoOrientation::kBalanced: return "balanced";
  }
  return "?";
}

IoOrientation io_orientation(const core::WorkflowProfile& profile,
                             double margin) noexcept {
  const double write_index = profile.simulation.io_index();
  const double read_index = profile.analytics.io_index();
  if (write_index < kNegligibleIoIndex && read_index < kNegligibleIoIndex) {
    return IoOrientation::kBalanced;
  }
  if (write_index >= read_index * margin) return IoOrientation::kWriteHeavy;
  if (read_index >= write_index * margin) return IoOrientation::kReadHeavy;
  return IoOrientation::kBalanced;
}

bool colocation_compatible(const CachedProfile& a, const CachedProfile& b,
                           const ColocationParams& params) {
  if (a.profile.features.small_objects || b.profile.features.small_objects) {
    return false;
  }
  const IoOrientation oa = io_orientation(a.profile, params.io_index_margin);
  const IoOrientation ob = io_orientation(b.profile, params.io_index_margin);
  return (oa == IoOrientation::kWriteHeavy &&
          ob == IoOrientation::kReadHeavy) ||
         (oa == IoOrientation::kReadHeavy && ob == IoOrientation::kWriteHeavy);
}

core::DeploymentConfig preferred_parallel_config(const CachedProfile& profile) {
  // Table I order: S-LocW, S-LocR, P-LocW, P-LocR.
  const auto configs = core::all_configs();
  return profile.runtime_ns[3] < profile.runtime_ns[2] ? configs[3]
                                                       : configs[2];
}

InterferenceTable::InterferenceTable(workflow::Runner runner)
    : runner_(std::move(runner)) {}

Expected<PairInterference> InterferenceTable::lookup(
    const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
    const CachedProfile& b, const workflow::WorkflowSpec& spec_b) {
  return lookup_keyed(a, spec_a, b, spec_b, runner_.devices().fingerprint(),
                      nullptr);
}

Expected<PairInterference> InterferenceTable::lookup(
    const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
    const CachedProfile& b, const workflow::WorkflowSpec& spec_b,
    const devices::NodeDevices& backend) {
  return lookup_keyed(a, spec_a, b, spec_b, backend.fingerprint(), &backend);
}

Expected<PairInterference> InterferenceTable::lookup_keyed(
    const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
    const CachedProfile& b, const workflow::WorkflowSpec& spec_b,
    std::uint64_t device_fp, const devices::NodeDevices* backend) {
  const auto [min_fp, max_fp] = std::minmax(a.fingerprint, b.fingerprint);
  const std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> key{
      min_fp, max_fp, device_fp};
  const bool a_first = a.fingerprint <= b.fingerprint;

  auto orient = [a_first](const PairInterference& canonical) {
    PairInterference out = canonical;
    if (!a_first) std::swap(out.slowdown_a, out.slowdown_b);
    return out;
  };

  if (const auto it = pairs_.find(key); it != pairs_.end()) {
    ++stats_.hits;
    return orient(it->second);
  }

  // Measure in canonical order (lower fingerprint in slot 0) so a
  // lookup with swapped arguments memoizes the identical entry.
  const CachedProfile& lo = a_first ? a : b;
  const CachedProfile& hi = a_first ? b : a;
  const workflow::WorkflowSpec& spec_lo = a_first ? spec_a : spec_b;
  const workflow::WorkflowSpec& spec_hi = a_first ? spec_b : spec_a;

  // Measure against the node's actual backend. Runner construction is
  // configuration-only (cheap); the memo makes each (pair, backend)
  // measurement a one-time cost.
  std::optional<workflow::Runner> backend_runner;
  const workflow::Runner* runner = &runner_;
  if (backend != nullptr && device_fp != runner_.devices().fingerprint()) {
    backend_runner.emplace(runner_.platform(), *backend);
    runner = &*backend_runner;
  }
  // The cross-backend runner dies with this scope; fold its counters in
  // on every exit path (failed simulations still ran the allocator).
  struct CounterFold {
    std::optional<workflow::Runner>& runner;
    pmemsim::AllocatorCounters& into;
    ~CounterFold() {
      if (runner.has_value()) into += runner->allocator_counters();
    }
  } fold{backend_runner, extra_allocator_counters_};

  PairInterference measured;
  // Mirrored sockets give each socket one tenant's writers plus the
  // other's readers (1:1 rank pairing), so the joint core demand per
  // socket is the rank sum.
  if (spec_lo.ranks + spec_hi.ranks <= runner->platform().cores_per_socket) {
    const workflow::Deployment deployments[] = {
        {spec_lo, tenant_options(0, preferred_parallel_config(lo).placement)},
        {spec_hi, tenant_options(1, preferred_parallel_config(hi).placement)},
    };
    auto together = runner->run_colocated(deployments);
    if (!together.has_value()) return Unexpected{together.error()};
    auto alone_lo = runner->run(spec_lo, deployments[0].options);
    if (!alone_lo.has_value()) return Unexpected{alone_lo.error()};
    auto alone_hi = runner->run(spec_hi, deployments[1].options);
    if (!alone_hi.has_value()) return Unexpected{alone_hi.error()};

    auto slowdown = [](SimDuration together_ns, SimDuration alone_ns) {
      if (alone_ns == 0) return 1.0;
      return std::max(1.0, static_cast<double>(together_ns) /
                               static_cast<double>(alone_ns));
    };
    measured.feasible = true;
    measured.slowdown_a =
        slowdown(together->workflows[0].total_ns, alone_lo->total_ns);
    measured.slowdown_b =
        slowdown(together->workflows[1].total_ns, alone_hi->total_ns);
  }
  ++stats_.measurements;
  pairs_.emplace(key, measured);
  return orient(measured);
}

}  // namespace pmemflow::service
