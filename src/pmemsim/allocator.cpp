#include "pmemsim/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"

namespace pmemflow::pmemsim {

namespace {

constexpr int kMaxIterations = 80;
constexpr double kTolerance = 1e-6;
constexpr double kDamping = 0.5;

}  // namespace

ClassCensus OptaneRateAllocator::make_census() const {
  ClassCensus census;
  for (const std::uint32_t index : class_of_) {
    const View& view = views_[index];
    const bool is_read = view.cls.kind == sim::IoKind::kRead;
    const bool is_local = view.cls.locality == sim::Locality::kLocal;
    if (is_read) {
      (is_local ? census.local_read : census.remote_read) += view.utilization;
    } else {
      (is_local ? census.local_write : census.remote_write) +=
          view.utilization;
      if (!is_local && !view.small) {
        census.remote_write_large += view.utilization;
      }
    }
    if (view.small) census.small += view.utilization;
  }
  return census;
}

void OptaneRateAllocator::allocate(std::span<sim::Flow* const> flows) {
  PMEMFLOW_ASSERT(!flows.empty());
  // Maintainer aid: PMEMFLOW_TRACE_ALLOC=1 prints the fixed-point
  // trajectory (used when diagnosing contention equilibria). Read once
  // per process.
  static const bool trace = std::getenv("PMEMFLOW_TRACE_ALLOC") != nullptr;

  // Group flows by class in first-appearance order. Raw count of
  // small-access flows (static per call): drives the per-op stall
  // multiplier without fixed-point feedback.
  views_.clear();
  class_of_.clear();
  class_of_.reserve(flows.size());
  double small_flow_count = 0.0;
  for (const sim::Flow* flow : flows) {
    const FlowClass cls{flow->spec.kind, flow->spec.locality,
                        flow->spec.op_size,
                        flow->spec.sw_ns_per_op + flow->spec.compute_ns_per_op};
    auto it = std::find_if(views_.begin(), views_.end(),
                           [&](const View& view) { return view.cls == cls; });
    if (it == views_.end()) {
      View view;
      view.cls = cls;
      view.small = model_.is_small(cls.op_size);
      // Start the fixed point from the *uncongested* utilization (per-op
      // device time at the per-thread rate). Starting from u = 1 can
      // trap low-duty flows in a congested equilibrium that their
      // offered load never justifies (the iteration map has multiple
      // fixed points once contention feedback is strong).
      const double optimistic_rate =
          model_.per_thread_cap(cls.kind, view.small);
      const double optimistic_dev =
          static_cast<double>(cls.op_size) / optimistic_rate;
      view.utilization =
          optimistic_dev /
          (optimistic_dev + cls.off_device_ns +
           model_.op_latency_ns(cls.kind, cls.locality, 1.0));
      view.rate = 0.0;
      view.media_share = 0.0;
      view.progress_rate = 0.0;
      views_.push_back(view);
      it = views_.end() - 1;
    }
    class_of_.push_back(static_cast<std::uint32_t>(it - views_.begin()));
    if (it->small) small_flow_count += 1.0;
  }
  const double stall_excess = std::max(
      0.0, small_flow_count - model_.params().small_stall_knee);
  const double small_stall =
      1.0 + model_.params().small_stall_quad * stall_excess * stall_excess;

  AllocationReport report;
  for (report.iterations = 1; report.iterations <= kMaxIterations;
       ++report.iterations) {
    const ClassCensus census = make_census();
    report.census = census;

    const double thrash = model_.cache_thrash_factor(census.total());
    const Rate read_cap =
        model_.read_media_bandwidth(std::max(1.0, census.reads())) *
        model_.mixed_read_factor(census) * thrash;
    const Rate write_cap =
        model_.write_media_bandwidth(std::max(1.0, census.writes())) *
        model_.mixed_write_factor(census) * thrash;
    const Rate remote_write_cap =
        model_.remote_cap(sim::IoKind::kWrite, census);
    // Count-based (not duty-based): avoids a runaway feedback loop
    // where the penalty raises utilization which raises the penalty.
    const double small_factor =
        model_.small_access_factor(small_flow_count);

    // Pass 1: per-class unconstrained device rates (class share bounded
    // by per-thread and interconnect ceilings).
    for (View& view : views_) {
      const bool is_read = view.cls.kind == sim::IoKind::kRead;
      const bool is_remote = view.cls.locality == sim::Locality::kRemote;
      const double n_kind = is_read ? census.reads() : census.writes();
      const double n_remote_kind =
          is_read ? census.remote_read : census.remote_write;
      const Rate class_cap = is_read ? read_cap : write_cap;

      double rate = class_cap / std::max(1.0, n_kind);
      rate = std::min(rate, model_.per_thread_cap(view.cls.kind, view.small));
      if (is_remote) {
        if (is_read) {
          // Remote reads are strictly slower than local ones (1.3x at
          // 24 readers) and bounded by the link.
          rate *= model_.upi().read_degradation(census.remote_read);
          rate = std::min(rate, model_.upi().link_cap() /
                                    std::max(1.0, n_remote_kind));
        } else {
          rate = std::min(rate,
                          remote_write_cap / std::max(1.0, n_remote_kind));
        }
      }
      if (view.small) rate *= small_factor;
      view.rate = std::max(rate, 1e-6);  // keep progress strictly positive
      view.media_share =
          view.utilization * view.rate / std::max(class_cap, 1e-9);
    }

    // Shared-media constraint: reads and writes are serviced by the
    // same DIMMs, so the duty-cycle-weighted media time of all flows
    // cannot exceed 1. This is what removes the "parallel gets both
    // class peaks simultaneously" free lunch: a co-scheduled
    // reader+writer pair shares the media, it does not double it.
    double media_utilization = 0.0;
    for (const std::uint32_t index : class_of_) {
      media_utilization += views_[index].media_share;
    }
    if (media_utilization > 1.0) {
      for (View& view : views_) view.rate /= media_utilization;
    }

    // Pass 2: per-op times, progress rates, and the utilization update.
    double max_delta = 0.0;
    for (View& view : views_) {
      const bool is_read = view.cls.kind == sim::IoKind::kRead;
      const double n_kind = is_read ? census.reads() : census.writes();

      const double latency =
          model_.op_latency_ns(view.cls.kind, view.cls.locality, n_kind);
      const double op_bytes = static_cast<double>(view.cls.op_size);
      const double device_ns = op_bytes / view.rate;
      double op_ns = view.cls.off_device_ns + latency + device_ns;
      if (view.small) op_ns *= small_stall;
      const double utilization = device_ns / op_ns;

      view.progress_rate = op_bytes / op_ns;

      const double next =
          kDamping * view.utilization + (1.0 - kDamping) * utilization;
      max_delta = std::max(max_delta, std::abs(next - view.utilization));
      view.utilization = next;
    }

    if (trace) {
      std::fprintf(stderr, "iter %d: lw=%.3f lr=%.3f small=%.3f delta=%.5f\n",
                   report.iterations, census.local_write, census.local_read,
                   census.small, max_delta);
    }
    if (max_delta < kTolerance) {
      report.converged = true;
      break;
    }
  }

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const View& view = views_[class_of_[i]];
    flows[i]->device_rate = view.rate;
    flows[i]->progress_rate = view.progress_rate;
  }
  last_report_ = report;
}

}  // namespace pmemflow::pmemsim
