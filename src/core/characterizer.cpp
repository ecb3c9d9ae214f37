#include "core/characterizer.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"

namespace pmemflow::core {

namespace {

Level classify_fraction(double fraction) {
  if (fraction < 0.02) return Level::kNil;
  if (fraction < 0.35) return Level::kLow;
  if (fraction < 0.65) return Level::kMedium;
  return Level::kHigh;
}

constexpr DeploymentConfig kSerialLocW{ExecutionMode::kSerial,
                                       Placement::kLocalWrite};
constexpr DeploymentConfig kSerialLocR{ExecutionMode::kSerial,
                                       Placement::kLocalRead};

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kNil: return "Nil";
    case Level::kLow: return "low";
    case Level::kMedium: return "medium";
    case Level::kHigh: return "high";
  }
  return "?";
}

WorkflowFeatures Characterizer::derive_features(
    const ComponentProfile& simulation, const ComponentProfile& analytics,
    std::uint32_t ranks, Bytes small_threshold) {
  WorkflowFeatures features;
  features.sim_compute = classify_fraction(1.0 - simulation.io_index());
  features.sim_write = classify_fraction(simulation.io_index());
  features.analytics_compute =
      classify_fraction(1.0 - analytics.io_index());
  features.analytics_read = classify_fraction(analytics.io_index());
  features.small_objects = simulation.object_size <= small_threshold;
  features.concurrency = (ranks <= 8)    ? Level::kLow
                         : (ranks <= 16) ? Level::kMedium
                                         : Level::kHigh;
  return features;
}

WorkflowProfile Characterizer::from_sweep(
    const workflow::WorkflowSpec& spec, const ConfigSweep& sweep,
    const devices::NodeDevices& devices) {
  // Standalone component times: in serial mode the writer phase is
  // unaffected by the readers, so S-LocW's writer span *is* the
  // standalone node-local writer runtime; S-LocR's reader span is the
  // standalone node-local reader runtime. The compute share of each
  // iteration is known exactly from the component model, so
  // io_time = iteration_time - compute_time (the paper's definition:
  // each iteration is composed of a compute and an I/O phase, §IV-A).
  PMEMFLOW_ASSERT(sweep.results.size() >= 2);
  PMEMFLOW_ASSERT(sweep.results[0].config == kSerialLocW);
  PMEMFLOW_ASSERT(sweep.results[1].config == kSerialLocR);
  const workflow::RunResult& serial_locw = sweep.results[0].run;
  const workflow::RunResult& serial_locr = sweep.results[1].run;

  const double iters = static_cast<double>(spec.iterations);
  const stack::SnapshotPart part =
      spec.simulation->part_for(0, spec.ranks, 1);

  WorkflowProfile profile;
  profile.ranks = spec.ranks;
  profile.simulation.iteration_ns =
      static_cast<double>(serial_locw.writer_span_ns) / iters;
  const double sim_compute =
      spec.simulation->compute_ns_per_iteration(0, spec.ranks);
  profile.simulation.io_ns =
      std::max(0.0, profile.simulation.iteration_ns - sim_compute);

  profile.analytics.iteration_ns =
      static_cast<double>(serial_locr.reader_span_ns()) / iters;
  const double ana_compute =
      spec.analytics->compute_ns_per_object(stack::part_op_size(part)) *
      static_cast<double>(stack::part_object_count(part));
  profile.analytics.io_ns =
      std::max(0.0, profile.analytics.iteration_ns - ana_compute);
  profile.simulation.object_size = stack::part_op_size(part);
  profile.simulation.objects_per_iteration = stack::part_object_count(part);
  profile.simulation.bytes_per_iteration = stack::part_bytes(part);
  profile.analytics.object_size = profile.simulation.object_size;
  profile.analytics.objects_per_iteration =
      profile.simulation.objects_per_iteration;
  profile.analytics.bytes_per_iteration =
      profile.simulation.bytes_per_iteration;

  profile.features = derive_features(
      profile.simulation, profile.analytics, spec.ranks,
      devices.primary().small_access_threshold());
  return profile;
}

Expected<WorkflowProfile> Characterizer::profile(
    const workflow::WorkflowSpec& spec) const {
  // The serial half of a sweep: the two standalone runs, in Table I
  // order.
  ConfigSweep serial;
  for (const DeploymentConfig& config : {kSerialLocW, kSerialLocR}) {
    auto result = executor_.execute(spec, config);
    if (!result.has_value()) return Unexpected{result.error()};
    serial.results.push_back(*std::move(result));
  }
  return from_sweep(spec, serial, executor_.runner().devices());
}

}  // namespace pmemflow::core
