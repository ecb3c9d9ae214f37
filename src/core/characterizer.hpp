// Workflow characterization (paper §IV).
//
// Measures, per component, the paper's *I/O index*: the fraction of an
// iteration spent in I/O when the component runs standalone — serially,
// with node-local PMEM access (§IV-C: "the ratio of I/O time /
// Iteration time when the application is executing standalone"). The
// serial Table I runs are exactly those standalone runs: S-LocW's
// writer span is the simulation's, S-LocR's reader span the analytics'.
// Each iteration's compute share is known exactly from the component
// model, so I/O time is the span per iteration minus that compute
// (§IV-A: an iteration is a compute phase plus an I/O phase).
// profile() replays the two serial configurations; a caller that has
// already swept all four derives the same profile from its sweep.
//
// Also extracts the static features a scheduler can read off the launch
// configuration: object size class, concurrency class, per-iteration
// volumes.
#pragma once

#include "core/executor.hpp"

namespace pmemflow::core {

/// Qualitative level used by the paper's Table II.
enum class Level { kNil, kLow, kMedium, kHigh };

[[nodiscard]] const char* to_string(Level level) noexcept;

/// Measured standalone profile of one component.
struct ComponentProfile {
  /// Standalone per-iteration wall time (node-local, serial), ns.
  double iteration_ns = 0.0;
  /// iteration_ns minus the model's compute per iteration: pure I/O
  /// time, ns.
  double io_ns = 0.0;
  /// io_ns / iteration_ns (the paper's I/O index), in [0, 1].
  [[nodiscard]] double io_index() const noexcept {
    return iteration_ns > 0.0 ? io_ns / iteration_ns : 0.0;
  }

  Bytes object_size = 0;
  std::uint64_t objects_per_iteration = 0;
  Bytes bytes_per_iteration = 0;
};

/// Scheduler-facing features of a whole workflow (Table II columns).
struct WorkflowFeatures {
  Level sim_compute = Level::kNil;
  Level sim_write = Level::kNil;
  Level analytics_compute = Level::kNil;
  Level analytics_read = Level::kNil;
  /// true for sub-stripe ("small") object sizes.
  bool small_objects = false;
  /// low (<=8) / medium (<=16) / high concurrency.
  Level concurrency = Level::kLow;
};

/// Full characterization result.
struct WorkflowProfile {
  ComponentProfile simulation;
  ComponentProfile analytics;
  std::uint32_t ranks = 0;
  WorkflowFeatures features;
};

class Characterizer {
 public:
  explicit Characterizer(Executor executor = Executor())
      : executor_(std::move(executor)) {}

  /// Simulates the two standalone (serial) runs and derives the
  /// profile from them.
  [[nodiscard]] Expected<WorkflowProfile> profile(
      const workflow::WorkflowSpec& spec) const;

  /// The same profile from a sweep of `spec` on `devices`, which already
  /// holds both standalone runs (S-LocW and S-LocR, results[0] and
  /// results[1] in Table I order), so it costs no replay.
  [[nodiscard]] static WorkflowProfile from_sweep(
      const workflow::WorkflowSpec& spec, const ConfigSweep& sweep,
      const devices::NodeDevices& devices);

  /// Feature discretization, exposed for tests.
  [[nodiscard]] static WorkflowFeatures derive_features(
      const ComponentProfile& simulation, const ComponentProfile& analytics,
      std::uint32_t ranks, Bytes small_threshold);

 private:
  Executor executor_;
};

}  // namespace pmemflow::core
