// Fitting ArrivalParams to a recorded trace.
//
// The bridge that makes synthetic and recorded workloads
// round-trippable: fit_arrival_params condenses a trace into the
// service::ArrivalParams vocabulary (maximum-likelihood Poisson rate,
// priority fractions, distinct-class count) plus the shape statistics
// the Poisson model cannot express — inter-arrival burstiness
// (coefficient of variation; 1 for an ideal Poisson process) and
// class-mix entropy (bits; log2(classes) for a uniform mix). A fitted
// trace can be handed straight to make_submission_stream to generate a
// statistically matched synthetic twin, which `service_gates trace`
// verifies stays within 5% on rate, priority mix, and class mix.
#pragma once

#include "common/expected.hpp"
#include "service/arrivals.hpp"
#include "traces/schema.hpp"

namespace pmemflow::traces {

/// Fit of one trace. `params` is directly consumable by
/// make_submission_stream; the remaining fields describe how well a
/// Poisson/uniform model matches the recording.
struct TraceFit {
  service::ArrivalParams params;

  std::uint64_t records = 0;
  /// First → last arrival (simulated ns).
  SimDuration span_ns = 0;
  /// MLE arrival rate, 1e9 / params.mean_interarrival_ns.
  double arrival_rate_per_s = 0.0;
  /// Coefficient of variation of the inter-arrival gaps: 1 ≈ Poisson,
  /// > 1 bursty, < 1 regular (0 when the trace has < 3 records).
  double burstiness_cv = 0.0;
  /// Shannon entropy of the class mix in bits, and its maximum
  /// (log2 of the distinct-class count) for reference.
  double class_mix_entropy_bits = 0.0;
  double class_mix_entropy_max_bits = 0.0;

  std::uint64_t urgent = 0;
  std::uint64_t normal = 0;
  std::uint64_t batch = 0;
  /// Records carrying a deadline (metadata; not fitted).
  std::uint64_t with_deadline = 0;
};

/// Fits `trace`. Needs at least 2 records for a rate estimate.
/// `generator_seed` is installed into the fitted params (the trace does
/// not constrain it).
[[nodiscard]] Expected<TraceFit> fit_arrival_params(
    const Trace& trace,
    std::uint64_t generator_seed = service::ArrivalParams{}.seed);

}  // namespace pmemflow::traces
