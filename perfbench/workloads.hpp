// The replay benchmark's workloads and their input generation.
//
// A workload is a fixed service configuration plus a recipe for the
// submission stream replayed through it. The benchmark owns the whole
// stream: class pools come from service::make_class_pool under a fixed
// per-workload pool seed, DAG classes are generated here, and arrivals,
// priorities and class choices are drawn from the run's --seed. The
// scheduler only ever receives the finished std::vector<Submission>.
//
// The pool seed is fixed (not the run seed) on purpose: the offered
// load of a small pool depends on which classes it drew, so a
// seed-derived 24-class pool would swing a 0.85-load workload from
// underloaded to saturated between seeds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "dag/spec.hpp"
#include "service/scheduler.hpp"
#include "spans.hpp"

namespace perfbench {

/// Which DAG classes a workload's DAG slice draws from.
enum class DagMix : std::uint8_t {
  kNone,      ///< pairs only
  kExamples,  ///< the two shapes of examples/dags, exactly
  kVariants,  ///< many variants of those two shapes (distinct classes)
};

struct WorkloadSpec {
  std::string name;
  /// Scheduler configuration (sharding threads included).
  pmemflow::service::ServiceConfig config;

  std::uint64_t submissions = 0;
  std::uint32_t classes = 0;
  std::uint64_t pool_seed = 0;
  /// Mean gap of the Poisson arrival process (ns).
  double mean_gap_ns = 0.0;
  /// Share of submissions that are DAGs instead of pairs.
  double dag_fraction = 0.0;
  DagMix dag_mix = DagMix::kNone;
  /// Distinct DAG classes generated for kVariants.
  std::uint32_t dag_variants = 0;
  /// Priority mix in tenths (the service defaults: 10 % urgent, 30 %
  /// batch); the rest is normal.
  std::uint32_t urgent_tenths = 1;
  std::uint32_t batch_tenths = 3;
};

/// The named workload, or nullptr.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Builds the workload's submission stream for `seed`. Same seed, same
/// stream. Records "service.make_class_pool", "bench.make_dags" and
/// "bench.make_stream" spans when `spans` is non-null.
[[nodiscard]] std::vector<pmemflow::service::Submission> generate(
    const WorkloadSpec& workload, std::uint64_t seed, SpanRecorder* spans);

/// The executor every workload's scheduler is constructed with: an
/// optane-gen1 node (heterogeneous fleets add per-node specs).
[[nodiscard]] pmemflow::core::Executor make_executor();

}  // namespace perfbench
