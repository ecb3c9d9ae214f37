#include "core/characterizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "workloads/analytics.hpp"
#include "workloads/gtc.hpp"
#include "workloads/microbench.hpp"
#include "workloads/miniamr.hpp"
#include "workloads/suite.hpp"

namespace pmemflow::core {
namespace {

TEST(Characterizer, PureIoComponentHasIoIndexNearOne) {
  Characterizer characterizer;
  const auto spec = workloads::make_workflow(
      workloads::Family::kMicro64MB, 8);
  auto profile = characterizer.profile(spec);
  ASSERT_TRUE(profile.has_value());
  // Microbenchmark components perform only I/O (SIV-B).
  EXPECT_GT(profile->simulation.io_index(), 0.98);
  EXPECT_GT(profile->analytics.io_index(), 0.98);
}

TEST(Characterizer, GtcSimulationHasLowIoIndex) {
  Characterizer characterizer;
  const auto spec = workloads::make_workflow(
      workloads::Family::kGtcReadOnly, 16);
  auto profile = characterizer.profile(spec);
  ASSERT_TRUE(profile.has_value());
  // GTC is compute-heavy: "low Simulation I/O Index" (SIV-C / Fig 3).
  EXPECT_LT(profile->simulation.io_index(), 0.4);
  // The read-only analytics kernel is pure I/O.
  EXPECT_GT(profile->analytics.io_index(), 0.9);
}

TEST(Characterizer, MiniAmrSimulationIsIoHeavy) {
  Characterizer characterizer;
  const auto spec = workloads::make_workflow(
      workloads::Family::kMiniAmrReadOnly, 16);
  auto profile = characterizer.profile(spec);
  ASSERT_TRUE(profile.has_value());
  // miniAMR: I/O-heavy simulation kernel (SVI-A).
  EXPECT_GT(profile->simulation.io_index(), 0.6);
}

TEST(Characterizer, MatrixMultLowersAnalyticsIoIndex) {
  Characterizer characterizer;
  const auto readonly = characterizer.profile(workloads::make_workflow(
      workloads::Family::kMiniAmrReadOnly, 16));
  const auto matmult = characterizer.profile(workloads::make_workflow(
      workloads::Family::kMiniAmrMatrixMult, 16));
  ASSERT_TRUE(readonly.has_value() && matmult.has_value());
  EXPECT_LT(matmult->analytics.io_index(),
            readonly->analytics.io_index());
}

TEST(Characterizer, VolumesMatchTheModel) {
  Characterizer characterizer;
  const auto spec = workloads::make_workflow(
      workloads::Family::kMiniAmrReadOnly, 16);
  auto profile = characterizer.profile(spec);
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->simulation.object_size, 4608u);
  EXPECT_EQ(profile->simulation.objects_per_iteration, 33'000u);
  EXPECT_EQ(profile->simulation.bytes_per_iteration, 33'000u * 4608u);
}

TEST(Characterizer, FeatureDiscretization) {
  ComponentProfile pure_io;
  pure_io.iteration_ns = 100.0;
  pure_io.io_ns = 100.0;
  ComponentProfile compute_heavy;
  compute_heavy.iteration_ns = 100.0;
  compute_heavy.io_ns = 10.0;
  pure_io.object_size = 2048;
  compute_heavy.object_size = 2048;

  const auto features = Characterizer::derive_features(
      compute_heavy, pure_io, 24, /*small_threshold=*/16 * kKiB);
  EXPECT_EQ(features.sim_compute, Level::kHigh);
  EXPECT_EQ(features.sim_write, Level::kLow);
  EXPECT_EQ(features.analytics_compute, Level::kNil);
  EXPECT_EQ(features.analytics_read, Level::kHigh);
  EXPECT_TRUE(features.small_objects);
  EXPECT_EQ(features.concurrency, Level::kHigh);
}

TEST(Characterizer, ConcurrencyClasses) {
  ComponentProfile any;
  any.iteration_ns = 1.0;
  any.io_ns = 1.0;
  any.object_size = 64 * kMB;
  EXPECT_EQ(Characterizer::derive_features(any, any, 8, 16 * kKiB)
                .concurrency,
            Level::kLow);
  EXPECT_EQ(Characterizer::derive_features(any, any, 16, 16 * kKiB)
                .concurrency,
            Level::kMedium);
  EXPECT_EQ(Characterizer::derive_features(any, any, 24, 16 * kKiB)
                .concurrency,
            Level::kHigh);
}

void expect_same_component(const ComponentProfile& a,
                           const ComponentProfile& b) {
  EXPECT_EQ(a.iteration_ns, b.iteration_ns);
  EXPECT_EQ(a.io_ns, b.io_ns);
  EXPECT_EQ(a.object_size, b.object_size);
  EXPECT_EQ(a.objects_per_iteration, b.objects_per_iteration);
  EXPECT_EQ(a.bytes_per_iteration, b.bytes_per_iteration);
}

/// One memory backend and one I/O stack: a case of its own, so ctest -j
/// spreads the sweep-vs-standalone replays across workers.
struct BackendStack {
  const char* backend;
  workflow::WorkflowSpec::Stack stack;
};

/// Names the case in test listings: ctest's test name ends in it.
void PrintTo(const BackendStack& param, std::ostream* out) {
  std::string name =
      std::string(param.backend) + "_" + to_string(param.stack);
  std::replace(name.begin(), name.end(), '-', '_');
  *out << name;
}

class SweepDerivedProfile : public ::testing::TestWithParam<BackendStack> {};

TEST_P(SweepDerivedProfile, MatchesStandaloneRuns) {
  // profile() replays S-LocW and S-LocR itself; from_sweep reads them
  // off a four-config sweep. Exact doubles and features, on every class
  // the paper suite and the service pool hold, per backend and stack.
  const auto [backend, stack] = GetParam();
  std::vector<workflow::WorkflowSpec> specs = workloads::full_suite();
  for (workflow::WorkflowSpec& spec :
       service::make_class_pool(24, service::ArrivalParams{}.seed)) {
    specs.push_back(std::move(spec));
  }
  auto devices = devices::parse_backend(backend);
  ASSERT_TRUE(devices.has_value());
  const Executor executor{workflow::Runner({}, *devices)};
  const Characterizer characterizer{executor};
  for (workflow::WorkflowSpec spec : specs) {
    spec.stack = stack;
    SCOPED_TRACE(std::string(backend) + " " + to_string(stack) + " " +
                 spec.label);
    auto standalone = characterizer.profile(spec);
    auto sweep = executor.sweep(spec);
    ASSERT_TRUE(standalone.has_value() && sweep.has_value());
    const WorkflowProfile derived = Characterizer::from_sweep(
        spec, *sweep, executor.runner().devices());
    EXPECT_EQ(standalone->ranks, derived.ranks);
    expect_same_component(standalone->simulation, derived.simulation);
    expect_same_component(standalone->analytics, derived.analytics);
    const WorkflowFeatures& a = standalone->features;
    const WorkflowFeatures& b = derived.features;
    EXPECT_EQ(a.sim_compute, b.sim_compute);
    EXPECT_EQ(a.sim_write, b.sim_write);
    EXPECT_EQ(a.analytics_compute, b.analytics_compute);
    EXPECT_EQ(a.analytics_read, b.analytics_read);
    EXPECT_EQ(a.small_objects, b.small_objects);
    EXPECT_EQ(a.concurrency, b.concurrency);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Characterizer, SweepDerivedProfile,
    ::testing::Values(
        BackendStack{"optane-gen1", workflow::WorkflowSpec::Stack::kNvStream},
        BackendStack{"optane-gen1", workflow::WorkflowSpec::Stack::kNova},
        BackendStack{"dram-like", workflow::WorkflowSpec::Stack::kNvStream},
        BackendStack{"dram-like", workflow::WorkflowSpec::Stack::kNova}));

TEST(Characterizer, LevelNames) {
  EXPECT_STREQ(to_string(Level::kNil), "Nil");
  EXPECT_STREQ(to_string(Level::kLow), "low");
  EXPECT_STREQ(to_string(Level::kMedium), "medium");
  EXPECT_STREQ(to_string(Level::kHigh), "high");
}

}  // namespace
}  // namespace pmemflow::core
