#include "service/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dag/spec.hpp"
#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"

namespace pmemflow::service {
namespace {

// The golden scenarios below were captured by running this exact block
// against the pre-planner commit (the last one with the per-policy
// choosers inside Region), fingerprinted by schedule_fingerprint
// (service/metrics.hpp); the pins in kGoldenPins are that run's output.
// Keep the block and the fingerprint byte-stable: re-recording pins is
// only legitimate for a deliberate, documented schedule change.

ArrivalParams golden_stream_params() {
  ArrivalParams params;
  params.count = 160;
  params.classes = 10;
  params.mean_interarrival_ns = 6.0e6;
  params.seed = 0x5EED10;
  params.urgent_fraction = 0.15;
  params.batch_fraction = 0.30;
  return params;
}

ServiceConfig golden_config(PlacementPolicy policy) {
  ServiceConfig config;
  config.nodes = 5;
  config.queue_capacity = 256;
  config.defer_watermark = 1.0;
  config.policy = policy;
  return config;
}

std::vector<NodeSpec> golden_hetero_specs(std::uint32_t nodes) {
  const char* presets[] = {"optane-gen1", "dram-like", "cxl-like"};
  std::vector<NodeSpec> specs;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    NodeSpec spec;
    spec.backend_name = presets[i % 3];
    spec.devices = *devices::parse_backend(spec.backend_name);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::shared_ptr<const dag::DagSpec> golden_chain_dag() {
  dag::DagSpec spec;
  spec.label = "golden-chain";
  spec.iterations = 2;
  dag::DagComponent writer;
  writer.name = "writer";
  writer.ranks = 4;
  writer.object_size = 1 * kMiB;
  writer.objects_per_rank = 4;
  writer.compute_ns = 1e7;
  dag::DagComponent reader;
  reader.name = "reader";
  reader.ranks = 4;
  reader.analytics_ns_per_object = 500.0;
  spec.components = {writer, reader};
  spec.edges = {dag::DagEdge{"writer", "reader", {}, 0}};
  return std::make_shared<const dag::DagSpec>(std::move(spec));
}

/// Burst-then-lull stream: the first 30 submissions arrive 5 ms apart
/// (saturating the fleet), the rest 8 s apart (the fleet fully drains
/// between arrivals, so several idle nodes with uneven accumulated
/// busy time are visible to every placement — the regime where
/// first-fit and least-loaded genuinely differ).
Expected<std::vector<Submission>> golden_two_phase_stream() {
  ArrivalParams params = golden_stream_params();
  params.count = 50;
  auto stream = make_submission_stream(params);
  if (!stream.has_value()) return stream;
  for (std::size_t i = 0; i < stream->size(); ++i) {
    if (i < 30) {
      (*stream)[i].arrival_ns = static_cast<SimTime>(i) * 5 * kMillisecond;
    } else {
      (*stream)[i].arrival_ns = 30 * 5 * kMillisecond +
                                static_cast<SimTime>(i - 29) * 8 * kSecond;
    }
  }
  return stream;
}

/// The pre-refactor greedy scenarios the planner must reproduce at
/// window 1: all placement policies, plus the heterogeneous-routing,
/// preemption, and bounded-capacity variants of the paths that branch
/// on fleet state.
struct GoldenScenario {
  const char* name;
  ServiceConfig config;
  ArrivalParams params;
  bool dag_stream = false;
  bool two_phase = false;
};

std::vector<GoldenScenario> golden_scenarios() {
  std::vector<GoldenScenario> scenarios;
  scenarios.push_back(
      {"first-fit", golden_config(PlacementPolicy::kFirstFit),
       golden_stream_params()});
  scenarios.push_back(
      {"least-loaded", golden_config(PlacementPolicy::kLeastLoaded),
       golden_stream_params()});
  for (PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kLeastLoaded}) {
    GoldenScenario lull{policy == PlacementPolicy::kFirstFit
                            ? "first-fit-lull"
                            : "least-loaded-lull",
                        golden_config(policy), golden_stream_params()};
    lull.two_phase = true;
    scenarios.push_back(std::move(lull));
  }
  {
    GoldenScenario tight{"least-loaded-tight-queue",
                         golden_config(PlacementPolicy::kLeastLoaded),
                         golden_stream_params()};
    tight.config.queue_capacity = 12;
    tight.config.defer_watermark = 0.5;
    scenarios.push_back(std::move(tight));
  }
  scenarios.push_back(
      {"recommender", golden_config(PlacementPolicy::kRecommenderAware),
       golden_stream_params()});
  {
    GoldenScenario hetero{"recommender-hetero",
                          golden_config(PlacementPolicy::kRecommenderAware),
                          golden_stream_params()};
    hetero.config.node_specs = golden_hetero_specs(hetero.config.nodes);
    scenarios.push_back(std::move(hetero));
  }
  scenarios.push_back(
      {"colocation", golden_config(PlacementPolicy::kColocationAware),
       golden_stream_params()});
  {
    GoldenScenario capacity{"capacity",
                            golden_config(PlacementPolicy::kCapacityAware),
                            golden_stream_params()};
    capacity.config.capacity.pmem_per_socket = static_cast<Bytes>(6e9);
    capacity.config.capacity.retention.retain_versions = 2;
    scenarios.push_back(std::move(capacity));
  }
  {
    GoldenScenario preempt{"preemption",
                           golden_config(PlacementPolicy::kRecommenderAware),
                           golden_stream_params()};
    preempt.config.preemption = PreemptionPolicy::kCheckpointRestore;
    preempt.params.urgent_fraction = 0.25;
    scenarios.push_back(std::move(preempt));
  }
  {
    GoldenScenario fusion{"dag-fusion",
                          golden_config(PlacementPolicy::kDagFusion),
                          golden_stream_params()};
    fusion.params.count = 48;
    fusion.dag_stream = true;
    scenarios.push_back(std::move(fusion));
  }
  return scenarios;
}

Expected<ServiceResult> run_golden(const GoldenScenario& scenario) {
  auto stream = scenario.two_phase ? golden_two_phase_stream()
                                   : make_submission_stream(scenario.params);
  if (!stream.has_value()) return Unexpected(stream.error());
  if (scenario.dag_stream) {
    const auto chain = golden_chain_dag();
    for (auto& submission : *stream) submission.dag = chain;
  }
  OnlineScheduler scheduler(scenario.config);
  return scheduler.run(*stream);
}

/// Pre-refactor schedule fingerprints, recorded from the legacy
/// per-policy chooser path (the commit that preceded the planner). The
/// window-1 planner must reproduce every one, byte for byte.
struct GoldenPin {
  const char* name;
  std::uint64_t fingerprint;
};

constexpr GoldenPin kGoldenPins[] = {
    {"first-fit", 0x7138c8b5c9cb5ae2ULL},
    {"least-loaded", 0x7138c8b5c9cb5ae2ULL},
    {"first-fit-lull", 0x2da41be0fbc9ea96ULL},
    {"least-loaded-lull", 0x60e612e778a486baULL},
    {"least-loaded-tight-queue", 0x264825f497c06393ULL},
    {"recommender", 0x3abbc4115577e8e4ULL},
    {"recommender-hetero", 0xab30bd71003ae3f9ULL},
    {"colocation", 0x845fed21d79593fdULL},
    {"capacity", 0xf4e38c638812f364ULL},
    {"preemption", 0x653b3c75d0242f5bULL},
    {"dag-fusion", 0x76f86f913a113574ULL},
};

std::uint64_t pin_for(const std::string& name) {
  for (const GoldenPin& pin : kGoldenPins) {
    if (name == pin.name) return pin.fingerprint;
  }
  ADD_FAILURE() << "no golden pin for scenario " << name;
  return 0;
}

std::vector<Submission> golden_stream(const GoldenScenario& scenario) {
  auto stream = scenario.two_phase ? golden_two_phase_stream()
                                   : make_submission_stream(scenario.params);
  EXPECT_TRUE(stream.has_value());
  if (scenario.dag_stream) {
    const auto chain = golden_chain_dag();
    for (auto& submission : *stream) submission.dag = chain;
  }
  return *stream;
}

std::uint64_t run_fingerprint(const ServiceConfig& config,
                              const std::vector<Submission>& stream) {
  OnlineScheduler scheduler(config);
  auto result = scheduler.run(stream);
  EXPECT_TRUE(result.has_value())
      << (result.has_value() ? "" : result.error().message);
  return result.has_value() ? schedule_fingerprint(*result) : 0;
}

GoldenScenario scenario_named(const std::string& name) {
  for (auto& scenario : golden_scenarios()) {
    if (name == scenario.name) return scenario;
  }
  ADD_FAILURE() << "no scenario named " << name;
  return GoldenScenario{"", ServiceConfig{}, ArrivalParams{}};
}

/// Scenarios covering every planner enumeration branch (plain,
/// heterogeneous recommender routing, co-location packing, capacity
/// tiering, whole-node DAG placement) for the cross-product tests that
/// would be too slow over all eleven.
std::vector<std::string> branch_scenarios() {
  return {"least-loaded", "recommender-hetero", "colocation", "capacity",
          "dag-fusion"};
}

TEST(PlannerGolden, WindowOneIsByteIdenticalToPreRefactorGreedy) {
  for (const auto& scenario : golden_scenarios()) {
    auto result = run_golden(scenario);
    ASSERT_TRUE(result.has_value())
        << scenario.name << ": " << result.error().message;
    const std::uint64_t fingerprint = schedule_fingerprint(*result);
    EXPECT_EQ(fingerprint, pin_for(scenario.name))
        << scenario.name << ": planner window-1 schedule diverged from the "
        << "pre-refactor pin; actual fingerprint 0x" << std::hex
        << fingerprint;
  }
}

TEST(PlannerWindows, ShardedWorkerCountNeverChangesTheSchedule) {
  // For each lookahead window the 4-region sharded replay must be
  // byte-identical across 1/2/4 worker threads: threads stay a pure
  // performance knob with the planner in the loop.
  for (const std::string& name : branch_scenarios()) {
    const GoldenScenario scenario = scenario_named(name);
    const auto stream = golden_stream(scenario);
    for (std::uint32_t window : {1u, 4u, 16u}) {
      std::optional<std::uint64_t> expected;
      for (std::uint32_t threads : {1u, 2u, 4u}) {
        ServiceConfig config = scenario.config;
        config.planner.window = window;
        config.sharding.regions = 4;
        config.sharding.threads = threads;
        const std::uint64_t fingerprint = run_fingerprint(config, stream);
        if (!expected.has_value()) expected = fingerprint;
        EXPECT_EQ(fingerprint, *expected)
            << name << " window " << window << " threads " << threads;
      }
    }
  }
}

TEST(PlannerCache, PlanCacheNeverChangesTheSchedule) {
  // The memoized plan cache is transparent: schedules are identical
  // with it on or off, at window 1 and under lookahead.
  for (const std::string& name : branch_scenarios()) {
    const GoldenScenario scenario = scenario_named(name);
    const auto stream = golden_stream(scenario);
    for (std::uint32_t window : {1u, 4u}) {
      ServiceConfig off = scenario.config;
      off.planner.window = window;
      ServiceConfig on = off;
      on.planner.plan_cache = true;
      EXPECT_EQ(run_fingerprint(off, stream), run_fingerprint(on, stream))
          << name << " window " << window;
    }
  }
}

TEST(PlannerCache, SteadyStateTwinRunReplaysItsPlans) {
  // The same stream twice through one scheduler revisits the same
  // (window, fleet state) keys: the second run must replay nearly every
  // plan from the cache and still produce the identical schedule.
  const GoldenScenario scenario = scenario_named("least-loaded");
  const auto stream = golden_stream(scenario);
  ServiceConfig config = scenario.config;
  config.planner.window = 4;
  config.planner.plan_cache = true;
  config.planner.plan_cache_capacity = 1 << 16;
  OnlineScheduler scheduler(config);
  auto first = scheduler.run(stream);
  ASSERT_TRUE(first.has_value()) << first.error().message;
  auto second = scheduler.run(stream);
  ASSERT_TRUE(second.has_value()) << second.error().message;
  EXPECT_EQ(schedule_fingerprint(*first), schedule_fingerprint(*second));
  // Metrics are per-run deltas, so this is the second run's own rate.
  EXPECT_GT(second->metrics.plan_cache_hit_rate(), 0.9)
      << second->metrics.plan_cache_hits << " hits / "
      << second->metrics.plan_cache_misses << " misses";
}

Submission golden_head() {
  auto stream = make_submission_stream(golden_stream_params());
  EXPECT_TRUE(stream.has_value());
  return stream->front();
}

TEST(PlannerCacheKey, DeviceFingerprintsKeyThePlan) {
  // Regression: a plan keyed on an optane-gen1 fleet must never replay
  // on a dram-like fleet — the per-node device fingerprints are part of
  // the key even when every other input matches.
  ServiceConfig mixed = golden_config(PlacementPolicy::kRecommenderAware);
  mixed.node_specs = golden_hetero_specs(mixed.nodes);
  ServiceConfig dram = mixed;
  for (auto& spec : dram.node_specs) {
    spec.backend_name = "dram-like";
    spec.devices = *devices::parse_backend("dram-like");
  }
  const Planner mixed_planner(mixed, 0, mixed.nodes);
  const Planner dram_planner(dram, 0, dram.nodes);
  const Fleet fleet(mixed.nodes);
  const Submission head = golden_head();
  const Submission* window[] = {&head};
  EXPECT_NE(mixed_planner.cache_key(fleet, window, 0),
            dram_planner.cache_key(fleet, window, 0));
}

TEST(PlannerCacheKey, ResidencyStateKeysThePlan) {
  // Regression: a plan made against a roomy capacity pool must never
  // replay on a near-full one — per-socket free/evictable bytes are
  // part of the key.
  ServiceConfig config = golden_config(PlacementPolicy::kCapacityAware);
  config.capacity.pmem_per_socket = static_cast<Bytes>(6e9);
  const Planner planner(config, 0, config.nodes);
  const std::vector<std::vector<Bytes>> caps(
      config.nodes, std::vector<Bytes>(2, static_cast<Bytes>(6e9)));
  Fleet roomy(config.nodes);
  roomy.init_residency(caps);
  Fleet near_full(config.nodes);
  near_full.init_residency(caps);
  for (std::uint32_t node = 0; node < config.nodes; ++node) {
    for (std::uint32_t socket = 0; socket < 2; ++socket) {
      ASSERT_TRUE(near_full.residency()
                      .acquire(node, socket, static_cast<Bytes>(5.9e9))
                      .has_value());
    }
  }
  const Submission head = golden_head();
  const Submission* window[] = {&head};
  EXPECT_NE(planner.cache_key(roomy, window, 0),
            planner.cache_key(near_full, window, 0));
}

TEST(PlannerCacheKey, IdleLoadRankingKeysThePlanNotAbsoluteBusyTime) {
  // The key captures the idle nodes' load *order*, not their absolute
  // busy nanoseconds: a fleet whose history preserved the ranking maps
  // to the same key (that is what makes steady-state traffic hit),
  // while a reshuffled ranking maps to a different one.
  const ServiceConfig config = golden_config(PlacementPolicy::kLeastLoaded);
  const Planner planner(config, 0, config.nodes);
  const Submission head = golden_head();
  const Submission* window[] = {&head};

  auto worked_fleet = [&](bool reverse_ranking) {
    Fleet fleet(config.nodes);
    for (std::uint32_t node = 0; node < fleet.size(); ++node) {
      const std::uint32_t rank =
          reverse_ranking ? fleet.size() - node : node + 1;
      RunningTask task;
      task.remaining_ns = 10ull * rank;
      fleet.start(SlotRef{node, 0}, 0, 10ull * rank, std::move(task));
      (void)fleet.complete(SlotRef{node, 0});
    }
    return fleet;
  };

  const Fleet fresh(config.nodes);
  const Fleet same_ranking = worked_fleet(false);
  const Fleet reshuffled = worked_fleet(true);
  const SimTime later = 1000;  // past every slot's free_at
  EXPECT_EQ(planner.cache_key(fresh, window, 0),
            planner.cache_key(same_ranking, window, later));
  EXPECT_NE(planner.cache_key(fresh, window, 0),
            planner.cache_key(reshuffled, window, later));
}

}  // namespace
}  // namespace pmemflow::service
