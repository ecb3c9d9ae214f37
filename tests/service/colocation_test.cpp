#include "service/colocation.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "dag/spec.hpp"
#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::service {
namespace {

/// Write-heavy class: bulk simulation output, near-free analytics.
workflow::WorkflowSpec write_heavy_class(std::uint32_t ranks = 8) {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 8 * kMiB;
  sim.objects_per_rank = 6;
  sim.compute_ns = 0.0;
  sim.name = "wh-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 1.0e6;
  analytics.name = "wh-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, ranks,
                                                 /*iterations=*/2);
  spec.label = "write-heavy";
  return spec;
}

/// Read-heavy class: compute-bound simulation, read-only analytics.
workflow::WorkflowSpec read_heavy_class(std::uint32_t ranks = 8) {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 8 * kMiB;
  sim.objects_per_rank = 6;
  sim.compute_ns = 2.5e7;
  sim.name = "rh-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 0.0;
  analytics.name = "rh-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, ranks,
                                                 /*iterations=*/2);
  spec.label = "read-heavy";
  return spec;
}

/// Sub-stripe objects: interference is per-DIMM collision territory the
/// pairwise model does not capture, so such classes never pack.
workflow::WorkflowSpec small_object_class() {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 2 * kKiB;
  sim.objects_per_rank = 64;
  sim.compute_ns = 0.0;
  sim.name = "small-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 0.0;
  analytics.name = "small-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                                 /*iterations=*/2);
  spec.label = "small-objects";
  return spec;
}

std::shared_ptr<const CachedProfile> profile_of(
    ProfileCache& cache, const workflow::WorkflowSpec& spec) {
  auto profile = cache.lookup(spec);
  EXPECT_TRUE(profile.has_value());
  return *profile;
}

std::vector<Submission> alternating_stream(
    const std::vector<workflow::WorkflowSpec>& classes, std::uint64_t count,
    SimDuration gap_ns) {
  std::vector<Submission> stream;
  for (std::uint64_t i = 0; i < count; ++i) {
    Submission submission;
    submission.id = i;
    submission.spec = classes[i % classes.size()];
    submission.arrival_ns = static_cast<SimTime>(i) * gap_ns;
    stream.push_back(std::move(submission));
  }
  return stream;
}

TEST(Colocation, IoOrientationClassifiesTheStraddleClasses) {
  ProfileCache cache(8);
  const auto wh = profile_of(cache, write_heavy_class());
  const auto rh = profile_of(cache, read_heavy_class());
  EXPECT_EQ(io_orientation(wh->profile, 1.2), IoOrientation::kWriteHeavy);
  EXPECT_EQ(io_orientation(rh->profile, 1.2), IoOrientation::kReadHeavy);
}

TEST(Colocation, OnlyOppositeOrientationsAreCompatible) {
  ProfileCache cache(8);
  const auto wh = profile_of(cache, write_heavy_class());
  const auto rh = profile_of(cache, read_heavy_class());
  const ColocationParams params;
  EXPECT_TRUE(colocation_compatible(*wh, *rh, params));
  EXPECT_TRUE(colocation_compatible(*rh, *wh, params));
  EXPECT_FALSE(colocation_compatible(*wh, *wh, params));
  EXPECT_FALSE(colocation_compatible(*rh, *rh, params));
}

TEST(Colocation, SmallObjectClassesNeverPack) {
  ProfileCache cache(8);
  const auto small = profile_of(cache, small_object_class());
  const auto rh = profile_of(cache, read_heavy_class());
  ASSERT_TRUE(small->profile.features.small_objects);
  EXPECT_FALSE(colocation_compatible(*small, *rh, ColocationParams{}));
  EXPECT_FALSE(colocation_compatible(*rh, *small, ColocationParams{}));
}

TEST(InterferenceTable, MemoizesPerUnorderedPair) {
  ProfileCache cache(8);
  const auto wh_spec = write_heavy_class();
  const auto rh_spec = read_heavy_class();
  const auto wh = profile_of(cache, wh_spec);
  const auto rh = profile_of(cache, rh_spec);

  InterferenceTable table;
  auto forward = table.lookup(*wh, wh_spec, *rh, rh_spec);
  ASSERT_TRUE(forward.has_value());
  EXPECT_EQ(table.stats().measurements, 1u);
  EXPECT_EQ(table.stats().hits, 0u);
  EXPECT_TRUE(forward->feasible);
  EXPECT_GE(forward->slowdown_a, 1.0);
  EXPECT_GE(forward->slowdown_b, 1.0);

  // Swapped argument order hits the same memo entry, slowdowns oriented
  // to the call.
  auto backward = table.lookup(*rh, rh_spec, *wh, wh_spec);
  ASSERT_TRUE(backward.has_value());
  EXPECT_EQ(table.stats().measurements, 1u);
  EXPECT_EQ(table.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(backward->slowdown_a, forward->slowdown_b);
  EXPECT_DOUBLE_EQ(backward->slowdown_b, forward->slowdown_a);
  EXPECT_EQ(table.size(), 1u);
}

TEST(InterferenceTable, JointRankOvercommitIsInfeasibleNotAnError) {
  // 16 + 16 mirrored ranks want 32 cores per socket; the testbed has
  // 28. The pair must be memoized as infeasible, not simulated into an
  // allocation failure.
  ProfileCache cache(8);
  const auto wh_spec = write_heavy_class(16);
  const auto rh_spec = read_heavy_class(16);
  const auto wh = profile_of(cache, wh_spec);
  const auto rh = profile_of(cache, rh_spec);

  InterferenceTable table;
  auto pair = table.lookup(*wh, wh_spec, *rh, rh_spec);
  ASSERT_TRUE(pair.has_value());
  EXPECT_FALSE(pair->feasible);
  // Infeasibility is memoized too: the next lookup is a hit.
  ASSERT_TRUE(table.lookup(*wh, wh_spec, *rh, rh_spec).has_value());
  EXPECT_EQ(table.stats().hits, 1u);
}

TEST(ColocationScheduler, PacksACompatiblePairOntoOneNode) {
  const auto stream = alternating_stream(
      {write_heavy_class(), read_heavy_class()}, 2, 1 * kMillisecond);

  ServiceConfig config;
  config.nodes = 1;
  config.queue_capacity = 4;
  config.policy = PlacementPolicy::kColocationAware;

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->completions.size(), 2u);
  EXPECT_EQ(result->metrics.colocations, 1u);
  // Both tenants ran on node 0, on different slots, and each counted
  // the pairing once.
  const auto& a = result->completions[0];
  const auto& b = result->completions[1];
  EXPECT_EQ(a.node, 0u);
  EXPECT_EQ(b.node, 0u);
  EXPECT_NE(a.slot, b.slot);
  EXPECT_EQ(a.colocations, 1u);
  EXPECT_EQ(b.colocations, 1u);
}

TEST(ColocationScheduler, EmptyNodesArePreferredOverPacking) {
  // Two compatible submissions, two nodes: solo is always at least as
  // fast, so the pair must spread out instead of packing.
  const auto stream = alternating_stream(
      {write_heavy_class(), read_heavy_class()}, 2, 1 * kMillisecond);

  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = 4;
  config.policy = PlacementPolicy::kColocationAware;

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.colocations, 0u);
  EXPECT_NE(result->completions[0].node, result->completions[1].node);
}

TEST(ColocationScheduler, SameDirectionStreamNeverPacks) {
  const auto stream =
      alternating_stream({write_heavy_class()}, 6, 1 * kMillisecond);

  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = 8;
  config.policy = PlacementPolicy::kColocationAware;

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.completed, 6u);
  EXPECT_EQ(result->metrics.colocations, 0u);
  for (const auto& record : result->completions) {
    EXPECT_EQ(record.slot, 0u);
    EXPECT_EQ(record.colocations, 0u);
  }
}

TEST(ColocationScheduler, WorkConservationAcrossInterferenceRetiming) {
  // The remaining-time accounting must survive settle/retime rounding:
  // every completion executed exactly its configured runtime of work,
  // packed or not.
  const auto stream = alternating_stream(
      {write_heavy_class(), read_heavy_class()}, 24, 5 * kMillisecond);

  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;
  config.policy = PlacementPolicy::kColocationAware;

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.completed, stream.size());
  EXPECT_GT(result->metrics.colocations, 0u);
  for (const auto& record : result->completions) {
    EXPECT_EQ(record.work_executed_ns, record.config_runtime_ns)
        << record.id;
    EXPECT_GE(record.finish_ns - record.start_ns, record.config_runtime_ns)
        << record.id;
  }
}

TEST(ColocationScheduler, ReplayIsByteIdentical) {
  const auto stream = alternating_stream(
      {write_heavy_class(), read_heavy_class()}, 16, 2 * kMillisecond);

  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();
  config.policy = PlacementPolicy::kColocationAware;

  auto a = OnlineScheduler(config).run(stream);
  auto b = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->completions.size(), b->completions.size());
  for (std::size_t i = 0; i < a->completions.size(); ++i) {
    const auto& x = a->completions[i];
    const auto& y = b->completions[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.node, y.node);
    EXPECT_EQ(x.slot, y.slot);
    EXPECT_EQ(x.start_ns, y.start_ns);
    EXPECT_EQ(x.finish_ns, y.finish_ns);
    EXPECT_EQ(x.work_executed_ns, y.work_executed_ns);
    EXPECT_EQ(x.colocations, y.colocations);
  }
  EXPECT_EQ(a->metrics.interference_overhead_ns,
            b->metrics.interference_overhead_ns);
}

TEST(ColocationScheduler, InterferenceTablePersistsAcrossRuns) {
  const auto stream = alternating_stream(
      {write_heavy_class(), read_heavy_class()}, 8, 2 * kMillisecond);

  ServiceConfig config;
  config.nodes = 1;
  config.queue_capacity = stream.size();
  config.policy = PlacementPolicy::kColocationAware;

  OnlineScheduler scheduler(config);
  ASSERT_TRUE(scheduler.run(stream).has_value());
  const auto measurements = scheduler.interference().stats().measurements;
  EXPECT_GT(measurements, 0u);
  ASSERT_TRUE(scheduler.run(stream).has_value());
  // Same class pair: the second run never re-measures.
  EXPECT_EQ(scheduler.interference().stats().measurements, measurements);
}

TEST(ColocationScheduler, AllocateCallCountIsPinned) {
  // Every rate-allocator call a run makes is counted once, wherever it
  // runs: the default executor and runner, the profile cache's
  // cross-backend executor, its DAG runner, and the interference
  // table's cross-backend runner. Half the fleet is dram-like, so each
  // of those paths runs. The pins were captured when the allocator
  // still memoized solves, as solves plus memo hits; simulated time
  // must not move either.
  ServiceConfig config;
  config.nodes = 4;
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    NodeSpec spec;
    spec.backend_name = i % 2 == 0 ? "optane-gen1" : "dram-like";
    spec.devices = *devices::parse_backend(spec.backend_name);
    config.node_specs.push_back(std::move(spec));
  }
  config.policy = PlacementPolicy::kColocationAware;

  dag::DagSpec chain;
  chain.label = "pin-chain";
  chain.iterations = 2;
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
  chain.components = {writer, reader};
  chain.edges = {dag::DagEdge{"writer", "reader", {}, 0}};
  const auto chain_dag = std::make_shared<const dag::DagSpec>(chain);

  // Blocks of five: a write-heavy/read-heavy pair that packs, two pool
  // classes and the chain DAG.
  const auto pool = make_class_pool(6, /*seed=*/7);
  std::vector<Submission> stream;
  for (std::uint64_t i = 0; i < 120; ++i) {
    Submission submission;
    submission.id = i;
    submission.arrival_ns = static_cast<SimTime>(i) * 2 * kMillisecond;
    switch (i % 5) {
      case 0: submission.spec = write_heavy_class(); break;
      case 1: submission.spec = read_heavy_class(); break;
      case 4: submission.dag = chain_dag; break;
      default: submission.spec = pool[(i / 5 + i % 5) % pool.size()];
    }
    stream.push_back(std::move(submission));
  }
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  OnlineScheduler scheduler(config);
  auto result = scheduler.run(stream);
  ASSERT_TRUE(result.has_value());
  const ServiceMetrics& metrics = result->metrics;
  EXPECT_GT(scheduler.interference().stats().measurements, 0u);
  EXPECT_GT(metrics.colocations, 0u);
  EXPECT_GT(metrics.dag_completed, 0u);
  EXPECT_EQ(metrics.allocator.solves + metrics.allocator.cache_hits, 4803u);
  EXPECT_EQ(metrics.des_events, 240u);
}

}  // namespace
}  // namespace pmemflow::service
