// One mixed service stream, pinned end to end. Each case runs it under
// one service configuration that reaches a distinct start or profile
// resolution path — co-location packs and preempts on a two-backend
// fleet, a migrated checkpoint resume, bounded pools with eviction,
// staging and retain-2 GC, DAGs under a spread policy and under
// kDagFusion, window 1 and window 4 with the plan cache on, four
// regions whose epoch barriers steal — and pins three digests:
//
//   records — all 20 CompletionRecord fields of every completion;
//   metrics — every ServiceMetrics counter plus InterferenceStats;
//   trace   — every tracer span and instant (track, name, times).
//
// Each case also asserts that the counter of the path it exists for is
// above zero, and that a run with the tracer attached equals the run
// without it record for record, with identical metrics. The pins are
// the output of this exact block; a change that moves one changes a
// schedule, a cache counter or a trace span.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "dag/spec.hpp"
#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"
#include "trace/tracer.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::service {
namespace {

/// Write-heavy class: bulk simulation output, near-free analytics.
workflow::WorkflowSpec write_heavy_class() {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 8 * kMiB;
  sim.objects_per_rank = 6;
  sim.compute_ns = 0.0;
  sim.name = "wh-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 1.0e6;
  analytics.name = "wh-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                                 /*iterations=*/4);
  spec.label = "write-heavy";
  return spec;
}

/// Read-heavy class: compute-bound simulation, read-only analytics. It
/// packs next to write_heavy_class() under co-location.
workflow::WorkflowSpec read_heavy_class() {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 8 * kMiB;
  sim.objects_per_rank = 6;
  sim.compute_ns = 2.5e7;
  sim.name = "rh-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 0.0;
  analytics.name = "rh-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                                 /*iterations=*/4);
  spec.label = "read-heavy";
  return spec;
}

std::shared_ptr<const dag::DagSpec> chain_dag() {
  dag::DagSpec spec;
  spec.label = "pin-chain";
  spec.iterations = 4;
  dag::DagComponent writer;
  writer.name = "writer";
  writer.ranks = 4;
  writer.object_size = 4 * kMiB;
  writer.objects_per_rank = 8;
  writer.compute_ns = 1e7;
  dag::DagComponent reader;
  reader.name = "reader";
  reader.ranks = 4;
  reader.analytics_ns_per_object = 2e5;
  spec.components = {writer, reader};
  spec.edges = {dag::DagEdge{"writer", "reader", {}, 0}};
  return std::make_shared<const dag::DagSpec>(std::move(spec));
}

/// A single 29-rank stage: no plan fits a 28-core socket, so the
/// service drops it with an "unplaceable" trace instant.
std::shared_ptr<const dag::DagSpec> unplaceable_dag() {
  dag::DagSpec spec;
  spec.label = "too-wide";
  spec.iterations = 1;
  dag::DagComponent wide;
  wide.name = "wide";
  wide.ranks = 29;
  wide.object_size = 1 * kMiB;
  wide.objects_per_rank = 1;
  wide.compute_ns = 1e6;
  spec.components = {wide};
  return std::make_shared<const dag::DagSpec>(std::move(spec));
}

std::shared_ptr<const dag::DagSpec> example_dag(const char* name) {
  auto spec = dag::load_dag(std::string(PMEMFLOW_EXAMPLE_DAGS) + "/" + name);
  EXPECT_TRUE(spec.has_value()) << spec.error().message;
  return std::make_shared<const dag::DagSpec>(*std::move(spec));
}

/// 120 submissions in blocks of ten: the packing pair, three pool
/// classes, the chain DAG and the two example DAGs, with one
/// unplaceable DAG. Every fourth submission is urgent and every third
/// batch, so preemption finds victims; the gap keeps a small fleet
/// saturated without overflowing the queue.
std::vector<Submission> mixed_stream() {
  const auto pool = make_class_pool(3, /*seed=*/11);
  const auto chain = chain_dag();
  const auto fanout = example_dag("fanout_analytics.dag");
  const auto reduce = example_dag("two_stage_reduce.dag");
  const auto wide = unplaceable_dag();
  std::vector<Submission> stream;
  for (std::uint64_t i = 0; i < 120; ++i) {
    Submission submission;
    submission.id = i;
    submission.arrival_ns = static_cast<SimTime>(i) * 100 * kMillisecond;
    submission.priority = i % 8 == 5   ? Priority::kUrgent
                          : i % 3 == 0 ? Priority::kBatch
                                       : Priority::kNormal;
    switch (i % 10) {
      case 0:
      case 5: submission.spec = write_heavy_class(); break;
      case 1:
      case 6: submission.spec = read_heavy_class(); break;
      case 2: submission.dag = chain; break;
      case 4: submission.dag = i == 54 ? wide : fanout; break;
      case 8: submission.dag = reduce; break;
      default: submission.spec = pool[(i / 10 + i) % pool.size()];
    }
    stream.push_back(std::move(submission));
  }
  return stream;
}

ServiceConfig base_config(PlacementPolicy policy) {
  ServiceConfig config;
  config.nodes = 3;
  config.queue_capacity = 120;
  config.defer_watermark = 1.0;
  config.policy = policy;
  config.preemption = PreemptionPolicy::kCheckpointRestore;
  return config;
}

void two_backends(ServiceConfig& config) {
  config.node_specs.clear();
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    NodeSpec spec;
    spec.backend_name = i % 2 == 0 ? "optane-gen1" : "dram-like";
    spec.devices = *devices::parse_backend(spec.backend_name);
    config.node_specs.push_back(std::move(spec));
  }
}

void bounded_pools(ServiceConfig& config, Bytes per_socket) {
  config.capacity.pmem_per_socket = per_socket;
  config.capacity.retention.retain_versions = 2;
  config.capacity.retention.gc = true;
  config.capacity.staging.stage_bytes = 256 * kMiB;
}

/// The path a case exists for, read off its metrics.
enum class Reaches {
  kPacks,
  kMigratedResume,
  kEvictionStagingGc,
  kSpreadDags,
  kFusedDags,
  kPlanCacheHits,
  kShardMigrations,
};

struct PinCase {
  const char* name;
  ServiceConfig config;
  Reaches reaches;
  std::uint64_t records;
  std::uint64_t metrics;
  std::uint64_t trace;
};

/// Names the case in test listings: ctest's test name ends in it.
void PrintTo(const PinCase& pin, std::ostream* out) { *out << pin.name; }

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  {
    PinCase c{"colocation_two_backends",
              base_config(PlacementPolicy::kColocationAware),
              Reaches::kPacks,
              0x67d5b31597dfd4ebULL, 0xd2517684f63562c9ULL,
              0x234857b5cfe7c102ULL};
    c.config.nodes = 4;
    two_backends(c.config);
    cases.push_back(std::move(c));
  }
  {
    PinCase c{"preemption_least_loaded",
              base_config(PlacementPolicy::kLeastLoaded),
              Reaches::kMigratedResume,
              0x4e8e55b76626118eULL, 0xa55d71dd5aebed57ULL,
              0x646e212e613b1133ULL};
    c.config.nodes = 4;
    cases.push_back(std::move(c));
  }
  {
    PinCase c{"capacity_aware_bounded_pools",
              base_config(PlacementPolicy::kCapacityAware),
              Reaches::kEvictionStagingGc,
              0xb6364d4eb65b9efcULL, 0x59d967f505e99364ULL,
              0x8d8d4e367a9a8355ULL};
    bounded_pools(c.config, 6 * kGiB);
    cases.push_back(std::move(c));
  }
  {
    PinCase c{"capacity_blind_bounded_pools",
              base_config(PlacementPolicy::kFirstFit),
              Reaches::kEvictionStagingGc,
              0xc84fa6a91a1f9543ULL, 0x153fee6fa5af77caULL,
              0xc458b3919fea30a9ULL};
    bounded_pools(c.config, 6 * kGiB);
    cases.push_back(std::move(c));
  }
  {
    // Three entries per LRU list: pairs and DAGs both evict.
    PinCase c{"dag_spread_recommender_small_cache",
              base_config(PlacementPolicy::kRecommenderAware),
              Reaches::kSpreadDags,
              0x8433ede96d7d8572ULL, 0x8151f9f6bc7c575fULL,
              0x71685453d33f7373ULL};
    c.config.cache_capacity = 3;
    cases.push_back(std::move(c));
  }
  cases.push_back({"dag_fusion", base_config(PlacementPolicy::kDagFusion),
                   Reaches::kFusedDags, 0x85d06038fb86dbf0ULL,
                   0x2a93e2a8ed8f99c5ULL, 0x53a78db97f413c15ULL});
  {
    PinCase c{"window1_plan_cache_capacity_aware",
              base_config(PlacementPolicy::kCapacityAware),
              Reaches::kPlanCacheHits,
              0x2cc9755bdc235e8dULL, 0xa404482e5a8c4c19ULL,
              0x2088d25855399b14ULL};
    c.config.capacity.pmem_per_socket = 64 * kGiB;
    c.config.planner.plan_cache = true;
    cases.push_back(std::move(c));
  }
  {
    PinCase c{"window4_plan_cache_colocation",
              base_config(PlacementPolicy::kColocationAware),
              Reaches::kPlanCacheHits,
              0x1f91e6ef443c370aULL, 0xce322eda3996b838ULL,
              0x22bc54ff52ee6c7eULL};
    c.config.planner.window = 4;
    c.config.planner.plan_cache = true;
    cases.push_back(std::move(c));
  }
  {
    PinCase c{"window4_plan_cache_recommender_small_cache",
              base_config(PlacementPolicy::kRecommenderAware),
              Reaches::kPlanCacheHits,
              0x57181c2d401db0a8ULL, 0xd97adf28a2744b24ULL,
              0xb47fda9cce98b8e0ULL};
    c.config.nodes = 4;
    two_backends(c.config);
    c.config.cache_capacity = 3;
    c.config.planner.window = 4;
    c.config.planner.plan_cache = true;
    cases.push_back(std::move(c));
  }
  {
    // Four two-node regions; a 20 ms epoch lets barriers steal stuck
    // heads while preemption, pools and DAGs run inside each region.
    PinCase c{"sharded_capacity_aware_bounded_pools",
              base_config(PlacementPolicy::kCapacityAware),
              Reaches::kShardMigrations,
              0xbc399f63448cf1fbULL, 0xf1f4d6affa52a3ccULL,
              0xee0367bb9e66a7d2ULL};
    c.config.nodes = 8;
    bounded_pools(c.config, 6 * kGiB);
    c.config.sharding.regions = 4;
    c.config.sharding.epoch_ns = 20 * kMillisecond;
    cases.push_back(std::move(c));
  }
  return cases;
}

std::uint64_t records_digest(const std::vector<CompletionRecord>& records) {
  Hasher64 hasher;
  hasher.update_u64(records.size());
  for (const CompletionRecord& r : records) {
    hasher.update_u64(r.id);
    hasher.update_string(r.label);
    hasher.update_u64(static_cast<std::uint64_t>(r.priority));
    hasher.update_u64(r.node);
    hasher.update_u64(r.slot);
    hasher.update_u64(static_cast<std::uint64_t>(r.config.mode));
    hasher.update_u64(static_cast<std::uint64_t>(r.config.placement));
    hasher.update_bool(r.cache_hit);
    hasher.update_u64(r.arrival_ns);
    hasher.update_u64(r.start_ns);
    hasher.update_u64(r.finish_ns);
    hasher.update_u64(r.best_runtime_ns);
    hasher.update_u64(r.config_runtime_ns);
    hasher.update_u64(r.preemptions);
    hasher.update_u64(r.migrations);
    hasher.update_u64(r.checkpoint_ns);
    hasher.update_u64(r.restore_ns);
    hasher.update_u64(r.work_executed_ns);
    hasher.update_u64(r.colocations);
    hasher.update_bool(r.dag);
    hasher.update_u64(r.ephemeral_edges);
  }
  return hasher.digest();
}

void update_summary(Hasher64& hasher, const metrics::SummaryStats& stats) {
  hasher.update_u64(stats.count);
  for (double value : {stats.mean, stats.min, stats.max, stats.p50, stats.p95,
                       stats.p99}) {
    hasher.update_double(value);
  }
}

std::uint64_t metrics_digest(const ServiceMetrics& m,
                             const InterferenceStats& interference) {
  Hasher64 hasher;
  for (std::uint64_t value :
       {m.completed, m.makespan_ns, m.admission.admitted, m.admission.deferred,
        m.admission.rejected,
        static_cast<std::uint64_t>(m.admission.high_water), m.cache.hits,
        m.cache.misses, m.cache.evictions, m.retries, m.dropped, m.preemptions,
        m.migrations, m.checkpoint_overhead_ns, m.restore_overhead_ns,
        m.colocations, m.interference_overhead_ns, m.evictions, m.gc_bytes,
        m.stage_hits, m.residency_high_water, m.des_events, m.allocator.solves,
        m.allocator.cache_hits, std::uint64_t{m.regions}, m.shard_migrations,
        m.dag_completed, m.ephemeral_edges, std::uint64_t{m.planner_window},
        m.plans, m.plan_cache_hits, m.plan_cache_misses,
        interference.measurements, interference.hits}) {
    hasher.update_u64(value);
  }
  update_summary(hasher, m.queue_delay_ns);
  update_summary(hasher, m.slowdown);
  update_summary(hasher, m.runtime_ns);
  update_summary(hasher, m.victim_slowdown);
  hasher.update_u64(m.node_utilization.size());
  for (double value : m.node_utilization) hasher.update_double(value);
  hasher.update_double(m.mean_utilization);
  return hasher.digest();
}

std::uint64_t trace_digest(const trace::Tracer& tracer) {
  Hasher64 hasher;
  hasher.update_u64(tracer.spans().size());
  for (const trace::Span& span : tracer.spans()) {
    hasher.update_string(span.track);
    hasher.update_string(span.name);
    hasher.update_u64(span.begin);
    hasher.update_u64(span.end);
  }
  hasher.update_u64(tracer.instants().size());
  for (const trace::Instant& instant : tracer.instants()) {
    hasher.update_string(instant.track);
    hasher.update_string(instant.name);
    hasher.update_u64(instant.at);
  }
  return hasher.digest();
}

struct PinRun {
  ServiceResult result;
  std::uint64_t metrics = 0;
};

PinRun run_case(ServiceConfig config, const std::vector<Submission>& stream,
                trace::Tracer* tracer) {
  config.tracer = tracer;
  OnlineScheduler scheduler(config);
  auto result = scheduler.run(stream);
  EXPECT_TRUE(result.has_value()) << result.error().message;
  if (!result.has_value()) return {};
  const std::uint64_t metrics =
      metrics_digest(result->metrics, scheduler.interference().stats());
  return {*std::move(result), metrics};
}

void expect_reaches(Reaches reaches, const ServiceMetrics& m) {
  switch (reaches) {
    case Reaches::kPacks:
      EXPECT_GT(m.colocations, 0u);
      EXPECT_GT(m.preemptions, 0u);  // co-location preempts too
      break;
    case Reaches::kMigratedResume:
      EXPECT_GT(m.preemptions, 0u);
      EXPECT_GT(m.migrations, 0u);
      break;
    case Reaches::kEvictionStagingGc:
      EXPECT_GT(m.evictions, 0u);
      EXPECT_GT(m.stage_hits, 0u);
      EXPECT_GT(m.gc_bytes, 0u);
      break;
    case Reaches::kSpreadDags:
      EXPECT_GT(m.cache.evictions, 0u);
      EXPECT_EQ(m.ephemeral_edges, 0u);
      break;
    case Reaches::kFusedDags:
      EXPECT_GT(m.dag_completed, 0u);
      EXPECT_GT(m.ephemeral_edges, 0u);
      break;
    case Reaches::kPlanCacheHits:
      EXPECT_GT(m.plan_cache_hits, 0u);
      break;
    case Reaches::kShardMigrations:
      EXPECT_EQ(m.regions, 4u);
      EXPECT_GT(m.shard_migrations, 0u);
      EXPECT_GT(m.preemptions, 0u);
      break;
  }
}

class ServicePin : public ::testing::TestWithParam<PinCase> {};

TEST_P(ServicePin, MixedRunMatchesItsPins) {
  const PinCase& pin = GetParam();
  const auto stream = mixed_stream();

  const PinRun plain = run_case(pin.config, stream, nullptr);
  trace::Tracer tracer;
  const PinRun traced = run_case(pin.config, stream, &tracer);
  const auto& records = plain.result.completions;

  // Every case drops the unplaceable DAG and completes DAGs.
  EXPECT_GE(plain.result.metrics.dropped, 1u);
  EXPECT_GT(plain.result.metrics.dag_completed, 0u);
  expect_reaches(pin.reaches, plain.result.metrics);

  // Tracing observes; it never changes what the service decides.
  ASSERT_EQ(records.size(), traced.result.completions.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(record_difference(records[i], traced.result.completions[i]),
              nullptr)
        << "record " << i;
  }
  EXPECT_EQ(plain.metrics, traced.metrics);

  EXPECT_EQ(records_digest(records), pin.records)
      << std::hex << "records 0x" << records_digest(records);
  EXPECT_EQ(plain.metrics, pin.metrics)
      << std::hex << "metrics 0x" << plain.metrics;
  EXPECT_EQ(trace_digest(tracer), pin.trace)
      << std::hex << "trace 0x" << trace_digest(tracer);
}

INSTANTIATE_TEST_SUITE_P(Cases, ServicePin, ::testing::ValuesIn(pin_cases()));

}  // namespace
}  // namespace pmemflow::service
