#include "service/sharding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/csv.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"

namespace pmemflow::service {
namespace {

ArrivalParams stream_params(std::uint64_t count = 400) {
  ArrivalParams params;
  params.count = count;
  params.classes = 8;
  params.mean_interarrival_ns = 15.0e6;
  params.seed = 42;
  return params;
}

std::vector<Submission> must_stream(const ArrivalParams& params) {
  return *make_submission_stream(params);
}

bool identical_records(const CompletionRecord& a, const CompletionRecord& b) {
  return a.id == b.id && a.label == b.label && a.priority == b.priority &&
         a.node == b.node && a.slot == b.slot && a.config == b.config &&
         a.arrival_ns == b.arrival_ns && a.start_ns == b.start_ns &&
         a.finish_ns == b.finish_ns && a.preemptions == b.preemptions &&
         a.checkpoint_ns == b.checkpoint_ns && a.restore_ns == b.restore_ns;
}

std::string csv_row(const ServiceMetrics& metrics) {
  CsvWriter csv(service_csv_header());
  append_service_csv_row(csv, "run", metrics);
  std::ostringstream out;
  csv.write(out);
  return out.str();
}

Expected<ServiceResult> run_with(const std::vector<Submission>& stream,
                                 ServiceConfig config, std::uint32_t regions,
                                 std::uint32_t threads) {
  config.sharding.regions = regions;
  config.sharding.threads = threads;
  return OnlineScheduler(config).run(stream);
}

TEST(Sharding, RoutingIsStableAndCoversAllRegions) {
  // region_of is a pure function of the id — not of stream order, node
  // count, or anything environmental.
  for (std::uint64_t id : {0ull, 1ull, 7ull, 1000ull, (1ull << 40) + 3}) {
    EXPECT_EQ(region_of(id, 4), region_of(id, 4));
    EXPECT_LT(region_of(id, 4), 4u);
    EXPECT_EQ(region_of(id, 1), 0u);
  }
  // splitmix64 spreads sequential ids: every region gets work.
  std::vector<std::uint32_t> hits(4, 0);
  for (std::uint64_t id = 0; id < 256; ++id) ++hits[region_of(id, 4)];
  for (std::uint32_t region = 0; region < 4; ++region) {
    EXPECT_GT(hits[region], 0u) << "region " << region << " starved";
  }
}

TEST(Sharding, NodeSlicesPartitionTheFleet) {
  for (std::uint32_t nodes : {4u, 7u, 8u, 13u}) {
    for (std::uint32_t regions : {1u, 2u, 3u, 4u}) {
      if (regions > nodes) continue;
      std::uint32_t total = 0;
      for (std::uint32_t r = 0; r < regions; ++r) {
        EXPECT_EQ(region_node_base(nodes, regions, r), total);
        const std::uint32_t count = region_node_count(nodes, regions, r);
        EXPECT_GE(count, 1u);
        total += count;
      }
      EXPECT_EQ(total, nodes);
    }
  }
}

TEST(Sharding, WorkerThreadsAreAPurePerformanceKnob) {
  // The tentpole contract: at a fixed region count, 1, 2, and 4 worker
  // threads produce byte-identical completions and CSV metrics.
  const auto stream = must_stream(stream_params());
  ServiceConfig config;
  config.nodes = 8;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  auto baseline = run_with(stream, config, 4, 1);
  ASSERT_TRUE(baseline.has_value());
  EXPECT_EQ(baseline->metrics.regions, 4u);
  const std::string baseline_csv = csv_row(baseline->metrics);

  for (std::uint32_t threads : {2u, 4u}) {
    auto result = run_with(stream, config, 4, threads);
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->completions.size(), baseline->completions.size());
    for (std::size_t i = 0; i < result->completions.size(); ++i) {
      EXPECT_TRUE(
          identical_records(result->completions[i], baseline->completions[i]))
          << "record " << i << " with " << threads << " threads";
    }
    EXPECT_EQ(csv_row(result->metrics), baseline_csv)
        << threads << " threads";
  }
}

TEST(Sharding, ThreadsIdenticalUnderPreemptionAndCapacity) {
  // The hardest replay: urgent preemptions (checkpoint/restore events)
  // plus bounded capacity pools (evictions, GC) — still byte-identical
  // across worker counts.
  ArrivalParams params = stream_params(300);
  params.urgent_fraction = 0.25;
  const auto stream = must_stream(params);

  ServiceConfig config;
  config.nodes = 4;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;
  config.preemption = PreemptionPolicy::kCheckpointRestore;
  config.capacity.pmem_per_socket = static_cast<Bytes>(8e9);
  config.capacity.retention.retain_versions = 2;

  auto one = run_with(stream, config, 4, 1);
  auto four = run_with(stream, config, 4, 4);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(four.has_value());
  EXPECT_GT(one->metrics.preemptions, 0u)
      << "stream too tame to exercise preemption";
  ASSERT_EQ(one->completions.size(), four->completions.size());
  for (std::size_t i = 0; i < one->completions.size(); ++i) {
    EXPECT_TRUE(identical_records(one->completions[i], four->completions[i]))
        << "record " << i;
  }
  EXPECT_EQ(csv_row(one->metrics), csv_row(four->metrics));
}

TEST(Sharding, OneRegionMatchesUnshardedScheduler) {
  // regions == 1 must be the classic scheduler exactly, whatever the
  // thread knob says (there is nothing to parallelize).
  const auto stream = must_stream(stream_params(200));
  ServiceConfig config;
  config.nodes = 3;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  auto classic = OnlineScheduler(config).run(stream);
  auto sharded = run_with(stream, config, 1, 4);
  ASSERT_TRUE(classic.has_value());
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(sharded->metrics.regions, 1u);
  EXPECT_EQ(sharded->metrics.shard_migrations, 0u);
  ASSERT_EQ(classic->completions.size(), sharded->completions.size());
  for (std::size_t i = 0; i < classic->completions.size(); ++i) {
    EXPECT_TRUE(
        identical_records(classic->completions[i], sharded->completions[i]));
  }
  EXPECT_EQ(csv_row(classic->metrics), csv_row(sharded->metrics));
}

TEST(Sharding, ShardedTotalsMatchSingleShardTotals) {
  // Conservation across the region split: nothing is lost or double
  // counted. Completions + drops account for the whole stream, and the
  // sharded aggregate sums per-region counters deterministically.
  const auto stream = must_stream(stream_params());
  ServiceConfig config;
  config.nodes = 8;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  auto single = run_with(stream, config, 1, 1);
  auto sharded = run_with(stream, config, 4, 4);
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(sharded.has_value());

  EXPECT_EQ(single->metrics.completed + single->metrics.dropped,
            stream.size());
  EXPECT_EQ(sharded->metrics.completed + sharded->metrics.dropped,
            stream.size());
  // Same work characterized either way: the per-class solves are
  // identical in total even though four caches did them.
  EXPECT_EQ(sharded->metrics.node_utilization.size(), config.nodes);
  EXPECT_EQ(single->metrics.node_utilization.size(), config.nodes);
  // Every submission completes exactly once, under both splits.
  auto ids_of = [](const ServiceResult& result) {
    std::vector<std::uint64_t> ids;
    ids.reserve(result.completions.size());
    for (const auto& record : result.completions) ids.push_back(record.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(ids_of(*single), ids_of(*sharded));
}

TEST(Sharding, MetricsMergeSumsRegionCounters) {
  // The sharded des_events/admission totals must equal the sum of what
  // the same stream costs run region-by-region: replay each region's
  // share alone on its slice and compare. One epoch wider than the whole
  // simulation means no barrier ever fires mid-run, so no migration can
  // perturb the decomposition.
  const auto stream = must_stream(stream_params(200));
  const std::uint32_t regions = 4;
  ServiceConfig config;
  config.nodes = 8;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;
  config.sharding.epoch_ns = SimDuration{1} << 60;

  auto sharded = run_with(stream, config, regions, 2);
  ASSERT_TRUE(sharded.has_value());
  ASSERT_EQ(sharded->metrics.shard_migrations, 0u)
      << "per-region replay below assumes no cross-region migration; "
         "loosen the stream if this starts migrating";

  std::uint64_t des_events = 0, admitted = 0, completed = 0;
  pmemsim::AllocatorCounters allocator;
  for (std::uint32_t r = 0; r < regions; ++r) {
    std::vector<Submission> share;
    for (const Submission& submission : stream) {
      if (region_of(submission.id, regions) == r) share.push_back(submission);
    }
    ServiceConfig slice = config;
    slice.nodes = region_node_count(config.nodes, regions, r);
    auto result = OnlineScheduler(slice).run(share);
    ASSERT_TRUE(result.has_value());
    des_events += result->metrics.des_events;
    admitted += result->metrics.admission.admitted;
    completed += result->metrics.completed;
    allocator += result->metrics.allocator;
  }
  EXPECT_EQ(sharded->metrics.des_events, des_events);
  EXPECT_EQ(sharded->metrics.admission.admitted, admitted);
  EXPECT_EQ(sharded->metrics.completed, completed);
  EXPECT_EQ(sharded->metrics.allocator, allocator);
  EXPECT_EQ(sharded->metrics.rate_solves(), allocator.solves);
}

TEST(Sharding, RegionsClampToNodeCount) {
  const auto stream = must_stream(stream_params(100));
  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  auto result = run_with(stream, config, 16, 8);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.regions, 2u);
  EXPECT_EQ(result->metrics.completed + result->metrics.dropped,
            stream.size());
}

}  // namespace
}  // namespace pmemflow::service
