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

std::string csv_row(const ServiceMetrics& metrics) {
  CsvWriter csv(service_csv_header());
  append_service_csv_row(csv, "run", metrics);
  std::ostringstream out;
  csv.write(out);
  return out.str();
}

Expected<ServiceResult> run_with(const std::vector<Submission>& stream,
                                 ServiceConfig config, std::uint32_t regions) {
  config.sharding.regions = regions;
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

TEST(Sharding, OneRegionMatchesUnshardedScheduler) {
  // regions == 1 must be the classic scheduler exactly.
  const auto stream = must_stream(stream_params(200));
  ServiceConfig config;
  config.nodes = 3;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  auto classic = OnlineScheduler(config).run(stream);
  auto sharded = run_with(stream, config, 1);
  ASSERT_TRUE(classic.has_value());
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(sharded->metrics.regions, 1u);
  EXPECT_EQ(sharded->metrics.shard_migrations, 0u);
  ASSERT_EQ(classic->completions.size(), sharded->completions.size());
  for (std::size_t i = 0; i < classic->completions.size(); ++i) {
    EXPECT_EQ(record_difference(classic->completions[i],
                                sharded->completions[i]),
              nullptr);
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

  auto single = run_with(stream, config, 1);
  auto sharded = run_with(stream, config, 4);
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(sharded.has_value());

  EXPECT_EQ(single->metrics.completed + single->metrics.dropped,
            stream.size());
  EXPECT_EQ(sharded->metrics.completed + sharded->metrics.dropped,
            stream.size());
  // Utilization covers every node under both splits.
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
  // perturb the decomposition. Allocator work is not a per-region sum:
  // the regions share one profile cache, which characterizes each class
  // once, exactly as an unsharded run of the same stream does.
  const auto stream = must_stream(stream_params(200));
  const std::uint32_t regions = 4;
  ServiceConfig config;
  config.nodes = 8;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;
  config.sharding.epoch_ns = SimDuration{1} << 60;

  auto sharded = run_with(stream, config, regions);
  ASSERT_TRUE(sharded.has_value());
  ASSERT_EQ(sharded->metrics.shard_migrations, 0u)
      << "per-region replay below assumes no cross-region migration; "
         "loosen the stream if this starts migrating";

  std::uint64_t des_events = 0, admitted = 0, completed = 0;
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
  }
  EXPECT_EQ(sharded->metrics.des_events, des_events);
  EXPECT_EQ(sharded->metrics.admission.admitted, admitted);
  EXPECT_EQ(sharded->metrics.completed, completed);

  auto unsharded = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(unsharded.has_value());
  EXPECT_GT(unsharded->metrics.rate_solves(), 0u);
  EXPECT_EQ(sharded->metrics.allocator, unsharded->metrics.allocator);
  EXPECT_EQ(sharded->metrics.cache.misses, unsharded->metrics.cache.misses);
}

TEST(Sharding, RegionsClampToNodeCount) {
  const auto stream = must_stream(stream_params(100));
  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  auto result = run_with(stream, config, 16);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.regions, 2u);
  EXPECT_EQ(result->metrics.completed + result->metrics.dropped,
            stream.size());
}

}  // namespace
}  // namespace pmemflow::service
