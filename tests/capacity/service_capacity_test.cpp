// Service-layer capacity model: opt-in dormancy, eviction under
// bounded pools, and the capacity-aware placement policy.
#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"

namespace pmemflow::service {
namespace {

/// Long-lived multi-version stream on a small fleet: the same regime
/// as `service_gates capacity`, at unit-test size.
std::vector<Submission> capacity_stream(std::uint64_t count = 60) {
  ArrivalParams arrivals;
  arrivals.count = count;
  arrivals.classes = 6;
  arrivals.mean_interarrival_ns = 2.0e9;
  auto stream = *make_submission_stream(arrivals);
  // The pool's classes run 2 iterations; stretch to 6 so retention
  // windows and version GC have versions to work with.
  for (Submission& submission : stream) submission.spec.iterations = 6;
  return stream;
}

ServiceConfig base_config(std::uint64_t count) {
  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = static_cast<std::size_t>(count);
  config.defer_watermark = 1.0;
  config.policy = PlacementPolicy::kLeastLoaded;
  return config;
}

capacity::ResidencyParams bounded_params(Bytes per_socket) {
  capacity::ResidencyParams params;
  params.pmem_per_socket = per_socket;
  params.retention.retain_versions = 2;
  params.retention.gc = true;
  params.staging.stage_bytes = 2 * kGiB;
  return params;
}

bool same_schedule(const std::vector<CompletionRecord>& a,
                   const std::vector<CompletionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].node != b[i].node ||
        a[i].config != b[i].config || a[i].start_ns != b[i].start_ns ||
        a[i].finish_ns != b[i].finish_ns) {
      return false;
    }
  }
  return true;
}

TEST(ServiceCapacity, UnboundedPoolsKeepTheModelDormant) {
  const auto stream = capacity_stream();
  ServiceConfig config = base_config(stream.size());

  auto off = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(off.has_value());

  // Every knob set but pmem_per_socket == 0: byte-identical schedule,
  // all-zero capacity metrics.
  config.capacity = bounded_params(0);
  auto dormant = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(dormant.has_value());

  EXPECT_TRUE(same_schedule(off->completions, dormant->completions));
  EXPECT_EQ(dormant->metrics.evictions, 0u);
  EXPECT_EQ(dormant->metrics.gc_bytes, 0u);
  EXPECT_EQ(dormant->metrics.stage_hits, 0u);
  EXPECT_EQ(dormant->metrics.residency_high_water, 0u);
}

TEST(ServiceCapacity, BoundedPoolsPopulateTheMetrics) {
  const auto stream = capacity_stream();
  ServiceConfig config = base_config(stream.size());
  config.capacity = bounded_params(64 * kGB);
  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.completed, stream.size());
  EXPECT_GT(result->metrics.residency_high_water, 0u);
  EXPECT_LE(result->metrics.residency_high_water, 64 * kGB);
  EXPECT_GT(result->metrics.gc_bytes, 0u);
  EXPECT_GT(result->metrics.stage_hits, 0u);
}

// Exact outcome of a bounded run with the DRAM stage and retain-2 GC
// on: the staging discount moves every charged runtime and finish, the
// residue accounting the GC volume and the pool high water. The
// relational tests above hold for any discount.
TEST(ServiceCapacity, StagedRetainedRunIsPinned) {
  const auto stream = capacity_stream();
  ServiceConfig config = base_config(stream.size());
  config.capacity = bounded_params(64 * kGB);
  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  Hasher64 schedule;
  for (const CompletionRecord& record : result->completions) {
    schedule.update_u64(record.id);
    schedule.update_u64(record.node);
    schedule.update_u64(record.start_ns);
    schedule.update_u64(record.finish_ns);
    schedule.update_u64(record.config_runtime_ns);
  }
  EXPECT_EQ(schedule.digest(), 0x2519b063d9b3dd9aULL);
  EXPECT_EQ(result->metrics.stage_hits, 360u);
  EXPECT_EQ(result->metrics.gc_bytes, 210386288640u);
  EXPECT_EQ(result->metrics.evictions, 0u);
  EXPECT_EQ(result->metrics.residency_high_water, 63619233792u);
}

TEST(ServiceCapacity, CapacityBlindPlacementEvictsColdResidue) {
  const auto stream = capacity_stream();
  ServiceConfig config = base_config(stream.size());
  // GC off: every channel leases its full version volume and leaves it
  // all cold at finish — later dispatches must evict to fit.
  config.capacity = bounded_params(64 * kGB);
  config.capacity.retention.retain_versions = 0;
  config.capacity.retention.gc = false;
  config.capacity.staging.stage_bytes = 0;
  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.completed, stream.size());
  EXPECT_GT(result->metrics.evictions, 0u);
  EXPECT_EQ(result->metrics.gc_bytes, 0u);
}

TEST(ServiceCapacity, AwarePlacementEvictsLessThanBlind) {
  const auto stream = capacity_stream();
  ServiceConfig config = base_config(stream.size());

  config.capacity = bounded_params(64 * kGB);
  config.capacity.retention.retain_versions = 0;
  config.capacity.retention.gc = false;
  config.capacity.staging.stage_bytes = 0;
  auto blind = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(blind.has_value());

  config.policy = PlacementPolicy::kCapacityAware;
  config.capacity = bounded_params(64 * kGB);
  auto aware = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(aware.has_value());

  EXPECT_EQ(aware->metrics.completed, stream.size());
  EXPECT_LT(aware->metrics.evictions, blind->metrics.evictions);
}

TEST(ServiceCapacity, CapacityAwareWithoutTheModelIsLeastLoaded) {
  const auto stream = capacity_stream();
  ServiceConfig config = base_config(stream.size());
  auto least_loaded = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(least_loaded.has_value());

  config.policy = PlacementPolicy::kCapacityAware;
  auto aware = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(aware.has_value());

  EXPECT_TRUE(
      same_schedule(least_loaded->completions, aware->completions));
}

TEST(ServiceCapacity, BoundedRunsAreDeterministic) {
  const auto stream = capacity_stream();
  ServiceConfig config = base_config(stream.size());
  config.policy = PlacementPolicy::kCapacityAware;
  config.capacity = bounded_params(64 * kGB);
  auto a = OnlineScheduler(config).run(stream);
  auto b = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(same_schedule(a->completions, b->completions));
  EXPECT_EQ(a->metrics.evictions, b->metrics.evictions);
  EXPECT_EQ(a->metrics.gc_bytes, b->metrics.gc_bytes);
  EXPECT_EQ(a->metrics.residency_high_water,
            b->metrics.residency_high_water);
}

TEST(ServiceCapacity, DeviceSpecCapacityOverridesTheDefault) {
  // A node whose DeviceSpec carries its own capacity gets pools sized
  // from the spec, not from pmem_per_socket. The config default is an
  // absurd 1 byte: if the override were ignored, no pool could ever
  // hold a lease and the high water would stay at 1 byte.
  const auto stream = capacity_stream();
  ServiceConfig config = base_config(stream.size());
  config.capacity = bounded_params(1);

  devices::DeviceSpec spec;
  spec.capacity = 64 * kGB;
  NodeSpec node;
  node.devices = devices::NodeDevices(spec);
  config.node_specs = {node, node};
  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.completed, stream.size());
  EXPECT_GT(result->metrics.residency_high_water, 1 * kMB);
  EXPECT_LE(result->metrics.residency_high_water, 64 * kGB);
}

}  // namespace
}  // namespace pmemflow::service
