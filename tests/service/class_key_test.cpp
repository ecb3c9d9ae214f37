// Class keys: OnlineScheduler::run stamps every submission's behavioural
// class fingerprint once per run, memoized on spec identity, and every
// cache keys on the stamped value. These tests pin the digest count,
// that caller-set keys are ignored, and that the memo's pointer identity
// never merges or splits behavioural classes.
#include "service/class_key.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dag/spec.hpp"
#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"

namespace pmemflow::service {
namespace {

constexpr std::uint64_t kPoolSeed = 0x636c6173736b6579ULL;  // "classkey"

std::vector<std::shared_ptr<const dag::DagSpec>> example_dags() {
  std::vector<std::shared_ptr<const dag::DagSpec>> dags;
  for (const char* name : {"fanout_analytics.dag", "two_stage_reduce.dag"}) {
    auto spec = dag::load_dag(std::string(PMEMFLOW_EXAMPLE_DAGS) + "/" + name);
    EXPECT_TRUE(spec.has_value()) << spec.error().message;
    dags.push_back(std::make_shared<const dag::DagSpec>(*std::move(spec)));
  }
  return dags;
}

/// `count` submissions 50 ms apart: every fifth is a DAG (alternating
/// shapes), the rest cycle through the pool.
std::vector<Submission> mixed_stream(
    std::size_t count, const std::vector<workflow::WorkflowSpec>& pool,
    const std::vector<std::shared_ptr<const dag::DagSpec>>& dags) {
  std::vector<Submission> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Submission submission;
    submission.id = i;
    submission.arrival_ns = i * 50 * kMillisecond;
    if (!dags.empty() && i % 5 == 0) {
      submission.dag = dags[(i / 5) % dags.size()];
    } else {
      submission.spec = pool[i % pool.size()];
    }
    stream.push_back(std::move(submission));
  }
  return stream;
}

/// A service config that touches every keyed cache: a two-backend
/// fleet (per-node device fingerprints), co-location (interference
/// table), a lookahead window with the plan cache, and preemption.
ServiceConfig keyed_config() {
  ServiceConfig config;
  config.nodes = 4;
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    NodeSpec spec;
    spec.backend_name = i % 2 == 0 ? "optane-gen1" : "dram-like";
    spec.devices = *devices::parse_backend(spec.backend_name);
    config.node_specs.push_back(std::move(spec));
  }
  config.queue_capacity = 32;
  config.policy = PlacementPolicy::kColocationAware;
  config.planner.window = 4;
  config.planner.plan_cache = true;
  config.preemption = PreemptionPolicy::kCheckpointRestore;
  return config;
}

TEST(ClassKeys, OneDigestPerDistinctClassAcrossAStream) {
  const auto pool = make_class_pool(24, kPoolSeed);
  auto stream = mixed_stream(10000, pool, example_dags());
  for (Submission& submission : stream) submission.class_fp = 0xbadc0ffee;

  EXPECT_EQ(stamp_class_keys(stream), 24u + 2u);
  for (const Submission& submission : stream) {
    ASSERT_EQ(submission.class_fp, class_key(submission))
        << "submission " << submission.id;
  }
}

TEST(ClassKeys, CallerSetKeysNeverChangeTheRun) {
  const auto pool = make_class_pool(8, kPoolSeed);
  auto zeroed = mixed_stream(400, pool, example_dags());
  auto garbage = zeroed;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (Submission& submission : garbage) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    submission.class_fp = state;
  }

  OnlineScheduler clean_scheduler(keyed_config());
  OnlineScheduler garbage_scheduler(keyed_config());
  auto clean = clean_scheduler.run(zeroed);
  auto dirty = garbage_scheduler.run(garbage);
  ASSERT_TRUE(clean.has_value()) << clean.error().message;
  ASSERT_TRUE(dirty.has_value()) << dirty.error().message;

  ASSERT_EQ(clean->completions.size(), dirty->completions.size());
  for (std::size_t i = 0; i < clean->completions.size(); ++i) {
    EXPECT_EQ(record_difference(clean->completions[i],
                                dirty->completions[i]),
              nullptr)
        << "record " << i;
  }
  EXPECT_EQ(clean->metrics.dropped, dirty->metrics.dropped);
  EXPECT_EQ(clean->metrics.cache.hits, dirty->metrics.cache.hits);
  EXPECT_EQ(clean->metrics.cache.misses, dirty->metrics.cache.misses);
  EXPECT_EQ(clean->metrics.cache.evictions, dirty->metrics.cache.evictions);
  EXPECT_EQ(clean->metrics.plans, dirty->metrics.plans);
  EXPECT_EQ(clean->metrics.plan_cache_hits, dirty->metrics.plan_cache_hits);
  EXPECT_EQ(clean->metrics.plan_cache_misses,
            dirty->metrics.plan_cache_misses);
  EXPECT_EQ(clean_scheduler.interference().stats().measurements,
            garbage_scheduler.interference().stats().measurements);
  EXPECT_EQ(clean_scheduler.interference().stats().hits,
            garbage_scheduler.interference().stats().hits);
  // The plan cache really was exercised, so its keys were compared.
  EXPECT_GT(clean->metrics.plan_cache_hits, 0u);
}

TEST(ClassKeys, EqualBehaviourFromDistinctModelObjectsSharesEntries) {
  // Two pools from one seed: distinct model objects, same behaviour.
  const auto first = make_class_pool(24, kPoolSeed);
  const auto second = make_class_pool(24, kPoolSeed);
  ASSERT_NE(first[0].simulation, second[0].simulation);

  std::vector<Submission> stream;
  for (std::size_t i = 0; i < 96; ++i) {
    Submission submission;
    submission.id = i;
    submission.arrival_ns = i * 10 * kMillisecond;
    submission.spec = (i % 2 == 0 ? first : second)[(i / 2) % 24];
    stream.push_back(std::move(submission));
  }
  auto stamped = stream;
  EXPECT_EQ(stamp_class_keys(stamped), 48u);  // one per model identity
  for (std::size_t i = 0; i + 1 < stamped.size(); i += 2) {
    EXPECT_EQ(stamped[i].class_fp, stamped[i + 1].class_fp) << "class " << i / 2;
  }

  ServiceConfig config;
  config.nodes = 4;
  config.queue_capacity = stream.size();
  OnlineScheduler scheduler(config);
  auto result = scheduler.run(stream);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->metrics.cache.misses, 24u);
  EXPECT_EQ(scheduler.cache().size(), 24u);
}

TEST(ClassKeys, SameModelsWithOtherRanksAreAnotherClass) {
  const auto pool = make_class_pool(4, kPoolSeed);
  const workflow::WorkflowSpec& base = pool[0];
  workflow::WorkflowSpec narrower = base;
  narrower.ranks = base.ranks / 2;
  ASSERT_EQ(narrower.simulation, base.simulation);
  ASSERT_EQ(narrower.analytics, base.analytics);

  std::vector<Submission> stream;
  for (std::size_t i = 0; i < 8; ++i) {
    Submission submission;
    submission.id = i;
    submission.arrival_ns = i * 10 * kMillisecond;
    submission.spec = i % 2 == 0 ? base : narrower;
    stream.push_back(std::move(submission));
  }
  auto stamped = stream;
  EXPECT_EQ(stamp_class_keys(stamped), 2u);
  EXPECT_NE(stamped[0].class_fp, stamped[1].class_fp);
  EXPECT_EQ(stamped[1].class_fp, workflow::class_fingerprint(narrower));

  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();
  OnlineScheduler scheduler(config);
  auto result = scheduler.run(stream);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->metrics.cache.misses, 2u);
  EXPECT_EQ(scheduler.cache().size(), 2u);
}

}  // namespace
}  // namespace pmemflow::service
