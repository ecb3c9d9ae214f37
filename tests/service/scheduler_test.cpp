#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "service/arrivals.hpp"
#include "trace/tracer.hpp"

namespace pmemflow::service {
namespace {

ArrivalParams small_stream_params() {
  ArrivalParams params;
  params.count = 200;
  params.classes = 6;
  params.mean_interarrival_ns = 20.0e6;
  params.seed = 42;
  return params;
}

std::vector<Submission> must_stream(const ArrivalParams& params) {
  return *make_submission_stream(params);
}

TEST(ConfigIndex, MatchesTableIOrder) {
  const auto configs = core::all_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(config_index(configs[i]), i) << configs[i].label();
  }
}

TEST(OnlineScheduler, SameSeedProducesIdenticalSchedule) {
  const auto stream = must_stream(small_stream_params());

  ServiceConfig config;
  config.nodes = 3;
  config.queue_capacity = 64;

  OnlineScheduler first(config);
  OnlineScheduler second(config);
  auto a = first.run(stream);
  auto b = second.run(stream);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  ASSERT_EQ(a->completions.size(), b->completions.size());
  for (std::size_t i = 0; i < a->completions.size(); ++i) {
    EXPECT_EQ(record_difference(a->completions[i], b->completions[i]), nullptr)
        << "record " << i;
  }
  EXPECT_EQ(a->metrics.makespan_ns, b->metrics.makespan_ns);
  EXPECT_EQ(a->metrics.queue_delay_ns.mean, b->metrics.queue_delay_ns.mean);
  EXPECT_EQ(a->metrics.admission.admitted, b->metrics.admission.admitted);
}

TEST(OnlineScheduler, RegeneratedStreamIsIdentical) {
  // The stream itself is a pure function of the seed.
  const auto once = must_stream(small_stream_params());
  const auto again = must_stream(small_stream_params());
  ASSERT_EQ(once.size(), again.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].id, again[i].id);
    EXPECT_EQ(once[i].arrival_ns, again[i].arrival_ns);
    EXPECT_EQ(once[i].priority, again[i].priority);
    EXPECT_TRUE(once[i].spec == again[i].spec);
  }
}

TEST(OnlineScheduler, SubmissionOrderDoesNotMatter) {
  // run() sorts by arrival time internally; feeding a reversed stream
  // must not change the schedule.
  const auto stream = must_stream(small_stream_params());
  auto reversed = stream;
  std::reverse(reversed.begin(), reversed.end());

  ServiceConfig config;
  config.nodes = 3;
  config.queue_capacity = 64;
  auto a = OnlineScheduler(config).run(stream);
  auto b = OnlineScheduler(config).run(reversed);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->completions.size(), b->completions.size());
  for (std::size_t i = 0; i < a->completions.size(); ++i) {
    EXPECT_EQ(record_difference(a->completions[i], b->completions[i]), nullptr);
  }
}

TEST(OnlineScheduler, AllAdmittedWorkCompletes) {
  const auto stream = must_stream(small_stream_params());
  ServiceConfig config;
  config.nodes = 4;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.completed, stream.size());
  EXPECT_EQ(result->metrics.admission.rejected, 0u);
  EXPECT_EQ(result->metrics.dropped, 0u);

  for (const auto& record : result->completions) {
    EXPECT_GE(record.start_ns, record.arrival_ns);
    EXPECT_GT(record.finish_ns, record.start_ns);
    EXPECT_GE(record.slowdown(), 1.0) << record.id;
    EXPECT_LT(record.node, config.nodes);
  }
  // With 6 classes and 200 submissions the cache must be doing nearly
  // all the work.
  EXPECT_EQ(result->metrics.cache.misses, 6u);
  EXPECT_EQ(result->metrics.cache.hits, stream.size() - 6u);
}

TEST(OnlineScheduler, SaturationTriggersAdmissionControl) {
  // One slow node + a tiny queue + a burst of arrivals: the queue
  // fills, kBatch work defers past the watermark, and overflow is
  // rejected with a positive retry-after hint.
  auto params = small_stream_params();
  params.count = 120;
  params.mean_interarrival_ns = 1.0e6;  // far faster than service rate
  params.batch_fraction = 0.5;
  const auto stream = must_stream(params);

  ServiceConfig config;
  config.nodes = 1;
  config.queue_capacity = 8;
  config.defer_watermark = 0.5;
  config.max_retries = 2;

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  const auto& m = result->metrics;
  EXPECT_GT(m.admission.rejected, 0u);
  EXPECT_GT(m.admission.deferred, 0u);
  EXPECT_GT(m.retries, 0u);
  EXPECT_GT(m.dropped, 0u);
  // Everything that was admitted still finishes.
  EXPECT_EQ(m.completed, m.admission.admitted);
  EXPECT_LT(m.completed, stream.size());
  // The lone node never runs two workflows at once.
  SimTime previous_finish = 0;
  auto sorted = result->completions;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  for (const auto& record : sorted) {
    EXPECT_GE(record.start_ns, previous_finish);
    previous_finish = record.finish_ns;
  }
}

TEST(OnlineScheduler, AccountingInvariantAcrossPolicies) {
  // Every submission must end up exactly one of completed or dropped —
  // rejected work retries like deferred work and is only dropped once
  // its retry budget is exhausted, so nothing vanishes from accounting.
  auto params = small_stream_params();
  params.count = 140;
  params.mean_interarrival_ns = 1.0e6;  // saturate the lone node
  params.batch_fraction = 0.5;
  params.urgent_fraction = 0.2;
  const auto stream = must_stream(params);

  for (const auto policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kRecommenderAware,
        PlacementPolicy::kColocationAware}) {
    for (const auto preemption :
         {PreemptionPolicy::kNone, PreemptionPolicy::kCheckpointRestore}) {
      ServiceConfig config;
      config.nodes = 1;
      config.queue_capacity = 8;
      config.defer_watermark = 0.5;
      config.max_retries = 2;
      config.policy = policy;
      config.preemption = preemption;

      auto result = OnlineScheduler(config).run(stream);
      ASSERT_TRUE(result.has_value());
      const auto& m = result->metrics;
      EXPECT_EQ(m.completed + m.dropped, stream.size())
          << to_string(policy) << "/" << to_string(preemption);
      EXPECT_EQ(m.completed, m.admission.admitted)
          << to_string(policy) << "/" << to_string(preemption);
      EXPECT_GT(m.dropped, 0u) << "stream not saturating — test is vacuous";
    }
  }
}

TEST(OnlineScheduler, EmptyFleetIsAnErrorNotACrash) {
  // Regression: a zero-node config used to walk straight into the
  // fleet's node_count assertion; the service must surface a clean
  // Expected error instead.
  auto params = small_stream_params();
  params.count = 5;
  const auto stream = must_stream(params);

  ServiceConfig config;
  config.nodes = 0;
  auto result = OnlineScheduler(config).run(stream);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("at least one"), std::string::npos)
      << result.error().message;
}

TEST(OnlineScheduler, FixedPolicyUsesTheFixedConfig) {
  auto params = small_stream_params();
  params.count = 40;
  const auto stream = must_stream(params);

  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();
  config.policy = PlacementPolicy::kFirstFit;
  config.fixed_config = {core::ExecutionMode::kSerial,
                         core::Placement::kLocalWrite};

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  for (const auto& record : result->completions) {
    EXPECT_EQ(record.config, config.fixed_config);
  }
}

TEST(OnlineScheduler, RecommenderAwareNeverSlowerPerClass) {
  // Per submission, the recommender-aware runtime is the recommended
  // config's sweep runtime — by construction within the sweep, so its
  // slowdown is bounded by the fixed policy's worst case. Check the
  // aggregate ordering on a stream long enough to matter.
  auto params = small_stream_params();
  params.count = 300;
  const auto stream = must_stream(params);

  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  config.policy = PlacementPolicy::kRecommenderAware;
  auto aware = OnlineScheduler(config).run(stream);
  config.policy = PlacementPolicy::kLeastLoaded;
  auto fixed = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(aware.has_value());
  ASSERT_TRUE(fixed.has_value());
  EXPECT_LE(aware->metrics.slowdown.mean, fixed->metrics.slowdown.mean);
  EXPECT_LE(aware->metrics.makespan_ns, fixed->metrics.makespan_ns);
}

TEST(OnlineScheduler, CachePersistsAcrossRuns) {
  auto params = small_stream_params();
  params.count = 50;
  const auto stream = must_stream(params);

  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();

  OnlineScheduler scheduler(config);
  ASSERT_TRUE(scheduler.run(stream).has_value());
  const CacheStats after_first = scheduler.cache().stats();
  auto second = scheduler.run(stream);
  ASSERT_TRUE(second.has_value());
  const CacheStats after_second = scheduler.cache().stats();
  // Second run over the same classes: all hits, no new characterization.
  EXPECT_EQ(after_second.misses, after_first.misses);
  for (const auto& record : second->completions) {
    EXPECT_TRUE(record.cache_hit);
  }
  // Its metrics count its own lookups, not the cache's lifetime.
  const std::uint64_t lookups = after_second.hits - after_first.hits;
  EXPECT_GE(lookups, second->completions.size());
  EXPECT_EQ(second->metrics.cache.misses, 0u);
  EXPECT_EQ(second->metrics.cache.hits, lookups);
  EXPECT_EQ(second->metrics.rate_solves(), 0u);
}

TEST(OnlineScheduler, TracerSpansBalance) {
  auto params = small_stream_params();
  params.count = 30;
  const auto stream = must_stream(params);

  trace::Tracer tracer;
  ServiceConfig config;
  config.nodes = 2;
  config.queue_capacity = stream.size();
  config.tracer = &tracer;

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(tracer.spans().size(), result->completions.size());
  for (const auto& span : tracer.spans()) {
    EXPECT_GT(span.duration(), 0u);
  }
}

}  // namespace
}  // namespace pmemflow::service
