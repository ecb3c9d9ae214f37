// Checkpoint-based preemption & migration (tentpole of PR 2).
//
// Verifies the three contracts the preemption model makes:
//   - checkpoint-cost arithmetic matches hand-computed values (snapshot
//     volume × calibrated device bandwidths);
//   - a migrated resume restores the remaining runtime exactly — no
//     work is lost or invented across preempt/requeue/resume;
//   - the schedule stays deterministic with cancellable finish events
//     and drain timers in play.
#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "service/arrivals.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::service {
namespace {

/// A compute-heavy, I/O-light class: long runtime (lots of room to
/// preempt) but a small in-flight snapshot (cheap to checkpoint), so
/// the displacement decision rule is comfortably satisfied.
workflow::WorkflowSpec long_quiet_class() {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 64 * kKiB;
  sim.objects_per_rank = 32;
  sim.compute_ns = 5.0e8;
  sim.seed = 7;
  sim.name = "preempt-sim";
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 0.0;
  analytics.name = "preempt-ana";
  auto spec = workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                                 /*iterations=*/2);
  spec.label = "preempt-class";
  return spec;
}

Submission submit(std::uint64_t id, const workflow::WorkflowSpec& spec,
                  SimTime arrival_ns, Priority priority) {
  Submission submission;
  submission.id = id;
  submission.spec = spec;
  submission.arrival_ns = arrival_ns;
  submission.priority = priority;
  return submission;
}

/// Hand-computed checkpoint/restore/migration costs for a victim with
/// `remaining` of `full` work left — the same arithmetic the scheduler
/// is specified to perform.
struct CheckpointCosts {
  Bytes snapshot = 0;
  SimDuration checkpoint_ns = 0;
  SimDuration restore_ns = 0;
  SimDuration migration_ns = 0;
};

CheckpointCosts expected_costs(const CachedProfile& profile,
                               const workflow::WorkflowSpec& spec,
                               const CheckpointParams& params,
                               SimDuration remaining, SimDuration full) {
  CheckpointCosts costs;
  const double fraction =
      static_cast<double>(remaining) / static_cast<double>(full);
  auto in_flight = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(spec.iterations) * fraction));
  in_flight = std::clamp<std::uint64_t>(in_flight, 1, spec.iterations);
  costs.snapshot = profile.profile.simulation.bytes_per_iteration *
                   spec.ranks * in_flight;
  costs.checkpoint_ns =
      transfer_time(costs.snapshot, params.checkpoint_write_bw);
  costs.restore_ns = transfer_time(costs.snapshot, params.restore_read_bw);
  costs.migration_ns = transfer_time(costs.snapshot, params.migration_bw);
  return costs;
}

const CompletionRecord& record_of(const ServiceResult& result,
                                  std::uint64_t id) {
  auto it = std::find_if(result.completions.begin(), result.completions.end(),
                         [id](const CompletionRecord& r) { return r.id == id; });
  EXPECT_NE(it, result.completions.end()) << "no completion for id " << id;
  return *it;
}

ServiceConfig preemption_config(std::uint32_t nodes) {
  ServiceConfig config;
  config.nodes = nodes;
  config.queue_capacity = 64;
  config.defer_watermark = 1.0;
  config.policy = PlacementPolicy::kLeastLoaded;
  config.preemption = PreemptionPolicy::kCheckpointRestore;
  return config;
}

TEST(Preemption, CheckpointCostArithmeticMatchesHandComputed) {
  const auto config = preemption_config(/*nodes=*/1);
  OnlineScheduler scheduler(config);
  const auto spec = long_quiet_class();
  auto profile = scheduler.cache().characterize(spec);
  ASSERT_TRUE(profile.has_value());
  const SimDuration runtime =
      profile->options[config_index(config.fixed_config)].runtime_ns;
  ASSERT_GT(runtime, 0u);

  // Batch occupies the lone node; an urgent lands mid-run.
  const SimTime urgent_at = runtime / 2;
  const std::vector<Submission> stream = {
      submit(0, spec, 0, Priority::kBatch),
      submit(1, spec, urgent_at, Priority::kUrgent),
  };

  const SimDuration remaining = runtime - urgent_at;
  const auto costs = expected_costs(*profile, spec, config.checkpoint,
                                    remaining, runtime);
  // Preconditions of the displacement rule: the urgent's wait saved
  // (runtime - urgent_at - checkpoint) must exceed checkpoint + restore.
  ASSERT_GT(remaining,
            2 * costs.checkpoint_ns + costs.restore_ns);

  auto result = scheduler.run(stream);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->completions.size(), 2u);

  const CompletionRecord& victim = record_of(*result, 0);
  const CompletionRecord& urgent = record_of(*result, 1);

  // Victim checkpoint costs, to the nanosecond.
  EXPECT_EQ(victim.preemptions, 1u);
  EXPECT_EQ(victim.migrations, 0u);  // one node: resume is local
  EXPECT_EQ(victim.checkpoint_ns, costs.checkpoint_ns);
  EXPECT_EQ(victim.restore_ns, costs.restore_ns);

  // The urgent waits exactly one checkpoint drain, nothing more.
  EXPECT_EQ(urgent.start_ns, urgent_at + costs.checkpoint_ns);
  EXPECT_EQ(urgent.queue_delay_ns(), costs.checkpoint_ns);
  EXPECT_EQ(urgent.finish_ns, urgent.start_ns + runtime);
  EXPECT_EQ(urgent.preemptions, 0u);

  // Victim resumes when the urgent finishes, pays the restore, and runs
  // exactly its remaining work.
  EXPECT_EQ(victim.start_ns, 0u);
  EXPECT_EQ(victim.finish_ns,
            urgent.finish_ns + costs.restore_ns + remaining);
  EXPECT_EQ(victim.config_runtime_ns, runtime);
  EXPECT_EQ(victim.work_executed_ns, runtime);

  // Aggregates agree with the per-record story.
  EXPECT_EQ(result->metrics.preemptions, 1u);
  EXPECT_EQ(result->metrics.migrations, 0u);
  EXPECT_EQ(result->metrics.checkpoint_overhead_ns, costs.checkpoint_ns);
  EXPECT_EQ(result->metrics.restore_overhead_ns, costs.restore_ns);
  EXPECT_GT(result->metrics.victim_slowdown.max, 1.0);
}

TEST(Preemption, MigrationRestoresRemainingRuntimeExactly) {
  const auto config = preemption_config(/*nodes=*/2);
  OnlineScheduler scheduler(config);
  const auto spec = long_quiet_class();
  auto profile = scheduler.cache().characterize(spec);
  ASSERT_TRUE(profile.has_value());
  const SimDuration runtime =
      profile->options[config_index(config.fixed_config)].runtime_ns;

  // A and B fill both nodes; the urgent preempts A off node 0 (equal
  // checkpoint cost, lowest index). Node 1 frees first (B started
  // earlier than the urgent), so A resumes there: a migration.
  const SimTime b_at = 1 * kMillisecond;
  const SimTime urgent_at = (2 * runtime) / 3;
  ASSERT_GT(urgent_at, b_at);
  const std::vector<Submission> stream = {
      submit(0, spec, 0, Priority::kBatch),
      submit(1, spec, b_at, Priority::kBatch),
      submit(2, spec, urgent_at, Priority::kUrgent),
  };

  const SimDuration remaining = runtime - urgent_at;
  const auto costs = expected_costs(*profile, spec, config.checkpoint,
                                    remaining, runtime);
  ASSERT_GT(runtime - urgent_at, 2 * costs.checkpoint_ns + costs.restore_ns);

  auto result = scheduler.run(stream);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->completions.size(), 3u);

  const CompletionRecord& victim = record_of(*result, 0);
  const CompletionRecord& untouched = record_of(*result, 1);
  const CompletionRecord& urgent = record_of(*result, 2);

  EXPECT_EQ(urgent.node, 0u);
  EXPECT_EQ(urgent.start_ns, urgent_at + costs.checkpoint_ns);

  EXPECT_EQ(untouched.preemptions, 0u);
  EXPECT_EQ(untouched.node, 1u);
  EXPECT_EQ(untouched.finish_ns, b_at + runtime);

  // The victim migrated: restored on node 1 when B finished, paying
  // restore + interconnect transfer, then ran exactly what it had left.
  EXPECT_EQ(victim.preemptions, 1u);
  EXPECT_EQ(victim.migrations, 1u);
  EXPECT_EQ(victim.node, 1u);
  EXPECT_EQ(victim.checkpoint_ns, costs.checkpoint_ns);
  EXPECT_EQ(victim.restore_ns, costs.restore_ns + costs.migration_ns);
  EXPECT_EQ(victim.finish_ns, b_at + runtime + costs.restore_ns +
                                  costs.migration_ns + remaining);
  EXPECT_EQ(victim.work_executed_ns, runtime);
  EXPECT_EQ(result->metrics.migrations, 1u);
}

TEST(Preemption, SameStreamTwiceIsByteIdentical) {
  ArrivalParams params;
  params.count = 300;
  params.classes = 6;
  params.mean_interarrival_ns = 10.0e6;
  params.seed = 42;
  params.urgent_fraction = 0.25;
  params.batch_fraction = 0.45;
  const auto stream = *make_submission_stream(params);

  auto config = preemption_config(/*nodes=*/2);
  config.queue_capacity = stream.size();

  auto a = OnlineScheduler(config).run(stream);
  auto b = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // The stream must actually exercise the machinery under test.
  ASSERT_GT(a->metrics.preemptions, 0u);

  ASSERT_EQ(a->completions.size(), b->completions.size());
  for (std::size_t i = 0; i < a->completions.size(); ++i) {
    const CompletionRecord& x = a->completions[i];
    const CompletionRecord& y = b->completions[i];
    EXPECT_EQ(x.id, y.id) << i;
    EXPECT_EQ(x.node, y.node) << i;
    EXPECT_EQ(x.start_ns, y.start_ns) << i;
    EXPECT_EQ(x.finish_ns, y.finish_ns) << i;
    EXPECT_EQ(x.preemptions, y.preemptions) << i;
    EXPECT_EQ(x.migrations, y.migrations) << i;
    EXPECT_EQ(x.checkpoint_ns, y.checkpoint_ns) << i;
    EXPECT_EQ(x.restore_ns, y.restore_ns) << i;
    EXPECT_EQ(x.work_executed_ns, y.work_executed_ns) << i;
  }
  EXPECT_EQ(a->metrics.makespan_ns, b->metrics.makespan_ns);
  EXPECT_EQ(a->metrics.preemptions, b->metrics.preemptions);
  EXPECT_EQ(a->metrics.checkpoint_overhead_ns,
            b->metrics.checkpoint_overhead_ns);

  // Remaining-time accounting: every workflow — preempted, migrated, or
  // untouched — executes exactly its uninterrupted runtime of work.
  for (const CompletionRecord& record : a->completions) {
    EXPECT_EQ(record.work_executed_ns, record.config_runtime_ns)
        << record.id;
    if (record.preemptions == 0) {
      EXPECT_EQ(record.restore_ns, 0u) << record.id;
      EXPECT_EQ(record.checkpoint_ns, 0u) << record.id;
    }
  }
}

TEST(Preemption, NoPreemptionPolicyNeverPreempts) {
  ArrivalParams params;
  params.count = 200;
  params.classes = 6;
  params.mean_interarrival_ns = 10.0e6;
  params.seed = 42;
  params.urgent_fraction = 0.25;
  const auto stream = *make_submission_stream(params);

  auto config = preemption_config(/*nodes=*/2);
  config.queue_capacity = stream.size();
  config.preemption = PreemptionPolicy::kNone;

  auto result = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->metrics.preemptions, 0u);
  EXPECT_EQ(result->metrics.migrations, 0u);
  EXPECT_EQ(result->metrics.checkpoint_overhead_ns, 0u);
  for (const CompletionRecord& record : result->completions) {
    EXPECT_EQ(record.preemptions, 0u);
    EXPECT_EQ(record.work_executed_ns, record.config_runtime_ns);
  }
}

}  // namespace
}  // namespace pmemflow::service
