// Heterogeneous-fleet behaviour of the online service: profile and
// interference lookups are keyed by device fingerprint (a gen1 profile
// is never served for a dram-like node), and a mixed-backend fleet
// schedules deterministically — places, co-locates, and preempts with
// byte-identical replay.
#include <gtest/gtest.h>

#include <vector>

#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::service {
namespace {

devices::DeviceSpec preset_spec(const char* name) {
  auto preset = devices::DeviceRegistry::builtin().find(name);
  EXPECT_TRUE(preset.has_value()) << name;
  return preset->spec;
}

workflow::WorkflowSpec one_class() {
  return make_class_pool(/*classes=*/1, /*seed=*/7)[0];
}

std::vector<NodeSpec> mixed_fleet(std::uint32_t nodes) {
  std::vector<NodeSpec> specs;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    const char* name = i % 2 == 0 ? "optane-gen1" : "cxl-like";
    specs.push_back(
        NodeSpec{name, devices::NodeDevices(preset_spec(name))});
  }
  return specs;
}

// Satellite regression: before device fingerprints entered the cache
// key, a profile characterized on gen1 Optane was happily served for a
// dram-like run of the same class — wrong runtimes, wrong
// recommendation. The two backends must now be distinct entries.
TEST(HeteroFleet, Gen1ProfileNotServedForDramBackend) {
  ProfileCache cache(16);  // default executor: optane-gen1 timing
  const auto spec = one_class();

  auto gen1 = cache.lookup(spec);
  ASSERT_TRUE(gen1.has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const devices::NodeDevices dram{preset_spec("dram-like")};
  auto dram_profile = cache.lookup(spec, dram);
  ASSERT_TRUE(dram_profile.has_value());
  // Same class, different backend: a miss, not a hit off the gen1
  // entry.
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ((*gen1)->fingerprint, (*dram_profile)->fingerprint);
  EXPECT_NE((*gen1)->device_fingerprint, (*dram_profile)->device_fingerprint);
  // And the profiles genuinely disagree — DRAM-class bandwidth shifts
  // every configuration runtime.
  EXPECT_NE((*gen1)->options, (*dram_profile)->options);

  // Repeat lookups hit their own entries.
  EXPECT_TRUE(cache.lookup(spec).has_value());
  EXPECT_TRUE(cache.lookup(spec, dram).has_value());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(HeteroFleet, SameBackendLookupSharesTheDefaultEntry) {
  ProfileCache cache(16);
  const auto spec = one_class();
  ASSERT_TRUE(cache.lookup(spec).has_value());
  // The executor's own backend passed explicitly must hit the entry
  // the plain lookup created.
  const devices::NodeDevices gen1{preset_spec("optane-gen1")};
  ASSERT_TRUE(cache.lookup(spec, gen1).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(HeteroFleet, InterferenceRemeasuredPerBackend) {
  // A write-heavy + read-heavy synthetic pair: guaranteed compatible,
  // so the lookup actually measures.
  workloads::SyntheticSimulation::Params wh_sim;
  wh_sim.object_size = 8 * kMiB;
  wh_sim.objects_per_rank = 6;
  wh_sim.compute_ns = 0.0;
  wh_sim.name = "wh-sim";
  workloads::SyntheticAnalytics::Params wh_ana;
  wh_ana.compute_ns_per_object = 1.0e6;
  wh_ana.name = "wh-ana";
  const auto spec_a =
      workloads::make_synthetic_workflow(wh_sim, wh_ana, 8, 2);

  workloads::SyntheticSimulation::Params rh_sim;
  rh_sim.object_size = 8 * kMiB;
  rh_sim.objects_per_rank = 6;
  rh_sim.compute_ns = 2.5e7;
  rh_sim.name = "rh-sim";
  workloads::SyntheticAnalytics::Params rh_ana;
  rh_ana.compute_ns_per_object = 0.0;
  rh_ana.name = "rh-ana";
  const auto spec_b =
      workloads::make_synthetic_workflow(rh_sim, rh_ana, 8, 2);

  ProfileCache cache(8);
  InterferenceTable table;
  auto a = cache.lookup(spec_a);
  auto b = cache.lookup(spec_b);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(colocation_compatible(**a, **b, ColocationParams{}));

  auto gen1_pair = table.lookup(**a, spec_a, **b, spec_b);
  ASSERT_TRUE(gen1_pair.has_value());
  EXPECT_TRUE(gen1_pair->feasible);
  EXPECT_EQ(table.stats().measurements, 1u);

  // Same class pair on a different backend: measured again, not served
  // from the gen1 memo.
  const devices::NodeDevices dram{preset_spec("dram-like")};
  auto dram_pair = table.lookup(**a, spec_a, **b, spec_b, dram);
  ASSERT_TRUE(dram_pair.has_value());
  EXPECT_EQ(table.stats().measurements, 2u);
  EXPECT_EQ(table.stats().hits, 0u);

  // Both memo entries serve repeats.
  ASSERT_TRUE(table.lookup(**a, spec_a, **b, spec_b).has_value());
  ASSERT_TRUE(table.lookup(**a, spec_a, **b, spec_b, dram).has_value());
  EXPECT_EQ(table.stats().measurements, 2u);
  EXPECT_EQ(table.stats().hits, 2u);
}

TEST(HeteroFleet, NodeSpecCountMustMatchFleet) {
  ServiceConfig config;
  config.nodes = 4;
  config.node_specs = mixed_fleet(3);  // one short
  const auto stream =
      *make_submission_stream({.count = 4, .classes = 2, .seed = 3});
  auto result = OnlineScheduler(config).run(stream);
  EXPECT_FALSE(result.has_value());
}

// Everything that determines the schedule, minus cache_hit (a warm
// scheduler legitimately turns first-sight misses into hits).
bool same_schedule(const CompletionRecord& a, const CompletionRecord& b) {
  return a.id == b.id && a.label == b.label && a.priority == b.priority &&
         a.node == b.node && a.slot == b.slot && a.config == b.config &&
         a.arrival_ns == b.arrival_ns && a.start_ns == b.start_ns &&
         a.finish_ns == b.finish_ns &&
         a.best_runtime_ns == b.best_runtime_ns &&
         a.config_runtime_ns == b.config_runtime_ns &&
         a.colocations == b.colocations && a.migrations == b.migrations &&
         a.restore_ns == b.restore_ns;
}

/// Mixed optane-gen1 + cxl-like fleet under the most stateful service
/// configuration (co-location + checkpoint/restore preemption): the
/// whole schedule must replay byte-identically, and every submission
/// must finish on a fleet node.
TEST(HeteroFleet, MixedFleetRepaysByteIdentically) {
  ArrivalParams params;
  params.count = 120;
  params.classes = 6;
  params.mean_interarrival_ns = 15.0e6;
  params.seed = 97;
  params.urgent_fraction = 0.2;
  const auto stream = *make_submission_stream(params);

  ServiceConfig config;
  config.nodes = 4;
  config.node_specs = mixed_fleet(config.nodes);
  config.policy = PlacementPolicy::kColocationAware;
  config.preemption = PreemptionPolicy::kCheckpointRestore;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  OnlineScheduler first(config);
  OnlineScheduler second(config);
  auto a = first.run(stream);
  auto b = second.run(stream);
  ASSERT_TRUE(a.has_value()) << a.error().message;
  ASSERT_TRUE(b.has_value()) << b.error().message;

  ASSERT_EQ(a->completions.size(), b->completions.size());
  for (std::size_t i = 0; i < a->completions.size(); ++i) {
    EXPECT_EQ(record_difference(a->completions[i], b->completions[i]), nullptr)
        << "record " << i;
  }
  EXPECT_EQ(a->metrics.makespan_ns, b->metrics.makespan_ns);
  EXPECT_EQ(a->metrics.completed + a->metrics.dropped, stream.size());
  for (const auto& record : a->completions) {
    EXPECT_LT(record.node, config.nodes);
  }
  // A warm scheduler replays the same schedule too: the cache/memo
  // state is keyed, not order-dependent. Only cache_hit may flip
  // (first-sight misses become hits on the warm pass).
  auto warm = first.run(stream);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->completions.size(), a->completions.size());
  for (std::size_t i = 0; i < a->completions.size(); ++i) {
    EXPECT_TRUE(same_schedule(a->completions[i], warm->completions[i]))
        << "warm record " << i;
  }
}

/// Backend-aware routing: with one idle gen1 node and one idle
/// locality-free node, kRecommenderAware sends each class to the
/// backend where its recommended configuration runs fastest — so on a
/// long stream both backends must receive work, and the placement must
/// replay deterministically.
TEST(HeteroFleet, RecommenderRoutesAcrossBackends) {
  ArrivalParams params;
  params.count = 60;
  params.classes = 6;
  params.mean_interarrival_ns = 400.0e6;  // sparse: nodes usually idle
  params.seed = 5;
  params.urgent_fraction = 0.0;
  params.batch_fraction = 0.0;
  const auto stream = *make_submission_stream(params);

  ServiceConfig config;
  config.nodes = 2;
  config.node_specs = mixed_fleet(config.nodes);  // gen1 + cxl-like
  config.policy = PlacementPolicy::kRecommenderAware;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;

  auto a = OnlineScheduler(config).run(stream);
  auto b = OnlineScheduler(config).run(stream);
  ASSERT_TRUE(a.has_value()) << a.error().message;
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->completions.size(), stream.size());
  ASSERT_EQ(a->completions.size(), b->completions.size());
  for (std::size_t i = 0; i < a->completions.size(); ++i) {
    EXPECT_EQ(record_difference(a->completions[i], b->completions[i]), nullptr);
  }
  // With an idle fleet the router is free to choose: classes that
  // benefit from uniform locality land on the cxl node, the rest on
  // gen1. Assert the routing is real (both nodes used) and stable
  // (each class always routes to the same node when the fleet idles).
  bool used[2] = {false, false};
  for (const auto& record : a->completions) {
    ASSERT_LT(record.node, 2u);
    used[record.node] = true;
  }
  EXPECT_TRUE(used[0]);
  EXPECT_TRUE(used[1]);
}

}  // namespace
}  // namespace pmemflow::service
