#include "service/profile_cache.hpp"

#include <gtest/gtest.h>

#include "service/arrivals.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::service {
namespace {

workflow::WorkflowSpec small_spec(Bytes object_size,
                                  double analytics_ns_per_object = 0.0) {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = object_size;
  sim.objects_per_rank = 4;
  sim.compute_ns = 1e6;
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = analytics_ns_per_object;
  return workloads::make_synthetic_workflow(sim, analytics, /*ranks=*/8,
                                            /*iterations=*/2);
}

void expect_identical_recommendation(const core::Recommendation& a,
                                     const core::Recommendation& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.table2_row, b.table2_row);
  for (std::size_t i = 0; i < a.predicted_ns.size(); ++i) {
    // Byte-identical, not approximately equal: a cache hit must return
    // exactly what a fresh characterization computes.
    EXPECT_EQ(a.predicted_ns[i], b.predicted_ns[i]) << "config " << i;
  }
}

TEST(ProfileCache, HitIsIdenticalToFreshCharacterization) {
  ProfileCache cache(8);
  const auto spec = small_spec(kMiB);

  auto first = cache.lookup(spec);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  auto second = cache.lookup(spec);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  // Same object, so trivially identical...
  EXPECT_EQ(first->get(), second->get());

  // ...and equal to a from-scratch characterization, field for field.
  auto fresh = cache.characterize(spec);
  ASSERT_TRUE(fresh.has_value());
  expect_identical_recommendation((*second)->rule_based, fresh->rule_based);
  expect_identical_recommendation((*second)->model_based, fresh->model_based);
  EXPECT_EQ((*second)->options, fresh->options);
  EXPECT_EQ((*second)->best_index, fresh->best_index);
  EXPECT_EQ((*second)->profile.simulation.iteration_ns,
            fresh->profile.simulation.iteration_ns);
  EXPECT_EQ((*second)->profile.simulation.io_ns,
            fresh->profile.simulation.io_ns);
  EXPECT_EQ((*second)->profile.analytics.iteration_ns,
            fresh->profile.analytics.iteration_ns);
  EXPECT_EQ((*second)->profile.analytics.io_ns,
            fresh->profile.analytics.io_ns);
}

TEST(ProfileCache, RelabeledResubmissionHits) {
  ProfileCache cache(8);
  auto spec = small_spec(kMiB);
  ASSERT_TRUE(cache.lookup(spec).has_value());

  auto renamed = spec;
  renamed.label = "same-class-new-job-name";
  auto hit = cache.lookup(renamed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ProfileCache, EvictsLeastRecentlyUsed) {
  ProfileCache cache(2);
  const auto a = small_spec(256 * kKiB);
  const auto b = small_spec(kMiB);
  const auto c = small_spec(4 * kMiB);

  ASSERT_TRUE(cache.lookup(a).has_value());  // {a}
  ASSERT_TRUE(cache.lookup(b).has_value());  // {b, a}
  ASSERT_TRUE(cache.lookup(a).has_value());  // {a, b} — a refreshed
  ASSERT_TRUE(cache.lookup(c).has_value());  // {c, a} — b evicted
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  ASSERT_TRUE(cache.lookup(a).has_value());  // still cached
  EXPECT_EQ(cache.stats().hits, 2u);
  ASSERT_TRUE(cache.lookup(b).has_value());  // re-characterized
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ProfileCache, EvictedEntryPointerStaysValid) {
  ProfileCache cache(1);
  const auto a = small_spec(256 * kKiB);
  const auto b = small_spec(kMiB);
  auto first = cache.lookup(a);
  ASSERT_TRUE(first.has_value());
  const auto held = *first;  // keep the shared_ptr across eviction
  ASSERT_TRUE(cache.lookup(b).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(held->fingerprint, workflow::class_fingerprint(a));
  EXPECT_GT(held->best_runtime_ns(), 0u);
}

TEST(ProfileCache, RuntimesComeFromTheOracleSweep) {
  ProfileCache cache(4);
  auto entry = cache.lookup(small_spec(kMiB, 5e4));
  ASSERT_TRUE(entry.has_value());
  const auto& cached = **entry;
  for (const PlanOption& option : cached.options) {
    EXPECT_GT(option.runtime_ns, 0u);
    EXPECT_GE(option.runtime_ns, cached.best_runtime_ns());
  }
  EXPECT_EQ(cached.options[cached.best_index].runtime_ns,
            cached.best_runtime_ns());
}

TEST(ProfileCache, ErrorsAreNotCached) {
  ProfileCache cache(4);
  auto bad = small_spec(kMiB);
  bad.ranks = 1000;  // exceeds per-socket cores: characterization fails
  EXPECT_FALSE(cache.lookup(bad).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ProfileCache, ArrivalPoolClassesAllCacheable) {
  // Every class the arrival generator can produce characterizes
  // successfully and lands in the cache.
  ProfileCache cache(64);
  for (const auto& spec : make_class_pool(6, /*seed=*/7)) {
    ASSERT_TRUE(cache.lookup(spec).has_value()) << spec.label;
  }
  EXPECT_EQ(cache.size(), 6u);
}

}  // namespace
}  // namespace pmemflow::service
