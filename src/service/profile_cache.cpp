#include "service/profile_cache.hpp"

#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "dag/runner.hpp"
#include "dag/spec.hpp"

namespace pmemflow::service {

ProfileCache::ProfileCache(std::size_t capacity, core::Executor executor,
                           core::Recommender recommender)
    : capacity_(capacity),
      executor_(std::move(executor)),
      recommender_(recommender),
      default_device_fp_(executor_.runner().devices().fingerprint()) {
  PMEMFLOW_ASSERT(capacity >= 1);
}

std::uint64_t ProfileCache::key_of(std::uint64_t class_fp,
                                   std::uint64_t device_fp) {
  Hasher64 hasher;
  hasher.update_u64(class_fp);
  hasher.update_u64(device_fp);
  return hasher.digest();
}

Expected<CachedProfile> ProfileCache::characterize_on(
    const workflow::WorkflowSpec& spec, std::uint64_t class_fp,
    const core::Executor& executor, std::uint64_t device_fp) const {
  auto sweep = executor.sweep(spec);
  if (!sweep.has_value()) return Unexpected{sweep.error()};

  CachedProfile cached;
  cached.fingerprint = class_fp;
  cached.device_fingerprint = device_fp;
  cached.profile = core::Characterizer::from_sweep(
      spec, *sweep, executor.runner().devices());
  cached.rule_based = recommender_.rule_based(cached.profile, spec);
  cached.model_based = recommender_.model_based(cached.profile, spec);
  PMEMFLOW_ASSERT(sweep->results.size() == cached.runtime_ns.size());
  for (std::size_t i = 0; i < cached.runtime_ns.size(); ++i) {
    cached.runtime_ns[i] = sweep->results[i].run.total_ns;
  }
  cached.best_index = sweep->best_index();
  return cached;
}

Expected<CachedProfile> ProfileCache::characterize_keyed(
    const workflow::WorkflowSpec& spec, std::uint64_t class_fp,
    std::uint64_t device_fp, const devices::NodeDevices* backend) const {
  if (device_fp == default_device_fp_) {
    return characterize_on(spec, class_fp, executor_, default_device_fp_);
  }
  PMEMFLOW_ASSERT_MSG(backend != nullptr,
                      "a non-default device fingerprint needs its backend");
  core::Executor executor{
      workflow::Runner(executor_.runner().platform(), *backend)};
  auto result = characterize_on(spec, class_fp, executor, device_fp);
  // The executor dies with this scope; fold its counters in first (on
  // the error path too — a failed sweep still ran the allocator).
  extra_allocator_counters_ += executor.runner().allocator_counters();
  return result;
}

Expected<CachedProfile> ProfileCache::characterize(
    const workflow::WorkflowSpec& spec) const {
  return characterize_keyed(spec, workflow::class_fingerprint(spec),
                            default_device_fp_, nullptr);
}

Expected<CachedProfile> ProfileCache::characterize(
    const workflow::WorkflowSpec& spec,
    const devices::NodeDevices& backend) const {
  return characterize_keyed(spec, workflow::class_fingerprint(spec),
                            backend.fingerprint(), &backend);
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup_keyed(
    const workflow::WorkflowSpec& spec, std::uint64_t class_fp,
    std::uint64_t device_fp, const devices::NodeDevices* backend) {
  const std::uint64_t key = key_of(class_fp, device_fp);
  if (auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // mark most recent
    return it->second->second;
  }

  ++stats_.misses;
  auto fresh = characterize_keyed(spec, class_fp, device_fp, backend);
  if (!fresh.has_value()) return Unexpected{fresh.error()};

  if (entries_.size() >= capacity_) {
    ++stats_.evictions;
    entries_.erase(lru_.back().first);
    lru_.pop_back();
  }
  auto entry = std::make_shared<const CachedProfile>(*std::move(fresh));
  lru_.emplace_front(key, entry);
  entries_.emplace(key, lru_.begin());
  return entry;
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup(
    const workflow::WorkflowSpec& spec) {
  return lookup_keyed(spec, workflow::class_fingerprint(spec),
                      default_device_fp_, nullptr);
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup(
    const workflow::WorkflowSpec& spec, const devices::NodeDevices& backend) {
  return lookup_keyed(spec, workflow::class_fingerprint(spec),
                      backend.fingerprint(), &backend);
}

Expected<CachedDagProfile> ProfileCache::characterize_dag_keyed(
    const dag::DagSpec& spec, std::uint64_t class_fp, std::uint64_t device_fp,
    const devices::NodeDevices* backend) const {
  // Invalid specs are hard errors; a *valid* DAG that no socket
  // assignment fits is a placement outcome the region handles (graceful
  // drop), so plan errors past validation mean "infeasible here".
  if (auto status = dag::validate(spec); !status) {
    return Unexpected{status.error()};
  }
  PMEMFLOW_ASSERT_MSG(device_fp == default_device_fp_ || backend != nullptr,
                      "a non-default device fingerprint needs its backend");
  CachedDagProfile cached;
  cached.fingerprint = class_fp;
  cached.device_fingerprint = device_fp;
  cached.iterations = spec.iterations;
  for (const dag::DagEdge& edge : spec.edges) {
    const dag::DagComponent& producer =
        spec.components[*dag::component_index(spec, edge.producer)];
    cached.bytes_per_iteration +=
        producer.object_size * producer.objects_per_rank * producer.ranks;
    cached.objects_per_iteration +=
        static_cast<std::uint64_t>(producer.objects_per_rank) * producer.ranks;
  }

  // Default-backend DAGs run on the executor's runner; cross-backend
  // ones on a temporary runner, like the pair path's temporary executor.
  const topo::PlatformSpec& platform = executor_.runner().platform();
  std::optional<workflow::Runner> backend_runner;
  if (device_fp != default_device_fp_) {
    backend_runner.emplace(platform, *backend);
  }
  const workflow::Runner& runner =
      backend_runner.has_value() ? *backend_runner : executor_.runner();
  if (auto plan = dag::plan_spread(spec, platform); plan.has_value()) {
    auto run = dag::run(runner, spec, plan->run_options());
    if (!run.has_value()) return Unexpected{run.error()};
    cached.spread_feasible = true;
    cached.spread = *std::move(plan);
    cached.spread_runtime_ns = run->total_ns;
  }
  if (auto plan = dag::plan_fusion(spec, platform); plan.has_value()) {
    auto run = dag::run(runner, spec, plan->run_options());
    if (!run.has_value()) return Unexpected{run.error()};
    cached.fused_feasible = true;
    cached.fused = *std::move(plan);
    cached.fused_runtime_ns = run->total_ns;
  }
  // The temporary runner dies with this scope; fold its counters in.
  if (backend_runner.has_value()) {
    extra_allocator_counters_ += backend_runner->allocator_counters();
  }
  return cached;
}

Expected<CachedDagProfile> ProfileCache::characterize_dag(
    const dag::DagSpec& spec) const {
  return characterize_dag_keyed(spec, dag::class_fingerprint(spec),
                                default_device_fp_, nullptr);
}

Expected<CachedDagProfile> ProfileCache::characterize_dag(
    const dag::DagSpec& spec, const devices::NodeDevices& backend) const {
  return characterize_dag_keyed(spec, dag::class_fingerprint(spec),
                                backend.fingerprint(), &backend);
}

Expected<std::shared_ptr<const CachedDagProfile>>
ProfileCache::lookup_dag_keyed(const dag::DagSpec& spec, std::uint64_t class_fp,
                               std::uint64_t device_fp,
                               const devices::NodeDevices* backend) {
  const std::uint64_t key = key_of(class_fp, device_fp);
  if (auto it = dag_entries_.find(key); it != dag_entries_.end()) {
    ++stats_.hits;
    dag_lru_.splice(dag_lru_.begin(), dag_lru_, it->second);
    return it->second->second;
  }

  ++stats_.misses;
  auto fresh = characterize_dag_keyed(spec, class_fp, device_fp, backend);
  if (!fresh.has_value()) return Unexpected{fresh.error()};

  if (dag_entries_.size() >= capacity_) {
    ++stats_.evictions;
    dag_entries_.erase(dag_lru_.back().first);
    dag_lru_.pop_back();
  }
  auto entry = std::make_shared<const CachedDagProfile>(*std::move(fresh));
  dag_lru_.emplace_front(key, entry);
  dag_entries_.emplace(key, dag_lru_.begin());
  return entry;
}

Expected<std::shared_ptr<const CachedDagProfile>> ProfileCache::lookup_dag(
    const dag::DagSpec& spec) {
  return lookup_dag_keyed(spec, dag::class_fingerprint(spec),
                          default_device_fp_, nullptr);
}

Expected<std::shared_ptr<const CachedDagProfile>> ProfileCache::lookup_dag(
    const dag::DagSpec& spec, const devices::NodeDevices& backend) {
  return lookup_dag_keyed(spec, dag::class_fingerprint(spec),
                          backend.fingerprint(), &backend);
}

}  // namespace pmemflow::service
