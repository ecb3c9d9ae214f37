#include "service/profile_cache.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "dag/plan.hpp"
#include "dag/runner.hpp"
#include "dag/spec.hpp"

namespace pmemflow::service {
namespace {

/// Fastest feasible option, the first on ties (0 when none is).
std::size_t fastest_option(const std::array<PlanOption, 4>& options) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < options.size(); ++i) {
    if (options[i].feasible &&
        (!options[best].feasible ||
         options[i].runtime_ns < options[best].runtime_ns)) {
      best = i;
    }
  }
  return best;
}

}  // namespace

std::uint32_t channel_socket_of(const core::DeploymentConfig& config) noexcept {
  return config.placement == core::Placement::kLocalWrite ? 0u : 1u;
}

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

Expected<CachedProfile> ProfileCache::characterize_keyed(
    const workflow::WorkflowSpec& spec, std::uint64_t class_fp,
    std::uint64_t device_fp, const devices::NodeDevices* backend) const {
  std::optional<core::Executor> backend_executor;
  if (device_fp != default_device_fp_) {
    PMEMFLOW_ASSERT_MSG(backend != nullptr,
                        "a non-default device fingerprint needs its backend");
    backend_executor.emplace(
        workflow::Runner(executor_.runner().platform(), *backend));
  }
  const core::Executor& executor =
      backend_executor.has_value() ? *backend_executor : executor_;
  auto sweep = executor.sweep(spec);
  // The temporary executor dies with this scope; fold its counters in
  // (on the error path too — a failed sweep still ran the allocator).
  if (backend_executor.has_value()) {
    extra_allocator_counters_ += backend_executor->runner().allocator_counters();
  }
  if (!sweep.has_value()) return Unexpected{sweep.error()};

  CachedProfile cached;
  cached.fingerprint = class_fp;
  cached.device_fingerprint = device_fp;
  cached.profile = core::Characterizer::from_sweep(
      spec, *sweep, executor.runner().devices());
  cached.rule_based = recommender_.rule_based(cached.profile, spec);
  cached.model_based = recommender_.model_based(cached.profile, spec);
  const auto configs = core::all_configs();
  PMEMFLOW_ASSERT(sweep->results.size() == cached.options.size());
  for (std::size_t i = 0; i < cached.options.size(); ++i) {
    cached.options[i] = PlanOption{sweep->results[i].run.total_ns, true,
                                   channel_socket_of(configs[i]), 0};
  }
  cached.best_index = fastest_option(cached.options);
  // The channel materializes every rank's part each iteration; the
  // profile's numbers are one rank's share. Ranks and iterations are
  // part of the class key, so any spec of the class gives these.
  cached.bytes_per_iteration =
      cached.profile.simulation.bytes_per_iteration * spec.ranks;
  cached.objects_per_iteration =
      cached.profile.simulation.objects_per_iteration * spec.ranks;
  cached.iterations = std::max<std::uint32_t>(1, spec.iterations);
  return cached;
}

Expected<CachedProfile> ProfileCache::characterize_keyed(
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
  CachedProfile cached;
  cached.fingerprint = class_fp;
  cached.device_fingerprint = device_fp;
  cached.dag = true;
  cached.iterations = std::max<std::uint32_t>(1, spec.iterations);
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
  // Spread baseline (alternate sockets by depth, consumer-local
  // channels: a 2-node chain lands exactly on the pair P-LocR shape),
  // then the fusion search (minimum Table II edge cost).
  std::pair<std::size_t, Expected<dag::FusionPlan>> plans[] = {
      {kSpreadOption, dag::plan_spread(spec, platform)},
      {kFusedOption, dag::plan_fusion(spec, platform)},
  };
  for (auto& [slot, plan] : plans) {
    if (!plan.has_value()) continue;
    auto run = dag::run(runner, spec, plan->run_options());
    if (!run.has_value()) return Unexpected{run.error()};
    cached.options[slot] =
        PlanOption{run->total_ns, true, plan->lease_socket,
                   static_cast<std::uint32_t>(plan->ephemeral_edges)};
  }
  cached.best_index = fastest_option(cached.options);
  // The temporary runner dies with this scope; fold its counters in.
  if (backend_runner.has_value()) {
    extra_allocator_counters_ += backend_runner->allocator_counters();
  }
  return cached;
}

Expected<CachedProfile> ProfileCache::characterize(
    const workflow::WorkflowSpec& spec) const {
  return characterize_keyed(spec, workflow::class_fingerprint(spec),
                            default_device_fp_, nullptr);
}

Expected<CachedProfile> ProfileCache::characterize_dag(
    const dag::DagSpec& spec) const {
  return characterize_keyed(spec, dag::class_fingerprint(spec),
                            default_device_fp_, nullptr);
}

template <typename Spec>
Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup_in(
    Lru& lru, const Spec& spec, std::uint64_t class_fp,
    std::uint64_t device_fp, const devices::NodeDevices* backend) {
  const std::uint64_t key = key_of(class_fp, device_fp);
  if (auto it = lru.entries.find(key); it != lru.entries.end()) {
    ++stats_.hits;
    lru.order.splice(lru.order.begin(), lru.order, it->second);
    return it->second->second;
  }

  ++stats_.misses;
  auto fresh = characterize_keyed(spec, class_fp, device_fp, backend);
  if (!fresh.has_value()) return Unexpected{fresh.error()};

  if (lru.entries.size() >= capacity_) {
    ++stats_.evictions;
    lru.entries.erase(lru.order.back().first);
    lru.order.pop_back();
  }
  auto entry = std::make_shared<const CachedProfile>(*std::move(fresh));
  lru.order.emplace_front(key, entry);
  lru.entries.emplace(key, lru.order.begin());
  return entry;
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup_keyed(
    const Submission& submission, std::uint64_t device_fp,
    const devices::NodeDevices* backend) {
  if (submission.dag != nullptr) {
    return lookup_in(dags_, *submission.dag, submission.class_fp, device_fp,
                     backend);
  }
  return lookup_in(pairs_, submission.spec, submission.class_fp, device_fp,
                   backend);
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup(
    const workflow::WorkflowSpec& spec) {
  return lookup_in(pairs_, spec, workflow::class_fingerprint(spec),
                   default_device_fp_, nullptr);
}

Expected<std::shared_ptr<const CachedProfile>> ProfileCache::lookup(
    const workflow::WorkflowSpec& spec, const devices::NodeDevices& backend) {
  return lookup_in(pairs_, spec, workflow::class_fingerprint(spec),
                   backend.fingerprint(), &backend);
}

}  // namespace pmemflow::service
