#include "probes.hpp"

#include <algorithm>
#include <unordered_set>

#include "dag/plan.hpp"
#include "service/profile_cache.hpp"
#include "sim/event_queue.hpp"
#include "workflow/model.hpp"

namespace perfbench {
namespace {

using namespace pmemflow;

/// Calls per chunk span: long enough that two clock reads vanish
/// against it, short enough to give many samples.
constexpr std::size_t kChunk = 1024;
/// Bounds that keep the probes inside a run's time budget.
constexpr std::size_t kMaxCalls = 200000;
constexpr std::size_t kMaxPairClasses = 96;
constexpr std::size_t kMaxDagClasses = 16;

/// Keeps a result alive past the optimizer.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

void probe_class_fingerprint(std::span<const service::Submission> stream,
                             SpanRecorder& spans) {
  std::vector<const workflow::WorkflowSpec*> specs;
  for (const service::Submission& submission : stream) {
    if (specs.size() == kMaxCalls) break;
    if (submission.dag == nullptr) specs.push_back(&submission.spec);
  }
  std::uint64_t digest = 0;
  for (std::size_t begin = 0; begin < specs.size(); begin += kChunk) {
    const std::size_t end = std::min(specs.size(), begin + kChunk);
    SpanRecorder::Scope span(&spans, "workflow.class_fingerprint");
    for (std::size_t i = begin; i < end; ++i) {
      digest ^= workflow::class_fingerprint(*specs[i]);
    }
    span.set_count(end - begin);
  }
  keep(digest);
}

bool probe_profile_cache(const WorkloadSpec& workload,
                         std::span<const service::Submission> stream,
                         SpanRecorder& spans, std::string& error) {
  // Distinct classes in first-seen stream order, bounded.
  std::vector<const workflow::WorkflowSpec*> classes;
  std::vector<const dag::DagSpec*> dag_classes;
  std::unordered_set<std::uint64_t> seen;
  std::unordered_set<const dag::DagSpec*> seen_dags;
  for (const service::Submission& submission : stream) {
    if (submission.dag != nullptr) {
      if (dag_classes.size() < kMaxDagClasses &&
          seen_dags.insert(submission.dag.get()).second) {
        dag_classes.push_back(submission.dag.get());
      }
    } else if (classes.size() < kMaxPairClasses &&
               seen.insert(workflow::class_fingerprint(submission.spec))
                   .second) {
      classes.push_back(&submission.spec);
    }
  }

  const core::Executor executor = make_executor();
  service::ProfileCache cache(std::max(workload.config.cache_capacity,
                                       classes.size()),
                              executor);
  for (const workflow::WorkflowSpec* spec : classes) {
    {
      SpanRecorder::Scope span(&spans, "service.profile_cache.characterize");
      auto profile = cache.characterize(*spec);
      if (!profile.has_value()) {
        error = profile.error().message;
        return false;
      }
      keep(*profile);
    }
    SpanRecorder::Scope span(&spans, "core.executor.sweep");
    auto sweep = executor.sweep(*spec);
    if (!sweep.has_value()) {
      error = sweep.error().message;
      return false;
    }
    keep(*sweep);
  }
  for (const dag::DagSpec* spec : dag_classes) {
    {
      SpanRecorder::Scope span(&spans,
                               "service.profile_cache.characterize_dag");
      auto profile = cache.characterize_dag(*spec);
      if (!profile.has_value()) {
        error = profile.error().message;
        return false;
      }
      keep(*profile);
    }
    SpanRecorder::Scope span(&spans, "dag.plan_fusion");
    auto plan = dag::plan_fusion(*spec, executor.runner().platform());
    keep(plan);
  }

  // Warm the cache with the sampled classes (misses, untimed), then
  // time the stream's lookups of those classes in stream order.
  for (const workflow::WorkflowSpec* spec : classes) {
    if (!cache.lookup(*spec).has_value()) {
      error = "profile cache warm-up failed";
      return false;
    }
  }
  std::vector<const workflow::WorkflowSpec*> lookups;
  for (const service::Submission& submission : stream) {
    if (lookups.size() == kMaxCalls) break;
    if (submission.dag == nullptr &&
        seen.contains(workflow::class_fingerprint(submission.spec))) {
      lookups.push_back(&submission.spec);
    }
  }
  const std::uint64_t misses_before = cache.stats().misses;
  for (std::size_t begin = 0; begin < lookups.size(); begin += kChunk) {
    const std::size_t end = std::min(lookups.size(), begin + kChunk);
    SpanRecorder::Scope span(&spans, "service.profile_cache.lookup");
    for (std::size_t i = begin; i < end; ++i) {
      auto profile = cache.lookup(*lookups[i]);
      keep(profile);
    }
    span.set_count(end - begin);
  }
  if (cache.stats().misses != misses_before) {
    error = "warm profile-cache lookups missed";
    return false;
  }
  return true;
}

void probe_event_queue(
    const std::vector<service::CompletionRecord>& completions,
    SpanRecorder& spans) {
  std::vector<const service::CompletionRecord*> by_arrival;
  by_arrival.reserve(completions.size());
  for (const service::CompletionRecord& record : completions) {
    by_arrival.push_back(&record);
  }
  std::stable_sort(by_arrival.begin(), by_arrival.end(),
                   [](const auto* a, const auto* b) {
                     return a->arrival_ns < b->arrival_ns;
                   });

  // Each completed submission contributes its arrival and its finish;
  // events due by an arrival fire before it is scheduled, as in the
  // service loop, so the heap holds the run's in-flight work.
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  auto fire = [&fired] { ++fired; };
  for (std::size_t begin = 0; begin < by_arrival.size(); begin += kChunk) {
    const std::size_t end = std::min(by_arrival.size(), begin + kChunk);
    SpanRecorder::Scope span(&spans, "sim.event_queue.schedule_pop");
    const std::uint64_t fired_before = fired;
    for (std::size_t i = begin; i < end; ++i) {
      const service::CompletionRecord& record = *by_arrival[i];
      while (!queue.empty() && queue.next_time() <= record.arrival_ns) {
        queue.pop().second();
      }
      queue.schedule(record.arrival_ns, fire);
      queue.schedule(record.finish_ns, fire);
    }
    if (end == by_arrival.size()) {
      while (!queue.empty()) queue.pop().second();
    }
    span.set_count(fired - fired_before);
  }
  keep(fired);
}

}  // namespace perfbench
