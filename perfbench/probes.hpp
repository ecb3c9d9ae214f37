// Layer probes of the traced run.
//
// Each probe calls one layer's public functions from outside the
// program, fed with the workload's own inputs, under a span per call
// (or per chunk of calls, for calls too short to time one by one). The
// probes never touch the replay the end-to-end metrics came from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// `workflow::class_fingerprint` over the stream's pair specs, in
/// stream order ("workflow.class_fingerprint" spans, one per chunk;
/// at most 200 000 calls, as for the warm lookups below).
void probe_class_fingerprint(
    std::span<const pmemflow::service::Submission> stream,
    SpanRecorder& spans);

/// Cold characterization and the warm lookup path of one ProfileCache
/// built like the workload's: per distinct class (the first 96 in
/// stream order), "service.profile_cache.characterize" (fresh,
/// uncached) and "core.executor.sweep"; per distinct DAG class (the
/// first 16),
/// "service.profile_cache.characterize_dag" and "dag.plan_fusion"; then
/// the stream's pair lookups in order against the warmed cache
/// ("service.profile_cache.lookup", chunked; every one a hit).
[[nodiscard]] bool probe_profile_cache(
    const WorkloadSpec& workload,
    std::span<const pmemflow::service::Submission> stream,
    SpanRecorder& spans, std::string& error);

/// sim::EventQueue schedule+pop replaying the run's arrival and finish
/// times in the order a discrete-event loop meets them
/// ("sim.event_queue.schedule_pop", chunked; count = schedule+pop
/// pairs).
void probe_event_queue(
    const std::vector<pmemflow::service::CompletionRecord>& completions,
    SpanRecorder& spans);

}  // namespace perfbench
