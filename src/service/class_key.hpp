// Behavioural class keys, computed once per submission per run.
//
// The profile cache, the interference table and the plan cache are all
// keyed on a submission's behavioural class fingerprint
// (workflow::class_fingerprint or dag::class_fingerprint). A pair digest
// probes both component models for every rank over three iterations, so
// recomputing it on every lookup dominated the service's host time.
// OnlineScheduler::run instead stamps Submission::class_fp once, while it
// copies the stream, and every cache reads the stamped value.
//
// Stamping memoizes the digest on spec identity for the duration of one
// call, so a stream of N submissions over K classes costs K digests:
//   - a pair by its two model pointers plus every launch parameter the
//     digest reads (ranks, iterations, stack, channel capacity,
//     verify_reads, cost override);
//   - a DAG by its DagSpec pointer.
// Pointer identity is sound because models and DAG specs are immutable
// (held through shared_ptr<const ...>, deterministic by contract) and the
// stream being stamped keeps every one of them alive, so no address can
// be reused for a different object while the memo exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "service/types.hpp"

namespace pmemflow::service {

/// The behavioural class key of one submission, computed from scratch:
/// dag::class_fingerprint for a DAG submission, otherwise
/// workflow::class_fingerprint of its pair spec.
[[nodiscard]] std::uint64_t class_key(const Submission& submission);

/// Overwrites every submission's `class_fp` with class_key(), computing
/// one digest per distinct spec identity (see above). Returns the number
/// of digests computed.
std::size_t stamp_class_keys(std::span<Submission> submissions);

}  // namespace pmemflow::service
