// Shared vocabulary of the online scheduling service.
//
// The service answers the paper's §X question ("how can these
// recommendations be practically incorporated in scheduling systems?")
// for the *online* case: WorkflowSpecs arrive over simulated time as
// Submissions, pass admission control, wait in a bounded priority
// queue, and are placed onto one node of a simulated PMEM fleet under a
// Table I configuration chosen by the placement policy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.hpp"
#include "devices/registry.hpp"
#include "interconnect/upi.hpp"
#include "pmemsim/params.hpp"
#include "workflow/model.hpp"

namespace pmemflow::dag {
struct DagSpec;
}  // namespace pmemflow::dag

namespace pmemflow::service {

/// Service classes, lowest to highest. Higher classes dispatch first;
/// within a class, dispatch is FIFO by arrival. Under queue pressure
/// (above the defer watermark) kBatch submissions are deferred before
/// anything is rejected.
enum class Priority : std::uint8_t { kBatch = 0, kNormal = 1, kUrgent = 2 };

[[nodiscard]] const char* to_string(Priority priority) noexcept;

/// One workflow submitted to the service.
struct Submission {
  /// Caller-assigned id; ties in (priority, arrival) dispatch order are
  /// broken by id, so ids must be unique for a deterministic schedule.
  std::uint64_t id = 0;
  workflow::WorkflowSpec spec;
  /// General DAG workflow (src/dag). Null for the classic pair case;
  /// when set, `spec` is ignored and the submission is characterized,
  /// placed, and priced by its spread and fused plans (plan_spread /
  /// plan_fusion). Shared so retries, checkpoints, and sharded-region
  /// migrations carry the spec without copying it.
  std::shared_ptr<const dag::DagSpec> dag;
  SimTime arrival_ns = 0;
  Priority priority = Priority::kNormal;
  /// Behavioural class key (service/class_key.hpp). Owned by the
  /// service: OnlineScheduler::run stamps it on its copy of the stream,
  /// overwriting whatever the caller set, and every profile, plan and
  /// interference lookup reads it instead of re-fingerprinting the spec.
  std::uint64_t class_fp = 0;
};

/// What admission control decided for one submission attempt.
enum class AdmissionVerdict : std::uint8_t {
  kAdmitted,  ///< Enqueued; will eventually dispatch.
  kDeferred,  ///< Queue above watermark; retry at `retry_after_ns`.
  kRejected,  ///< Queue full; retry at `retry_after_ns` (advisory).
};

[[nodiscard]] const char* to_string(AdmissionVerdict verdict) noexcept;

struct AdmissionDecision {
  AdmissionVerdict verdict = AdmissionVerdict::kAdmitted;
  /// For kDeferred/kRejected: how long after the attempt the client
  /// should wait before resubmitting (earliest time the fleet state can
  /// have changed). 0 for kAdmitted.
  SimDuration retry_after_ns = 0;
};

/// Whether an urgent arrival may displace running lower-priority work.
enum class PreemptionPolicy : std::uint8_t {
  kNone,               ///< Run-to-completion (PR 1 behaviour).
  kCheckpointRestore,  ///< Checkpoint the victim to PMEM, re-queue it,
                       ///< restore later (possibly on another node).
};

[[nodiscard]] const char* to_string(PreemptionPolicy policy) noexcept;

/// Memory hardware of one fleet node. A fleet may be heterogeneous:
/// ServiceConfig::node_specs gives one NodeSpec per node, and every
/// profile/interference lookup is then keyed by the node's device
/// fingerprint in addition to the workflow class — a profile measured
/// on optane-gen1 is never served for a dram-like node.
struct NodeSpec {
  /// Registry preset name the node was configured with (reporting only;
  /// `devices` is the resolved source of truth).
  std::string backend_name = "optane-gen1";
  devices::NodeDevices devices;
};

/// Cost model of checkpoint-based preemption, anchored in the same
/// calibrated device constants as the simulator: a checkpoint drains
/// the victim's in-flight channel state to node-local PMEM at the
/// device's interleaved write peak; a restore streams it back at the
/// read peak; migrating the snapshot to a different node crosses the
/// socket interconnect at its remote-write credit ceiling (the
/// sustained rate a cross-link PMEM write stream can achieve).
///
/// The rates are fleet-wide even on a heterogeneous fleet (they default
/// to the Optane constants): checkpoint traffic is a scheduler-owned
/// stream, and keeping its cost independent of which backend the victim
/// occupies keeps the preemption decision rule comparable across nodes.
struct CheckpointParams {
  /// Snapshot drain rate (bytes/ns): local PMEM interleaved write peak.
  Rate checkpoint_write_bw = pmemsim::OptaneParams{}.write_peak;
  /// Snapshot restore rate: local PMEM interleaved read peak.
  Rate restore_read_bw = pmemsim::OptaneParams{}.read_peak;
  /// Extra transfer leg when the victim resumes on a different node.
  Rate migration_bw = interconnect::UpiParams{}.remote_write_ceiling;
};

}  // namespace pmemflow::service
