// Workflow execution engine.
//
// One discrete-event replay engine runs every deployment. It takes
// *jobs*: graphs of stages (one coroutine per rank, pinned to a socket)
// joined by streaming-channel edges, each channel on one socket's
// memory device. Each version a stage consumes every in-edge (its
// AnalyticsModel interleaves per-object compute with the reads), then
// produces every out-edge (its SimulationModel's bulk compute precedes
// the writes). Several jobs may share one run: their channels land on
// the same per-socket devices and contend for them.
//
// Two front ends lower onto it:
//   - run() / run_colocated() turn each workflow Deployment into a
//     two-stage job, simulation -> analytics over one channel, under
//     the execution mode and placement of Table I (the taxonomy itself
//     lives in core/config.hpp);
//   - dag::run (dag/runner.hpp) turns a component DAG into a job with
//     one stage per component and one edge per DAG edge.
//
// Mode semantics (paper §II-A):
//   serial:   analytics ranks start only after the simulation has
//             finished all iterations; PMEM accesses never overlap.
//   parallel: analytics consumes snapshot v as soon as it commits, so
//             reads overlap the simulation's compute and writes.
//
// Co-located deployments (multiple workflows sharing the node at once,
// the multi-tenancy setting the paper's §II-A motivates) are several
// jobs in one run; cross-workflow contention emerges from the shared
// device models.
//
// Every run verifies data end-to-end when asked: readers check what
// they decode against what the producing model says was written.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "capacity/lifecycle.hpp"
#include "capacity/staging.hpp"
#include "common/expected.hpp"
#include "devices/registry.hpp"
#include "topo/platform.hpp"
#include "trace/tracer.hpp"
#include "workflow/model.hpp"

namespace pmemflow::workflow {

/// How to deploy one workflow.
struct RunOptions {
  /// Serial (true) or parallel (false) execution mode.
  bool serial = false;
  /// Socket the simulation's ranks are pinned to.
  topo::SocketId writer_socket = 0;
  /// Socket the analytics' ranks are pinned to (must differ).
  topo::SocketId reader_socket = 1;
  /// Socket whose PMEM holds the streaming channel: equal to
  /// writer_socket for local-write placement, reader_socket for
  /// local-read placement.
  topo::SocketId channel_socket = 0;

  /// DRAM staging tier on the channel socket. Disabled by default:
  /// writes go straight to the device exactly as before. When enabled,
  /// writer ranks land their parts in the stage at DRAM rate
  /// (throttling to the drain rate once it fills) and a background
  /// drain performs the real device write; a version commits only
  /// after every rank's drain completes.
  capacity::StagingParams staging;
  /// nvstream version retention + GC. Disabled by default: a version
  /// recycles the moment its readers finish, exactly as before. When
  /// enabled, the k most recent read versions stay live and GC
  /// recycles version v-k after v is read, charging the rewrite as a
  /// background device write flow; the final k versions are never
  /// recycled and remain resident at the end of the run.
  capacity::RetentionParams retention;

  /// Optional execution tracer: records per-rank compute / write /
  /// wait / read spans against the simulated clock (Chrome trace
  /// exportable). Must outlive the run() call.
  trace::Tracer* tracer = nullptr;
};

/// One workflow plus its deployment, for co-located runs.
struct Deployment {
  WorkflowSpec spec;
  RunOptions options;
};

/// Measured outcome of one workflow's run.
struct RunResult {
  /// End-to-end workflow runtime (the paper's primary metric).
  SimDuration total_ns = 0;
  /// Time at which the last writer rank finished its final iteration.
  SimDuration writer_span_ns = 0;
  /// total - writer span; in serial mode this is the reader phase of
  /// the split bar graphs (Fig 4-9).
  [[nodiscard]] SimDuration reader_span_ns() const noexcept {
    return total_ns - writer_span_ns;
  }

  std::uint64_t objects_verified = 0;
  std::uint64_t verification_failures = 0;
  stack::ChannelStats channel;
  /// Stats of the channel's device. Under co-location the device is
  /// shared, so these aggregate all tenants' traffic on that socket.
  sim::FlowResourceStats device;
  /// Staging-tier stats of the channel socket (all zero when staging
  /// is disabled; aggregated across tenants sharing the socket).
  capacity::StagingStats staging;
  /// Bytes retention GC reclaimed and rewrote during the run (0 when
  /// retention is disabled).
  Bytes gc_bytes = 0;
  /// Channel bytes still live when the run ended: the retained
  /// versions retention never recycled — the cold residue a
  /// capacity-aware service must evict or collect.
  Bytes resident_bytes = 0;
  std::uint64_t engine_events = 0;
};

/// Outcome of a co-located run.
struct ColocatedResult {
  /// Per-deployment results, in input order.
  std::vector<RunResult> workflows;
  /// Time the last workflow finished (all start at t = 0).
  SimDuration makespan_ns = 0;
};

/// One stage of a job: `ranks` ranks pinned to `socket`.
struct JobStage {
  /// Tracer track prefix; rank R records on "<name>/rank<R>".
  std::string name;
  std::uint32_t ranks = 1;
  topo::SocketId socket = 0;
  /// Drives the out-edges: the part each rank writes per version and
  /// the bulk compute preceding the writes. Null for a sink.
  const SimulationModel* simulation = nullptr;
  /// Drives the in-edges: compute interleaved per object read. Null
  /// for a source.
  const AnalyticsModel* analytics = nullptr;
};

/// One streaming channel from a producer stage to a consumer stage,
/// rank r of one paired with rank r of the other.
struct JobEdge {
  /// Indices into Job::stages.
  std::size_t producer = 0;
  std::size_t consumer = 0;
  /// Socket whose memory device holds the channel.
  topo::SocketId socket = 0;
  WorkflowSpec::Stack stack = WorkflowSpec::Stack::kNvStream;
  /// Per-op software cost; the stack's default when empty.
  std::optional<stack::SoftwareCostModel> cost;
  /// Versions simultaneously live in the channel (0 = unbounded).
  std::uint32_t capacity = 0;
  /// Channel name.
  std::string channel;
  /// Tracer track of the edge's commit markers.
  std::string track;
};

/// A job graph and how to replay it.
struct Job {
  std::vector<JobStage> stages;
  std::vector<JobEdge> edges;
  std::uint32_t iterations = 1;
  bool verify_reads = true;
  /// Consumer ranks start only once their in-edges have committed
  /// every version.
  bool serial = false;
  /// DRAM staging tier on every socket holding one of the job's
  /// channels (RunOptions::staging semantics; the first job to ask
  /// for a socket's tier sets its parameters, later ones share it).
  capacity::StagingParams staging;
  /// Version retention + GC on every edge (RunOptions::retention).
  capacity::RetentionParams retention;
  trace::Tracer* tracer = nullptr;
};

/// Measured outcome of one job.
struct JobResult {
  /// Time the last rank finished.
  SimDuration total_ns = 0;
  /// Time the last edge committed its final version.
  SimDuration producer_span_ns = 0;
  std::uint64_t objects_verified = 0;
  std::uint64_t verification_failures = 0;
  Bytes gc_bytes = 0;
  /// Per-edge channel stats, indexed like Job::edges.
  std::vector<stack::ChannelStats> edges;
};

/// Measured outcome of one run of jobs.
struct JobsResult {
  /// Per-job results, in input order.
  std::vector<JobResult> jobs;
  /// Stats of every socket's device that held a channel (shared by
  /// all jobs with a channel there).
  std::map<topo::SocketId, sim::FlowResourceStats> devices;
  /// Stats of every socket's staging tier.
  std::map<topo::SocketId, capacity::StagingStats> staging;
  std::uint64_t engine_events = 0;
};

/// Reusable run harness; owns only immutable configuration, so one
/// Runner can execute many workflows/configurations sequentially.
class Runner {
 public:
  /// Primary form: per-socket memory backends come from `devices`,
  /// further overridden by any `platform.socket_backends` preset names
  /// (resolved against the builtin DeviceRegistry; an unknown name is
  /// reported by the next run, not asserted here).
  explicit Runner(topo::PlatformSpec platform = {},
                  devices::NodeDevices devices = {});

  /// Legacy form: Optane on every socket with these timing parameters.
  Runner(topo::PlatformSpec platform, pmemsim::OptaneParams optane,
         interconnect::UpiParams upi = {});

  /// Simulates one workflow deployment. Fails (no side effects) on
  /// invalid deployments: same-socket components, rank counts exceeding
  /// per-socket cores, or unknown sockets.
  Expected<RunResult> run(const WorkflowSpec& spec,
                          const RunOptions& options) const;

  /// Simulates several workflows sharing the node simultaneously. Core
  /// demands are validated jointly (each component needs its ranks'
  /// worth of cores on its socket); channels land on the per-socket
  /// devices, so tenants contend for PMEM exactly as the paper's
  /// multi-tenancy discussion describes.
  Expected<ColocatedResult> run_colocated(
      std::span<const Deployment> deployments) const;

  /// Replays `jobs` together on one DES: the engine behind run(),
  /// run_colocated() and dag::run. Each front end validates its own
  /// placement rules; this checks only the joint core demand (every
  /// stage needs its ranks' worth of cores on its socket).
  Expected<JobsResult> run_jobs(std::span<const Job> jobs) const;

  [[nodiscard]] const topo::PlatformSpec& platform() const noexcept {
    return platform_;
  }
  /// The node's per-socket memory backends.
  [[nodiscard]] const devices::NodeDevices& devices() const noexcept {
    return devices_;
  }

  /// Applies to the rate allocators of every device the next runs
  /// instantiate (devices are per-run, so this takes effect on the
  /// following run of any front end). Default on.
  void set_allocator_memoization(bool enabled) noexcept {
    allocator_memoization_ = enabled;
  }
  [[nodiscard]] bool allocator_memoization() const noexcept {
    return allocator_memoization_;
  }

  /// Allocator counters summed over every device of every run this
  /// Runner has executed so far (observational only; the devices
  /// themselves are torn down at the end of each run).
  [[nodiscard]] const pmemsim::AllocatorCounters& allocator_counters()
      const noexcept {
    return allocator_counters_;
  }
  void reset_allocator_counters() noexcept {
    allocator_counters_ = pmemsim::AllocatorCounters{};
  }

 private:
  topo::PlatformSpec platform_;
  devices::NodeDevices devices_;
  bool allocator_memoization_ = true;
  /// Accumulated from each run's short-lived devices; mutable because
  /// the runs are const (they don't change configuration).
  mutable pmemsim::AllocatorCounters allocator_counters_;
  /// Non-empty when `platform.socket_backends` failed to resolve; every
  /// run reports it as a recoverable error.
  std::string backend_error_;
};

}  // namespace pmemflow::workflow
