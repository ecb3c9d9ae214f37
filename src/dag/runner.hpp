// DAG workflow execution.
//
// dag::run lowers a component DAG onto workflow::Runner's job-graph
// engine, the same engine that replays pairs: one stage per component
// (its ranks pinned to the component's socket) and one channel edge
// per DAG edge. A component consumes version v from every in-edge
// (reader role: per-object interleaved compute), then produces version
// v on every out-edge (writer role: bulk compute folded into the first
// write), honoring per-edge capacity bounds and the DRAM staging tier.
//
// Placement is per component (socket pin) and per edge (which socket's
// PMEM holds the channel). Unlike a pair deployment, producer and
// consumer MAY share a socket: that is fusion — the edge between them
// becomes "ephemeral" (every access classifies local, no UPI leg),
// while cut edges pay the interconnect cost. A two-component chain
// placed on distinct sockets lowers to the same job as the equivalent
// pair, so it replays byte-identically (pinned by
// tests/dag/runner_test.cpp).
#pragma once

#include <utility>
#include <vector>

#include "capacity/staging.hpp"
#include "common/expected.hpp"
#include "dag/spec.hpp"
#include "topo/platform.hpp"
#include "trace/tracer.hpp"
#include "workflow/runner.hpp"

namespace pmemflow::dag {

/// How to deploy one DAG on a node.
struct DagRunOptions {
  /// Socket pin per component, indexed like DagSpec::components.
  std::vector<topo::SocketId> component_sockets;
  /// Channel-hosting socket per edge, indexed like DagSpec::edges; must
  /// equal the producer's or the consumer's socket.
  std::vector<topo::SocketId> edge_sockets;
  /// DRAM staging tier applied on every socket hosting a channel
  /// (disabled by default; RunOptions::staging semantics).
  capacity::StagingParams staging;
  trace::Tracer* tracer = nullptr;
};

/// Measured outcome of one DAG run.
struct DagRunResult {
  /// End-to-end runtime: time the last component rank finished.
  SimDuration total_ns = 0;
  /// Time the last version of the last edge committed (a pair's
  /// writer_span generalized over all producers).
  SimDuration producer_span_ns = 0;
  std::uint64_t objects_verified = 0;
  std::uint64_t verification_failures = 0;
  /// Per-edge channel stats, indexed like DagSpec::edges.
  std::vector<stack::ChannelStats> edges;
  /// Stats of every socket that hosted a channel, ascending socket id.
  std::vector<std::pair<topo::SocketId, sim::FlowResourceStats>> devices;
  /// Staging stats summed over the per-socket tiers (zero when off).
  capacity::StagingStats staging;
  /// Edges whose producer and consumer share a socket (fused).
  std::uint64_t ephemeral_edges = 0;
  std::uint64_t engine_events = 0;
};

/// Simulates one DAG deployment on `runner`'s platform and per-socket
/// memory backends. Fails with no side effects on invalid specs or
/// placements (unknown sockets, edge not local to an endpoint,
/// per-socket core demand exceeding cores_per_socket).
Expected<DagRunResult> run(const workflow::Runner& runner, const DagSpec& dag,
                           const DagRunOptions& options);

}  // namespace pmemflow::dag
