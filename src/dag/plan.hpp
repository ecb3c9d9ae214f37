// Fusion-style DAG placement search.
//
// The MLSys subgraph-fusion idiom applied to sockets: a placement that
// co-locates a producer→consumer stage pair on one socket makes the
// edge between them *ephemeral* — every channel access classifies
// local, no UPI leg — while *cut* edges pay the interconnect cost. The
// paper's Table II bandwidth anchors (local read/write peaks, the
// remote-write ceiling, the mild remote-read degradation) become the
// per-edge cost model, and the planner searches socket groupings to
// minimize total boundary traffic time subject to per-socket core
// capacity.
//
// Two planners:
//   - plan_spread: the pre-DAG baseline — alternate sockets by
//     pipeline depth, channel on the consumer's socket (the P-LocR
//     recommendation). A two-component chain spreads exactly like
//     today's pair deployment.
//   - plan_fusion: exhaustive grouping search (greedy descent when the
//     assignment space is large), deterministic: assignments are
//     enumerated in a fixed order and ties keep the earliest.
//
// A FusionPlan turns into DagRunOptions for dag::run, which replays the
// placed DAG on workflow::Runner's job-graph engine.
#pragma once

#include <vector>

#include "common/expected.hpp"
#include "dag/runner.hpp"
#include "dag/spec.hpp"
#include "interconnect/upi.hpp"
#include "pmemsim/params.hpp"
#include "topo/platform.hpp"

namespace pmemflow::dag {

/// Per-edge transfer-rate anchors of the placement cost model
/// (bytes/ns). Defaults derive from the paper's measurements: Optane
/// local peaks, the UPI remote-write credit ceiling, and remote reads
/// capped by the link after the 1.3x degradation.
struct PlanParams {
  Rate local_write_bw = pmemsim::OptaneParams{}.write_peak;
  Rate local_read_bw = pmemsim::OptaneParams{}.read_peak;
  Rate remote_write_bw = interconnect::UpiParams{}.remote_write_ceiling;
  Rate remote_read_bw = interconnect::UpiParams{}.link_bandwidth;
};

/// A concrete placement for one DAG on one node.
struct FusionPlan {
  /// Socket per component, indexed like DagSpec::components.
  std::vector<topo::SocketId> component_sockets;
  /// Channel socket per edge, indexed like DagSpec::edges.
  std::vector<topo::SocketId> edge_sockets;
  /// Edges whose endpoints share a socket under this plan.
  std::uint64_t ephemeral_edges = 0;
  /// Socket carrying the most channel bytes per iteration — where the
  /// capacity lease should be charged.
  topo::SocketId lease_socket = 0;
  /// The search objective: estimated total edge transfer time over the
  /// whole run (ns). A ranking signal, not a runtime prediction.
  double estimated_cost_ns = 0.0;

  /// Runner options for this plan (staging/tracer left at defaults for
  /// the caller to fill in).
  [[nodiscard]] DagRunOptions run_options() const {
    DagRunOptions options;
    options.component_sockets = component_sockets;
    options.edge_sockets = edge_sockets;
    return options;
  }
};

/// Baseline spread placement (alternating sockets by pipeline depth,
/// consumer-local channels). Errors when some socket's rank demand
/// exceeds cores_per_socket — the DAG does not fit this node shape.
[[nodiscard]] Expected<FusionPlan> plan_spread(
    const DagSpec& dag, const topo::PlatformSpec& platform);

/// Fusion grouping search: minimizes the summed Table II edge cost over
/// all core-feasible socket assignments; each cut edge's channel lands
/// on whichever endpoint socket is cheaper (consumer on ties).
/// Deterministic. Errors when no feasible assignment exists.
[[nodiscard]] Expected<FusionPlan> plan_fusion(
    const DagSpec& dag, const topo::PlatformSpec& platform,
    const PlanParams& params = {});

}  // namespace pmemflow::dag
