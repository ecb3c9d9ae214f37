// General DAG workflow specifications.
//
// The paper's workflows are writer+reader *pairs* over one PMEM
// channel. Real in situ pipelines are DAGs: simulation → filter →
// analytics fan-out, multi-stage reductions (SIM-SITU's model). A
// DagSpec generalizes workflow::WorkflowSpec into a component graph:
//
//   - each DagComponent has the compute/IO character of today's
//     writer/reader roles — bulk per-iteration compute on the producer
//     side, per-object interleaved compute on the consumer side — and
//     may fan in (several in-edges) and fan out (several out-edges);
//   - each DagEdge is one typed streaming channel (nvstream or nova,
//     optionally capacity-bounded) between a producer and a consumer
//     component with a 1:1 rank pairing (paper §IV-C), exactly like
//     the pair model's channel.
//
// Components are fully data-described (the traces InlineClass idiom):
// the part each rank writes per version is a deterministic function of
// (object_size, objects_per_rank, seed), which is what makes the strict
// serialize/parse round trip and the behavioural fingerprint possible.
// A two-component, one-edge DAG is exactly a pair workflow
// (to_pair_workflow): dag::run lowers it to the same two-stage job
// workflow::Runner builds for the pair, so the replays are
// byte-identical — pinned by tests/dag/runner_test.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/units.hpp"
#include "workflow/model.hpp"

namespace pmemflow::dag {

/// One pipeline stage. A component *produces* parts on its out-edges
/// (writer role: `compute_ns` of bulk compute per iteration, then one
/// part per rank per out-edge) and *consumes* parts from its in-edges
/// (reader role: `analytics_ns_per_object` interleaved per object
/// read). A source has only out-edges, a sink only in-edges; middle
/// stages do both each version.
struct DagComponent {
  /// Unique within the DAG; serialization-safe charset
  /// ([A-Za-z0-9._-]+, validated).
  std::string name;
  std::uint32_t ranks = 8;
  /// Shape of the part each rank produces per version (producer role).
  Bytes object_size = 1 * kMiB;
  std::uint64_t objects_per_rank = 16;
  /// Bulk compute per iteration per rank (ns), producer side.
  double compute_ns = 0.0;
  /// Interleaved compute per object read (ns), consumer side.
  double analytics_ns_per_object = 0.0;
  /// Payload-content seed; part of the behavioural fingerprint.
  std::uint64_t seed = 0x646167ULL;  // "dag"

  friend bool operator==(const DagComponent&,
                         const DagComponent&) = default;
};

/// One typed channel edge between two components.
struct DagEdge {
  std::string producer;
  std::string consumer;
  workflow::WorkflowSpec::Stack stack =
      workflow::WorkflowSpec::Stack::kNvStream;
  /// Max snapshot versions simultaneously live in this channel
  /// (0 = unbounded), exactly WorkflowSpec::channel_capacity.
  std::uint32_t capacity = 0;

  friend bool operator==(const DagEdge&, const DagEdge&) = default;
};

/// A complete DAG workflow.
struct DagSpec {
  /// Job name; excluded from class_fingerprint like the pair model's
  /// label (same charset restriction as component names).
  std::string label;
  std::uint32_t iterations = 10;
  std::vector<DagComponent> components;
  std::vector<DagEdge> edges;
  /// Verify every read back against the producer's generator.
  bool verify_reads = true;
};

/// Index of the named component, or nullopt.
[[nodiscard]] std::optional<std::size_t> component_index(
    const DagSpec& dag, std::string_view name);

/// Structural validation: non-empty unique serialization-safe names,
/// positive launch parameters, edges referencing existing components
/// with matching rank counts (1:1 pairing), no self/duplicate edges,
/// acyclicity, and weak connectivity (a multi-component DAG must be
/// one pipeline, not disjoint jobs).
[[nodiscard]] Status validate(const DagSpec& dag);

/// Payload bytes the DAG materializes across all edges in one
/// iteration (every rank of every producer writes one part per
/// out-edge) — the capacity-lease basis.
[[nodiscard]] Bytes bytes_per_iteration(const DagSpec& dag);

/// Stable behavioural digest over the *canonical* form (components
/// sorted by name, edges by (producer, consumer)), so two specs that
/// list the same graph in different field order fingerprint
/// identically. The label is excluded, like
/// workflow::class_fingerprint.
[[nodiscard]] std::uint64_t class_fingerprint(const DagSpec& dag);

/// class_fingerprint plus the label — full-identity hash.
[[nodiscard]] std::uint64_t hash_value(const DagSpec& dag);

/// Behavioural equality: same canonical graph and label.
[[nodiscard]] bool operator==(const DagSpec& a, const DagSpec& b);

/// Serializes to the versioned text format (strictly parseable):
///
///   # pmemflow-dag v1
///   dag label=<l> iterations=<u> verify_reads=<0|1>
///   component name=<n> ranks=<u> object_size=<u> objects_per_rank=<u>
///     compute_ns=<%.17g> analytics_ns_per_object=<%.17g> seed=<%016x>
///   edge producer=<n> consumer=<n> stack=<nvstream|nova> capacity=<u>
///
/// Components/edges are emitted in canonical order with canonical
/// number rendering, so serialize(parse(text)) == text for canonical
/// input and parse(serialize(dag)) == dag always.
[[nodiscard]] std::string serialize(const DagSpec& dag);

/// Strict parser: every malformed line (missing banner, unknown
/// directive, unknown/duplicate/missing key, bad value) is reported
/// with its line number, matching the v1 trace loader's strictness.
/// The parsed spec is validated before it is returned.
[[nodiscard]] Expected<DagSpec> parse(std::string_view text);

/// Loads and parses a .dag file; errors are prefixed with the path.
[[nodiscard]] Expected<DagSpec> load_dag(const std::string& path);

/// The pair workflow a two-component, one-edge chain DAG denotes:
/// synthetic component models built from the producer/consumer fields,
/// the edge's stack and capacity, the DAG's label, iterations, and
/// verify_reads. Errors for any other shape.
[[nodiscard]] Expected<workflow::WorkflowSpec> to_pair_workflow(
    const DagSpec& dag);

}  // namespace pmemflow::dag
