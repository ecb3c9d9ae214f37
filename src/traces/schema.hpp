// The versioned on-disk workload-trace schema (tentpole of the trace
// subsystem).
//
// A trace is the service's exchange format for *recorded* workloads: a
// CSV file whose rows are submissions (arrival time, priority, a
// workflow-class reference, optional deadline) and whose first line is
// a version banner. It decouples policy experiments from the synthetic
// Poisson generator — pmemflowd can replay a recorded production
// stream, and any scheduler run can be written back out as a trace.
//
// A row references its workflow class one of four ways (resolution
// order at replay time):
//   1. `class_id`          — index into a WorkflowSpec pool supplied at
//                            replay time (the make_class_pool contract);
//   2. `class_fingerprint` — workflow::class_fingerprint digest, bound
//                            against the pool by fingerprint;
//   3. inline columns      — a self-contained synthetic class
//                            description (object size, ranks, compute,
//                            seed, model names) that reconstructs the
//                            WorkflowSpec, and its exact fingerprint,
//                            without any pool;
//   4. `dag_fingerprint`   — dag::class_fingerprint digest of a general
//                            DAG class, bound against the DAG pool
//                            supplied at replay time. Exclusive with
//                            the pair references above: a row carries a
//                            DAG class or a pair class, never both.
// When both a binding and a fingerprint are present the fingerprint is
// verified, so replaying a trace against the wrong pool is an error,
// never a silent class remap.
//
// The loader is strict (built on common/csv + common/expected): every
// malformed cell reports its input line, and serialization is
// canonical — load(serialize(t)) == t and serialize(load(text)) is
// byte-identical for canonical input, which the round-trip gate in
// `service_gates trace` enforces.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/units.hpp"
#include "service/types.hpp"

namespace pmemflow::traces {

/// Schema version this build reads and writes. The version banner is
/// the file's first line: "# pmemflow-trace v1".
inline constexpr std::uint32_t kTraceSchemaVersion = 1;

/// Self-contained synthetic workflow-class description carried in a
/// trace row (maps 1:1 onto workloads::make_synthetic_workflow inputs).
struct InlineClass {
  Bytes object_size = 0;
  std::uint64_t objects_per_rank = 0;
  /// Writer bulk compute per iteration per rank (ns).
  double sim_compute_ns = 0.0;
  /// Reader compute per object (ns).
  double analytics_compute_ns = 0.0;
  std::uint32_t ranks = 0;
  std::uint32_t iterations = 0;
  /// Payload-content seed; part of the class fingerprint, so it must
  /// round-trip for fingerprints to match.
  std::uint64_t sim_seed = 0;
  /// Model names; the behavioural digest samples them too.
  std::string sim_name;
  std::string ana_name;

  friend bool operator==(const InlineClass&, const InlineClass&) = default;
};

/// One recorded submission.
struct TraceRecord {
  std::uint64_t id = 0;
  SimTime arrival_ns = 0;
  service::Priority priority = service::Priority::kNormal;
  /// Completion deadline relative to arrival. Carried and validated for
  /// deadline-aware schedulers; the current OnlineScheduler ignores it.
  std::optional<SimDuration> deadline_ns;
  /// Job name; replay installs it as the spec label when non-empty.
  std::string label;
  std::optional<std::uint32_t> class_id;
  std::optional<std::uint64_t> class_fingerprint;
  std::optional<InlineClass> inline_class;
  /// General-DAG class reference (dag::class_fingerprint). Exclusive
  /// with every pair-class reference above.
  std::optional<std::uint64_t> dag_fingerprint;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

struct Trace {
  std::uint32_t version = kTraceSchemaVersion;
  std::vector<TraceRecord> records;

  friend bool operator==(const Trace&, const Trace&) = default;
};

/// Schema v1 column names, in file order.
[[nodiscard]] std::vector<std::string> trace_csv_header();

/// Parses a complete trace file (version banner + CSV). Strict: every
/// failure names the input line, and semantic checks (valid priority,
/// parseable numbers, at least one class reference per row) happen here
/// so downstream consumers never see a half-valid trace.
[[nodiscard]] Expected<Trace> parse_trace(std::string_view text);

/// Reads and parses the named file; errors are prefixed with the path.
[[nodiscard]] Expected<Trace> load_trace(const std::string& path);

/// Canonical serialization (version banner + CSV). Deterministic:
/// serialize(parse(serialize(t))) is byte-identical to serialize(t).
[[nodiscard]] std::string serialize_trace(const Trace& trace);

/// Writes the canonical serialization to the named file.
[[nodiscard]] Status write_trace(const Trace& trace,
                                 const std::string& path);

}  // namespace pmemflow::traces
