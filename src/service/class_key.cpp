#include "service/class_key.hpp"

#include <array>
#include <bit>
#include <unordered_map>

#include "dag/spec.hpp"
#include "workflow/model.hpp"

namespace pmemflow::service {
namespace {

/// Everything workflow::class_fingerprint reads from a pair spec, with
/// the component models by address. Cost-override doubles compare by
/// bit pattern, exactly as the digest hashes them.
struct PairIdentity {
  const workflow::SimulationModel* simulation = nullptr;
  const workflow::AnalyticsModel* analytics = nullptr;
  std::uint32_t ranks = 0;
  std::uint32_t iterations = 0;
  std::uint32_t channel_capacity = 0;
  workflow::WorkflowSpec::Stack stack = workflow::WorkflowSpec::Stack::kNvStream;
  bool verify_reads = false;
  bool has_cost_override = false;
  std::array<std::uint64_t, 4> cost_bits{};

  explicit PairIdentity(const workflow::WorkflowSpec& spec)
      : simulation(spec.simulation.get()),
        analytics(spec.analytics.get()),
        ranks(spec.ranks),
        iterations(spec.iterations),
        channel_capacity(spec.channel_capacity),
        stack(spec.stack),
        verify_reads(spec.verify_reads),
        has_cost_override(spec.cost_override.has_value()) {
    if (has_cost_override) {
      const auto& cost = *spec.cost_override;
      cost_bits = {std::bit_cast<std::uint64_t>(cost.write_ns_per_op),
                   std::bit_cast<std::uint64_t>(cost.read_ns_per_op),
                   std::bit_cast<std::uint64_t>(cost.write_ns_per_byte),
                   std::bit_cast<std::uint64_t>(cost.read_ns_per_byte)};
    }
  }

  friend bool operator==(const PairIdentity&, const PairIdentity&) = default;
};

/// Multiply-xorshift mixing: the memo sees one probe per submission, so
/// the hash stays far cheaper than the digest it saves.
std::uint64_t mix(std::uint64_t hash, std::uint64_t value) noexcept {
  hash = (hash ^ value) * 0x9e3779b97f4a7c15ULL;
  return hash ^ (hash >> 29);
}

struct PairIdentityHash {
  std::size_t operator()(const PairIdentity& id) const noexcept {
    std::uint64_t hash = 0;
    hash = mix(hash, reinterpret_cast<std::uintptr_t>(id.simulation));
    hash = mix(hash, reinterpret_cast<std::uintptr_t>(id.analytics));
    hash = mix(hash, (std::uint64_t{id.ranks} << 32) | id.iterations);
    hash = mix(hash, (std::uint64_t{id.channel_capacity} << 8) |
                         (static_cast<std::uint64_t>(id.stack) << 2) |
                         (std::uint64_t{id.verify_reads} << 1) |
                         std::uint64_t{id.has_cost_override});
    for (std::uint64_t bits : id.cost_bits) hash = mix(hash, bits);
    return static_cast<std::size_t>(hash);
  }
};

}  // namespace

std::uint64_t class_key(const Submission& submission) {
  return submission.dag != nullptr ? dag::class_fingerprint(*submission.dag)
                                   : workflow::class_fingerprint(submission.spec);
}

std::size_t stamp_class_keys(std::span<Submission> submissions) {
  std::unordered_map<PairIdentity, std::uint64_t, PairIdentityHash> pairs;
  std::unordered_map<const dag::DagSpec*, std::uint64_t> dags;
  std::size_t digests = 0;
  for (Submission& submission : submissions) {
    std::uint64_t* memo = nullptr;
    bool fresh = false;
    if (submission.dag != nullptr) {
      auto [it, inserted] = dags.try_emplace(submission.dag.get(), 0);
      memo = &it->second;
      fresh = inserted;
    } else {
      auto [it, inserted] = pairs.try_emplace(PairIdentity(submission.spec), 0);
      memo = &it->second;
      fresh = inserted;
    }
    if (fresh) {
      *memo = class_key(submission);
      ++digests;
    }
    submission.class_fp = *memo;
  }
  return digests;
}

}  // namespace pmemflow::service
