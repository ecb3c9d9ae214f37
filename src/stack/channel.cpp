#include "stack/channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace pmemflow::stack {

namespace {

/// One fluid flow covering a whole part, with the per-op software
/// overhead and interleaved caller compute folded in.
sim::FlowSpec part_flow(sim::IoKind kind, const SoftwareCostModel& costs,
                        Bytes total, std::uint64_t objects,
                        double compute_ns_per_op) {
  const Bytes op_size =
      std::max<Bytes>(1, total / std::max<std::uint64_t>(1, objects));
  sim::FlowSpec spec;
  spec.kind = kind;
  spec.total_bytes = total;
  spec.op_size = op_size;
  spec.sw_ns_per_op = kind == sim::IoKind::kWrite
                          ? costs.write_op_cost(op_size)
                          : costs.read_op_cost(op_size);
  spec.compute_ns_per_op = compute_ns_per_op;
  return spec;
}

}  // namespace

std::uint64_t SyntheticRun::combined_checksum() const {
  // O(1) by design: every object of a synthetic run derives from the
  // descriptor, so descriptor integrity == content integrity. (A
  // per-object loop here would dominate bench wall time for the
  // half-million-object snapshots of the 2 KB workloads.)
  Hasher64 hasher;
  hasher.update_u64(0x73796e746872756eULL);  // domain separator
  hasher.update_u64(first_index);
  hasher.update_u64(count);
  hasher.update_u64(object_size);
  hasher.update_u64(base_seed);
  return hasher.digest();
}

Bytes part_bytes(const SnapshotPart& part) {
  if (const auto* run = std::get_if<SyntheticRun>(&part)) {
    return run->total_bytes();
  }
  const auto& objects = std::get<std::vector<ObjectData>>(part);
  Bytes total = 0;
  for (const ObjectData& object : objects) total += object.payload.size();
  return total;
}

std::uint64_t part_object_count(const SnapshotPart& part) {
  if (const auto* run = std::get_if<SyntheticRun>(&part)) {
    return run->count;
  }
  return std::get<std::vector<ObjectData>>(part).size();
}

Bytes part_op_size(const SnapshotPart& part) {
  const std::uint64_t count = part_object_count(part);
  if (count == 0) return 1;
  const Bytes total = part_bytes(part);
  return std::max<Bytes>(1, total / count);
}

StreamChannel::StreamChannel(devices::MemoryDevice& device, std::string name,
                             std::uint32_t num_ranks, SoftwareCostModel costs,
                             const char* stack)
    : device_(device),
      name_(std::move(name)),
      num_ranks_(num_ranks),
      costs_(costs),
      stack_(stack) {
  PMEMFLOW_ASSERT_MSG(num_ranks_ >= 1, "need at least one rank");
}

sim::Task StreamChannel::write_part(topo::SocketId from,
                                    std::uint64_t version,
                                    std::uint32_t rank, SnapshotPart part,
                                    double compute_ns_per_op) {
  PMEMFLOW_ASSERT(rank < num_ranks_);
  PMEMFLOW_ASSERT_MSG(version > committed_version_,
                      "writing to an already committed version");
  const Bytes total = part_bytes(part);
  const std::uint64_t object_count = part_object_count(part);
  if (total > 0) {
    co_await device_.io(from, part_flow(sim::IoKind::kWrite, costs_, total,
                                        object_count, compute_ns_per_op));
  }

  // Functional persist (visible at the flow's completion instant).
  std::vector<PartEntry> entries;
  std::span<const ObjectData> objects;
  if (const auto* run = std::get_if<SyntheticRun>(&part)) {
    entries.push_back({.synthetic = true,
                       .is_run = true,
                       .first_index = run->first_index,
                       .count = run->count,
                       .object_size = run->object_size,
                       .seed = run->base_seed,
                       .checksum = run->combined_checksum()});
  } else {
    objects = std::get<std::vector<ObjectData>>(part);
    entries.reserve(objects.size());
    for (const ObjectData& object : objects) {
      entries.push_back({.synthetic = object.payload.is_synthetic(),
                         .first_index = object.index,
                         .count = 1,
                         .object_size = object.payload.size(),
                         .seed = object.payload.seed(),
                         .checksum = object.payload.checksum()});
    }
  }
  store_part(version, rank, entries, objects);

  stats_.objects_written += object_count;
  stats_.payload_bytes_written += total;
}

void StreamChannel::commit_version(std::uint64_t version) {
  PMEMFLOW_ASSERT_MSG(version == committed_version_ + 1,
                      "versions must be committed in order");
  committed_version_ = version;
  persist_versions();
  ++stats_.versions_committed;
}

sim::Task StreamChannel::read_part(topo::SocketId from, std::uint64_t version,
                                   std::uint32_t rank, SnapshotPart& out,
                                   double compute_ns_per_op) {
  PMEMFLOW_ASSERT(rank < num_ranks_);
  if (version > committed_version_) {
    throw std::runtime_error(
        format("%s: version %llu not committed", stack_,
               static_cast<unsigned long long>(version)));
  }
  if (version < min_live_version_) {
    throw std::runtime_error(
        format("%s: version %llu already recycled", stack_,
               static_cast<unsigned long long>(version)));
  }

  // Load the entries first (cheap metadata) to size the transfer.
  const std::vector<PartEntry> entries = load_part(version, rank);
  Bytes total = 0;
  std::uint64_t object_count = 0;
  for (const PartEntry& entry : entries) {
    total += entry.payload_bytes();
    object_count += entry.count;
  }
  if (total > 0) {
    co_await device_.io(from, part_flow(sim::IoKind::kRead, costs_, total,
                                        object_count, compute_ns_per_op));
  }

  // Functional load + verification.
  if (entries.size() > 1 &&
      std::any_of(entries.begin(), entries.end(),
                  [](const PartEntry& entry) { return entry.is_run; })) {
    throw std::runtime_error(
        format("%s: mixed run/object parts are not supported", stack_));
  }
  if (entries.size() == 1 && entries[0].is_run) {
    const PartEntry& entry = entries[0];
    const SyntheticRun run{.first_index = entry.first_index,
                           .count = entry.count,
                           .object_size = entry.object_size,
                           .base_seed = entry.seed};
    if (run.combined_checksum() != entry.checksum) {
      ++stats_.checksum_failures;
      throw std::runtime_error(
          format("%s: synthetic run checksum mismatch", stack_));
    }
    out = run;
  } else {
    std::vector<ObjectData> objects;
    objects.reserve(entries.size());
    for (const PartEntry& entry : entries) {
      ObjectData object;
      object.index = entry.first_index;
      if (entry.synthetic) {
        object.payload = Payload::synthetic(entry.seed, entry.object_size);
      } else {
        std::vector<std::byte> bytes(
            static_cast<std::size_t>(entry.object_size));
        read_payload(version, rank, entry, bytes);
        object.payload = Payload::real(std::move(bytes));
      }
      if (object.payload.checksum() != entry.checksum) {
        ++stats_.checksum_failures;
        throw std::runtime_error(
            format("%s: object %llu checksum mismatch", stack_,
                   static_cast<unsigned long long>(entry.first_index)));
      }
      objects.push_back(std::move(object));
    }
    out = std::move(objects);
  }

  stats_.objects_read += object_count;
  stats_.payload_bytes_read += total;
}

void StreamChannel::recycle_version(std::uint64_t version) {
  PMEMFLOW_ASSERT_MSG(version == min_live_version_,
                      "versions must be recycled in order");
  PMEMFLOW_ASSERT_MSG(version <= committed_version_,
                      "cannot recycle an uncommitted version");
  release_version(version);
  ++min_live_version_;
  persist_versions();
  ++stats_.versions_recycled;
}

SoftwareCostModel nvstream_cost_model() {
  SoftwareCostModel costs;
  // Per-object put cost: version-log append, index insert, allocation.
  // Calibrated (tools/calibrate) so the 2 KB workloads reproduce the
  // paper's "high software overhead, bandwidth not saturated" regime.
  costs.write_ns_per_op = 6155.0;
  costs.read_ns_per_op = 5795.0;   // index lookup + record decode + copy
  costs.write_ns_per_byte = 0.004; // non-temporal store issue overhead
  costs.read_ns_per_byte = 0.004;
  return costs;
}

SoftwareCostModel nova_cost_model() {
  SoftwareCostModel costs;
  costs.write_ns_per_op = 10500.0; // syscall + journal + inode-log append
  costs.read_ns_per_op = 7800.0;   // syscall + extent lookup (DAX read)
  costs.write_ns_per_byte = 0.012; // copy path through the kernel
  costs.read_ns_per_byte = 0.006;
  return costs;
}

}  // namespace pmemflow::stack
