// Streaming-I/O channel abstraction.
//
// A StreamChannel is the PMEM-resident transport between the simulation
// (writer) and analytics (reader) components of one workflow: a stream
// of versioned snapshots, each contributed to by every writer rank and
// consumed by the paired reader rank (1:1 exchange, as in the paper's
// suite, §IV-C).
//
// StreamChannel implements the streaming protocol once: version checks,
// one fluid flow per part, part encoding into PartEntry records, and
// rebuild plus checksum verification on read. Each software stack of
// the paper (§V) implements only its persistence, where entries and
// payloads live:
//   - NvStreamChannel: a userspace log-structured versioned object
//     store (NVStream [1]);
//   - NovaChannel: files on a NOVA-like log-structured PMEM filesystem,
//     paying per-op syscall and journaling costs.
//
// Channel methods both (a) move real bytes through the simulated PMEM
// space and (b) charge simulated device/software time via the owning
// MemoryDevice, whose locality model classifies `from_socket`.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/expected.hpp"
#include "devices/memory_device.hpp"
#include "sim/task.hpp"
#include "stack/payload.hpp"
#include "topo/platform.hpp"

namespace pmemflow::stack {

/// A dense run of `count` equally sized synthetic objects. Object
/// `first_index + i` has seed `object_seed(first_index + i)`. Bulk
/// workloads (e.g. miniAMR's 528 K objects per snapshot) are described
/// by runs instead of half-million-entry vectors.
struct SyntheticRun {
  std::uint64_t first_index = 0;
  std::uint64_t count = 0;
  Bytes object_size = 0;
  std::uint64_t base_seed = 0;

  [[nodiscard]] Bytes total_bytes() const noexcept {
    return count * object_size;
  }
  /// Seed of the object at absolute index `index`.
  [[nodiscard]] std::uint64_t object_seed(std::uint64_t index) const {
    return derive_seed(base_seed, index);
  }
  /// Order-sensitive combination of every object's synthetic checksum;
  /// this is what gets persisted and verified on read.
  [[nodiscard]] std::uint64_t combined_checksum() const;

  friend bool operator==(const SyntheticRun&, const SyntheticRun&) = default;
};

/// What one rank contributes to one snapshot: either explicit objects
/// (real payload bytes, stored verbatim) or a synthetic bulk run.
using SnapshotPart = std::variant<std::vector<ObjectData>, SyntheticRun>;

/// Total payload bytes of a part.
[[nodiscard]] Bytes part_bytes(const SnapshotPart& part);

/// Number of application-level objects in a part.
[[nodiscard]] std::uint64_t part_object_count(const SnapshotPart& part);

/// Representative per-op granularity of a part (uniform size for runs,
/// mean size for explicit lists; never 0 for nonempty parts).
[[nodiscard]] Bytes part_op_size(const SnapshotPart& part);

/// Per-operation software costs of a storage stack. These run on the
/// issuing core — off-device — and therefore lower the *effective*
/// device concurrency (paper §VIII: "High software stack I/O overheads
/// lower PMEM contention").
struct SoftwareCostModel {
  /// Fixed CPU cost to issue one object write (metadata bookkeeping,
  /// and for filesystems the user->kernel crossing + journal append).
  double write_ns_per_op = 0.0;
  /// Fixed CPU cost to issue one object read.
  double read_ns_per_op = 0.0;
  /// CPU cost per payload byte written (index maintenance, copy path).
  double write_ns_per_byte = 0.0;
  /// CPU cost per payload byte read.
  double read_ns_per_byte = 0.0;

  [[nodiscard]] double write_op_cost(Bytes op_size) const noexcept {
    return write_ns_per_op +
           write_ns_per_byte * static_cast<double>(op_size);
  }
  [[nodiscard]] double read_op_cost(Bytes op_size) const noexcept {
    return read_ns_per_op + read_ns_per_byte * static_cast<double>(op_size);
  }

  friend bool operator==(const SoftwareCostModel&,
                         const SoftwareCostModel&) = default;
};

/// Cumulative functional statistics for a channel.
struct ChannelStats {
  std::uint64_t objects_written = 0;
  std::uint64_t objects_read = 0;
  Bytes payload_bytes_written = 0;
  Bytes payload_bytes_read = 0;
  std::uint64_t versions_committed = 0;
  std::uint64_t versions_recycled = 0;
  std::uint64_t checksum_failures = 0;
  /// Bytes returned to the space allocator by recycling (payload +
  /// record extents); the capacity model's per-channel GC yield.
  Bytes bytes_reclaimed = 0;
};

/// What a stack persists for one explicit object or one synthetic run
/// of a part: enough to size the read flow, rebuild the part and verify
/// it.
struct PartEntry {
  bool synthetic = false;
  /// True when the entry describes a SyntheticRun (its checksum is the
  /// run's combined checksum, not a per-object one) -- a run of count 1
  /// is still a run.
  bool is_run = false;
  std::uint64_t first_index = 0;
  std::uint64_t count = 0;
  Bytes object_size = 0;
  std::uint64_t seed = 0;
  std::uint64_t checksum = 0;
  /// Where the stack placed the payload (NVStream: a space offset;
  /// NOVA: an offset within the part's data file).
  std::uint64_t payload_offset = 0;

  [[nodiscard]] Bytes payload_bytes() const noexcept {
    return count * object_size;
  }
  /// The on-media flags word both stacks store.
  [[nodiscard]] std::uint32_t flags() const noexcept {
    return (synthetic ? 1u : 0u) | (is_run ? 2u : 0u);
  }
  void set_flags(std::uint32_t flags) noexcept {
    synthetic = (flags & 1u) != 0;
    is_run = (flags & 2u) != 0;
  }
};

class StreamChannel {
 public:
  virtual ~StreamChannel() = default;
  StreamChannel(const StreamChannel&) = delete;
  StreamChannel& operator=(const StreamChannel&) = delete;

  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] const SoftwareCostModel& cost_model() const noexcept {
    return costs_;
  }
  [[nodiscard]] devices::MemoryDevice& device() const noexcept {
    return device_;
  }
  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t num_ranks() const noexcept {
    return num_ranks_;
  }

  /// Writes one rank's part of snapshot `version`. Charges simulated
  /// time (software overhead + device transfer, plus
  /// `compute_ns_per_op` of caller compute interleaved between ops) and
  /// stores the part durably in the channel's PMEM space.
  sim::Task write_part(topo::SocketId from, std::uint64_t version,
                       std::uint32_t rank, SnapshotPart part,
                       double compute_ns_per_op);

  /// Marks `version` durable once every rank has written it (the
  /// workflow runner calls this after its writer barrier).
  void commit_version(std::uint64_t version);

  /// Latest committed version (0 = none).
  [[nodiscard]] std::uint64_t committed_version() const noexcept {
    return committed_version_;
  }

  /// Reads back the part one rank wrote for `version`, verifying stored
  /// checksums (throws std::runtime_error on corruption). Charges
  /// simulated time symmetrically to write_part.
  sim::Task read_part(topo::SocketId from, std::uint64_t version,
                      std::uint32_t rank, SnapshotPart& out,
                      double compute_ns_per_op);

  /// Releases the storage of a fully consumed version (streaming
  /// truncation). Reading a recycled version afterwards throws.
  void recycle_version(std::uint64_t version);

  /// Oldest version whose storage is still live.
  [[nodiscard]] std::uint64_t min_live_version() const noexcept {
    return min_live_version_;
  }

 protected:
  /// `stack` prefixes the protocol's error messages.
  StreamChannel(devices::MemoryDevice& device, std::string name,
                std::uint32_t num_ranks, SoftwareCostModel costs,
                const char* stack);

  /// Persists one part's entries in order, placing each payload and
  /// setting its `payload_offset`. Entry i of an object part describes
  /// `objects[i]`, whose bytes a real entry stores; `objects` is empty
  /// for a run. Throws std::runtime_error when the space is full.
  virtual void store_part(std::uint64_t version, std::uint32_t rank,
                          std::span<PartEntry> entries,
                          std::span<const ObjectData> objects) = 0;
  /// The entries stored for a committed, live part, in write order.
  /// Throws std::runtime_error on a corrupt entry.
  [[nodiscard]] virtual std::vector<PartEntry> load_part(
      std::uint64_t version, std::uint32_t rank) const = 0;
  /// Reads a real entry's payload into `out` (entry.object_size bytes).
  virtual void read_payload(std::uint64_t version, std::uint32_t rank,
                            const PartEntry& entry,
                            std::span<std::byte> out) const = 0;
  /// Frees every part of `version`, the oldest live one.
  virtual void release_version(std::uint64_t version) = 0;
  /// Runs after the committed or the min-live version moved.
  virtual void persist_versions() {}

  /// The value of a persistence call, or its error thrown as
  /// std::runtime_error.
  template <typename T>
  static T checked(Expected<T> result) {
    if (!result.has_value()) {
      throw std::runtime_error(result.error().message);
    }
    return std::move(result).value();
  }

  /// Recovery sets the versions a persisted image records.
  void restore_versions(std::uint64_t committed, std::uint64_t min_live) {
    committed_version_ = committed;
    min_live_version_ = min_live;
  }
  void count_reclaimed(Bytes bytes) noexcept {
    stats_.bytes_reclaimed += bytes;
  }

 private:
  devices::MemoryDevice& device_;
  std::string name_;
  std::uint32_t num_ranks_;
  SoftwareCostModel costs_;
  const char* stack_;
  ChannelStats stats_;
  std::uint64_t committed_version_ = 0;
  std::uint64_t min_live_version_ = 1;
};

/// Default cost models for the two stacks (§V). NVStream is a thin
/// userspace log (one metadata append per object, non-temporal stores);
/// NOVA pays a user->kernel crossing plus journal and inode-log updates
/// per operation. Values are calibration anchors, not measurements.
[[nodiscard]] SoftwareCostModel nvstream_cost_model();
[[nodiscard]] SoftwareCostModel nova_cost_model();

}  // namespace pmemflow::stack
