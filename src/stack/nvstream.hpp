// NVStream: a userspace log-structured versioned object store for
// streaming workflow I/O (after Fernando et al. [1], simplified).
//
// Persistent layout inside the device's PmemSpace:
//
//   [superblock]  magic, rank count, committed version, per-rank
//                 head/tail offsets of the record log chains
//   [records...]  one record per explicit object or per synthetic run,
//                 singly linked per rank, each with a header CRC for
//                 torn-write detection
//   [payloads...] real payload extents (synthetic runs reserve an
//                 extent but leave it unmaterialized)
//
// A volatile index maps (version, rank) -> record offsets; recover()
// rebuilds it by walking the persistent chains, discarding any torn
// tail and any records newer than the committed version — the same
// guarantees the real NVStream derives from its log structure.
//
// StreamChannel runs the protocol and charges simulated time: one fluid
// flow per part, priced per object by nvstream_cost_model() (userspace
// metadata append; non-temporal stores on the write path). This class
// keeps only the layout above, its recovery and the superblock persist
// on every commit and recycle.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "stack/channel.hpp"

namespace pmemflow::stack {

class NvStreamChannel final : public StreamChannel {
 public:
  /// Creates (formats) a channel on `device` for `num_ranks` writer
  /// ranks. The superblock is written immediately.
  NvStreamChannel(devices::MemoryDevice& device, std::string name,
                  std::uint32_t num_ranks,
                  SoftwareCostModel costs = nvstream_cost_model());

  // --- Recovery surface (exercised by failure-injection tests) ---

  /// Discards all volatile state, as a process crash would.
  void drop_volatile_state();

  /// Rebuilds the volatile index from persistent logs. Returns an error
  /// if the superblock is unreadable; torn record tails are silently
  /// truncated (that is the log-structured recovery contract).
  Status recover();

 private:
  /// One log record: a part entry plus its place in the rank's chain.
  struct Record {
    std::uint64_t version = 0;
    std::uint32_t rank = 0;
    PartEntry entry;
    pmemsim::PmemOffset next_offset = 0;
  };

  static constexpr std::uint64_t kSuperblockMagic = 0x4e565354524d5342ULL;
  static constexpr std::uint64_t kRecordMagic = 0x4e565354524d5231ULL;
  static constexpr Bytes kSuperblockSize = 8 * kKiB;
  static constexpr Bytes kRecordSize = 96;
  static constexpr std::uint32_t kMaxRanks = 256;

  // StreamChannel persistence:
  void store_part(std::uint64_t version, std::uint32_t rank,
                  std::span<PartEntry> entries,
                  std::span<const ObjectData> objects) override;
  [[nodiscard]] std::vector<PartEntry> load_part(
      std::uint64_t version, std::uint32_t rank) const override;
  void read_payload(std::uint64_t version, std::uint32_t rank,
                    const PartEntry& entry,
                    std::span<std::byte> out) const override;
  void release_version(std::uint64_t version) override;
  void persist_versions() override { persist_superblock(); }

  void persist_superblock();
  Expected<Ok> load_superblock();
  void persist_record(pmemsim::PmemOffset offset, const Record& record);
  Expected<Record> load_record(pmemsim::PmemOffset offset) const;
  /// Appends a record to `rank`'s chain; returns its offset.
  Expected<pmemsim::PmemOffset> append_record(Record record);

  pmemsim::PmemOffset superblock_offset_ = 0;
  std::vector<pmemsim::PmemOffset> head_;  // per rank, 0 = empty
  std::vector<pmemsim::PmemOffset> tail_;

  /// (version, rank) -> record offsets, in write order.
  std::unordered_map<std::uint64_t,
                     std::vector<std::vector<pmemsim::PmemOffset>>>
      index_;
};

}  // namespace pmemflow::stack
