// NVStream: a userspace log-structured versioned object store for
// streaming workflow I/O (after Fernando et al. [1], simplified).
//
// Persistent layout inside the device's PmemSpace:
//
//   [superblock]  magic, rank count, committed and min-live versions,
//                 per-rank head/tail offsets of the record log chains,
//                 CRC; then per-rank pending heads (see below)
//   [records...]  one record per explicit object or per synthetic run,
//                 singly linked per rank, each with a header CRC for
//                 torn-write detection
//   [payloads...] real payload extents (synthetic runs reserve an
//                 extent but leave it unmaterialized)
//
// A volatile index maps (version, rank) -> record offsets, and a DRAM
// mirror holds every chained record plus the hash state of its bytes
// before next_offset. Reads, recycling and the tail relink on append
// (rewriting only next_offset and the CRC) use the mirror; only
// recover() reads metadata from media. The superblock is persisted on
// construction, commit, recycle and recovery, not on append, so its
// tails can lag the chains; an append that starts a chain the
// superblock calls empty writes its offset to the rank's pending head.
// recover() walks each chain from its head or pending head, takes the
// tail from the walk, truncates the chain at a torn record, and drops
// every record newer than the committed version, releasing its
// extents — the same guarantees the real NVStream derives from its log
// structure.
//
// StreamChannel runs the protocol and charges simulated time: one fluid
// flow per part, priced per object by nvstream_cost_model() (userspace
// metadata append; non-temporal stores on the write path). This class
// keeps only the layout above and its recovery.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "common/hash.hpp"
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
    /// FNV-1a state over the kLinkOffset bytes before next_offset.
    Hasher64 prefix{};

    /// The CRC stored after next_offset, over everything before it.
    [[nodiscard]] std::uint64_t link_crc() const noexcept {
      Hasher64 crc = prefix;
      crc.update_u64(next_offset);
      return crc.digest();
    }
  };

  static constexpr std::uint64_t kSuperblockMagic = 0x4e565354524d5342ULL;
  static constexpr std::uint64_t kRecordMagic = 0x4e565354524d5231ULL;
  static constexpr Bytes kSuperblockSize = 8 * kKiB;
  static constexpr Bytes kRecordSize = 96;
  static constexpr Bytes kLinkOffset = 80;  // next_offset, then the CRC
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
  /// Writes `record` whole and sets its prefix state.
  void persist_record(pmemsim::PmemOffset offset, Record& record);
  Expected<Record> load_record(pmemsim::PmemOffset offset) const;
  /// Points the mirrored record at `offset` to `next` (0 = end of
  /// chain), rewriting only its last 16 bytes.
  void relink(pmemsim::PmemOffset offset, pmemsim::PmemOffset next);
  /// Frees a record's payload and record extents; returns their bytes.
  Bytes release_record(pmemsim::PmemOffset offset, const Record& record);
  /// Appends a record to `rank`'s chain; returns its offset.
  Expected<pmemsim::PmemOffset> append_record(Record record);

  pmemsim::PmemOffset superblock_offset_ = 0;
  std::vector<pmemsim::PmemOffset> head_;  // per rank, 0 = empty
  std::vector<pmemsim::PmemOffset> tail_;

  /// (version, rank) -> record offsets, in write order.
  std::unordered_map<std::uint64_t,
                     std::vector<std::vector<pmemsim::PmemOffset>>>
      index_;
  /// DRAM mirror of every record in a chain, by offset.
  std::unordered_map<pmemsim::PmemOffset, Record> records_;
};

}  // namespace pmemflow::stack
