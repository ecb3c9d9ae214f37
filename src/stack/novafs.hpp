// NovaFs: a log-structured filesystem for persistent memory, after
// NOVA (Xu & Swanson, FAST'16), simplified to the features the paper's
// workflows exercise.
//
// Design points kept from NOVA:
//   - log-structured metadata: the directory is an append-only chain of
//     CRC'd dirent records (creates and unlink tombstones), and each
//     inode has its own append-only chain of extent records — per-inode
//     logs are NOVA's mechanism for scalable concurrency;
//   - data outside the logs: payload extents are allocated separately
//     from metadata records, so truncation never rewrites logs;
//   - DAX reads: read() copies straight from the PMEM space with no
//     page-cache layer;
//   - journal-free single-log updates: a create is one dirent append, a
//     file append is one extent-record append, both made atomic by the
//     record CRC (a torn record is ignored at recovery).
//
// The volatile name map and extent tables can be dropped
// (drop_volatile_state) and rebuilt (recover) by walking the chains —
// failure-injection tests corrupt chain tails and verify truncation.
//
// Simplifications vs. real NOVA: no rename/hard links (and thus no
// multi-log journal), a single flat directory namespace (paths are
// opaque names), and no per-CPU allocator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/expected.hpp"
#include "devices/memory_device.hpp"

namespace pmemflow::stack {

class NovaFs {
 public:
  using InodeId = std::uint64_t;

  struct Extent {
    std::uint64_t file_offset = 0;
    Bytes length = 0;
    /// Offset of the data in the PMEM space; holes (unmaterialized
    /// reservations for synthetic payloads) have is_hole set.
    pmemsim::PmemOffset data_offset = 0;
    bool is_hole = false;
  };

  struct FsStats {
    std::uint64_t files_created = 0;
    std::uint64_t files_unlinked = 0;
    std::uint64_t extents_appended = 0;
    Bytes bytes_appended = 0;
    Bytes bytes_read = 0;
    /// Bytes returned to the space allocator by unlinks (data + extent
    /// records) and directory compaction (shadowed dirents).
    Bytes bytes_reclaimed = 0;
  };

  /// Formats a fresh filesystem on the device's space.
  explicit NovaFs(devices::MemoryDevice& device);

  /// Creates an empty file. Fails if the name exists.
  Expected<InodeId> create(std::string_view path);

  /// Finds a file by name.
  Expected<InodeId> lookup(std::string_view path) const;

  /// Appends `data` at the end of the file (one extent record).
  Expected<Ok> append(InodeId inode, std::span<const std::byte> data);

  /// Appends a `size`-byte hole extent: space is reserved and the file
  /// grows, but no bytes are materialized. Returns the extent's offset
  /// within the file.
  Expected<std::uint64_t> append_hole(InodeId inode, Bytes size);

  /// Reads `out.size()` bytes starting at `offset`. Holes read as
  /// zeros. Fails on out-of-bounds reads.
  Expected<Ok> read(InodeId inode, std::uint64_t offset,
                    std::span<std::byte> out) const;

  /// Current size of the file.
  [[nodiscard]] Expected<Bytes> file_size(InodeId inode) const;

  /// The file's extent list in file order (for zero-copy consumers).
  [[nodiscard]] Expected<std::vector<Extent>> extents(InodeId inode) const;

  /// Removes the name and punches the file's data extents.
  Expected<Ok> unlink(std::string_view path);

  /// Simulates a crash: volatile name map and extent tables vanish.
  void drop_volatile_state();

  /// Rebuilds volatile state from the persistent chains, truncating any
  /// torn tails.
  Status recover();

  [[nodiscard]] const FsStats& stats() const noexcept { return stats_; }

  /// Number of live (non-unlinked) files.
  [[nodiscard]] std::size_t file_count() const noexcept {
    return names_.size();
  }

  /// Names of all live files, sorted (deterministic listing order).
  [[nodiscard]] std::vector<std::string> list() const;

  /// Compacts the directory log: rewrites one dirent per live file and
  /// punches the old chain's records. Call after heavy churn (the
  /// streaming channel's recycle loop appends a tombstone per file).
  /// Returns the number of persistent records reclaimed.
  std::size_t compact_directory();

  /// Dirent records currently in the persistent directory chain
  /// (live + shadowed + tombstones); compaction shrinks this to
  /// file_count() + per-file chain-head updates.
  [[nodiscard]] std::size_t directory_chain_length() const;

 private:
  struct Inode {
    InodeId id = 0;
    std::vector<Extent> extent_list;
    Bytes size = 0;
    pmemsim::PmemOffset chain_head = 0;  // first extent record
    pmemsim::PmemOffset chain_tail = 0;
    bool unlinked = false;
  };

  struct DirentRecord {
    std::string name;
    InodeId inode = 0;
    bool tombstone = false;
    pmemsim::PmemOffset inode_chain_head = 0;
    pmemsim::PmemOffset next = 0;
  };

  struct ExtentRecord {
    std::uint64_t file_offset = 0;
    Bytes length = 0;
    pmemsim::PmemOffset data_offset = 0;
    bool is_hole = false;
    pmemsim::PmemOffset next = 0;
  };

  static constexpr std::uint64_t kSuperMagic = 0x4e4f5641'46532131ULL;
  static constexpr std::uint64_t kDirentMagic = 0x4e4f5641'44495245ULL;
  static constexpr std::uint64_t kExtentMagic = 0x4e4f5641'45585445ULL;
  static constexpr Bytes kSuperblockSize = 4 * kKiB;
  static constexpr Bytes kExtentRecordSize = 56;
  static constexpr std::size_t kMaxNameLength = 200;

  void persist_superblock();
  Expected<Ok> load_superblock();

  /// The one dirent encoder: writes `record` at `offset`.
  void write_dirent(pmemsim::PmemOffset offset, const DirentRecord& record);
  Expected<DirentRecord> load_dirent(pmemsim::PmemOffset offset) const;
  void relink_dirent(pmemsim::PmemOffset offset, pmemsim::PmemOffset next);
  /// Persists `record` in a fresh extent and links it after `tail` (as
  /// `head` when the chain is empty); returns its offset.
  Expected<pmemsim::PmemOffset> link_dirent(const DirentRecord& record,
                                            pmemsim::PmemOffset& head,
                                            pmemsim::PmemOffset& tail);
  /// Links `record` at the directory's tail and persists the superblock.
  Expected<Ok> append_dirent(const DirentRecord& record);

  void persist_extent_record(pmemsim::PmemOffset offset,
                             const ExtentRecord& record);
  Expected<ExtentRecord> load_extent_record(
      pmemsim::PmemOffset offset) const;

  Expected<Ok> append_extent(InodeId inode, Bytes size,
                             std::span<const std::byte> data, bool is_hole);

  Inode& inode_ref(InodeId inode);
  const Inode* find_inode(InodeId inode) const;

  devices::MemoryDevice& device_;
  pmemsim::PmemOffset superblock_offset_ = 0;
  pmemsim::PmemOffset dir_head_ = 0;
  pmemsim::PmemOffset dir_tail_ = 0;
  InodeId next_inode_ = 1;

  std::unordered_map<std::string, InodeId> names_;
  std::unordered_map<InodeId, Inode> inodes_;
  // Mutable: const read paths account bytes_read.
  mutable FsStats stats_;
};

}  // namespace pmemflow::stack
