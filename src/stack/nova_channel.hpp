// Streaming channel over the NOVA-like filesystem.
//
// Snapshot layout: each (version, rank) pair owns two files,
//   v<version>/r<rank>.idx   fixed-size object index records
//   v<version>/r<rank>.dat   payload extents (holes for synthetic runs)
// mirroring how a file-per-stream container would be used on a real
// PMEM filesystem. Every object costs the NOVA per-op software overhead
// (syscall + journal + inode-log append), which is the stack's defining
// property in the paper's comparison (§VII: NVStream "reduces the
// software I/O costs compared to NOVA").
#pragma once

#include <string>

#include "stack/channel.hpp"
#include "stack/novafs.hpp"

namespace pmemflow::stack {

class NovaChannel final : public StreamChannel {
 public:
  NovaChannel(devices::MemoryDevice& device, std::string name,
              std::uint32_t num_ranks,
              SoftwareCostModel costs = nova_cost_model());

  /// The underlying filesystem (tests inspect it directly).
  [[nodiscard]] NovaFs& filesystem() noexcept { return fs_; }

 private:
  static constexpr std::uint64_t kIndexEntryMagic = 0x4e4f5641'4f424a31ULL;
  static constexpr std::size_t kIndexEntrySize = 72;

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

  NovaFs fs_;
};

}  // namespace pmemflow::stack
