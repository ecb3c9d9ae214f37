#include "stack/nova_channel.hpp"

#include <stdexcept>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "common/strings.hpp"

namespace pmemflow::stack {

namespace {

/// Path of one (version, rank) file: `kind` is "idx" or "dat".
std::string part_path(std::uint64_t version, std::uint32_t rank,
                      const char* kind) {
  return format("v%llu/r%u.%s", static_cast<unsigned long long>(version),
                rank, kind);
}

}  // namespace

NovaChannel::NovaChannel(devices::MemoryDevice& device, std::string name,
                         std::uint32_t num_ranks, SoftwareCostModel costs)
    : StreamChannel(device, std::move(name), num_ranks, costs, "nova"),
      fs_(device) {}

void NovaChannel::store_part(std::uint64_t version, std::uint32_t rank,
                             std::span<PartEntry> entries,
                             std::span<const ObjectData> objects) {
  const auto idx = checked(fs_.create(part_path(version, rank, "idx")));
  const auto dat = checked(fs_.create(part_path(version, rank, "dat")));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    PartEntry& entry = entries[i];
    if (entry.synthetic) {
      entry.payload_offset = checked(
          fs_.append_hole(dat, std::max<Bytes>(1, entry.payload_bytes())));
    } else {
      entry.payload_offset = checked(fs_.file_size(dat));
      checked(fs_.append(dat, objects[i].payload.bytes()));
    }
    ByteWriter writer;
    writer.u64(kIndexEntryMagic);
    writer.u32(entry.flags());
    writer.u32(0);
    writer.u64(entry.first_index);
    writer.u64(entry.count);
    writer.u64(entry.object_size);
    writer.u64(entry.seed);
    writer.u64(entry.checksum);
    writer.u64(entry.payload_offset);
    writer.u64(hash_bytes(writer.view()));
    PMEMFLOW_ASSERT(writer.size() == kIndexEntrySize);
    checked(fs_.append(idx, writer.view()));
  }
}

std::vector<PartEntry> NovaChannel::load_part(std::uint64_t version,
                                              std::uint32_t rank) const {
  const auto idx = checked(fs_.lookup(part_path(version, rank, "idx")));
  const Bytes size = checked(fs_.file_size(idx));
  PMEMFLOW_ASSERT_MSG(size % kIndexEntrySize == 0,
                      "nova: index file size corrupt");
  std::vector<std::byte> raw(static_cast<std::size_t>(size));
  checked(fs_.read(idx, 0, raw));

  std::vector<PartEntry> entries;
  entries.reserve(raw.size() / kIndexEntrySize);
  for (std::size_t pos = 0; pos < raw.size(); pos += kIndexEntrySize) {
    ByteReader reader{std::span(raw).subspan(pos, kIndexEntrySize)};
    if (reader.u64() != kIndexEntryMagic) {
      throw std::runtime_error("nova: bad index entry magic");
    }
    PartEntry entry;
    entry.set_flags(reader.u32());
    (void)reader.u32();
    entry.first_index = reader.u64();
    entry.count = reader.u64();
    entry.object_size = reader.u64();
    entry.seed = reader.u64();
    entry.checksum = reader.u64();
    entry.payload_offset = reader.u64();
    const auto body = std::span(raw).subspan(pos, kIndexEntrySize - 8);
    if (reader.u64() != hash_bytes(body)) {
      throw std::runtime_error("nova: index entry CRC mismatch");
    }
    entries.push_back(entry);
  }
  return entries;
}

void NovaChannel::read_payload(std::uint64_t version, std::uint32_t rank,
                               const PartEntry& entry,
                               std::span<std::byte> out) const {
  const auto dat = checked(fs_.lookup(part_path(version, rank, "dat")));
  checked(fs_.read(dat, entry.payload_offset, out));
}

void NovaChannel::release_version(std::uint64_t version) {
  const Bytes before = fs_.stats().bytes_reclaimed;
  for (std::uint32_t rank = 0; rank < num_ranks(); ++rank) {
    // Parts may be absent if a rank wrote nothing for this version.
    (void)fs_.unlink(part_path(version, rank, "idx"));
    (void)fs_.unlink(part_path(version, rank, "dat"));
  }
  count_reclaimed(fs_.stats().bytes_reclaimed - before);
}

}  // namespace pmemflow::stack
