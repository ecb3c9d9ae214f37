#include "stack/nvstream.hpp"

#include <array>
#include <cstdio>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "common/strings.hpp"

namespace pmemflow::stack {

namespace {

/// Bytes of the superblock before its trailing CRC: magic, rank count,
/// reserved word, committed and min-live versions, per-rank head/tail.
constexpr std::size_t superblock_body_size(std::uint32_t ranks) {
  return 8 + 4 + 4 + 8 + 8 + 16 * static_cast<std::size_t>(ranks);
}

}  // namespace

NvStreamChannel::NvStreamChannel(devices::MemoryDevice& device,
                                 std::string name, std::uint32_t num_ranks,
                                 SoftwareCostModel costs)
    : StreamChannel(device, std::move(name), num_ranks, costs, "nvstream") {
  PMEMFLOW_ASSERT_MSG(num_ranks <= kMaxRanks, "rank count out of range");
  head_.assign(num_ranks, 0);
  tail_.assign(num_ranks, 0);
  auto reserved = this->device().space().reserve(kSuperblockSize);
  PMEMFLOW_ASSERT_MSG(reserved.has_value(),
                      "device too small for channel superblock");
  superblock_offset_ = *reserved;
  persist_superblock();
}

void NvStreamChannel::persist_superblock() {
  ByteWriter writer;
  writer.reserve(superblock_body_size(num_ranks()) + 8);
  writer.u64(kSuperblockMagic);
  writer.u32(num_ranks());
  writer.u32(0);  // reserved
  writer.u64(committed_version());
  writer.u64(min_live_version());
  for (std::uint32_t r = 0; r < num_ranks(); ++r) {
    writer.u64(head_[r]);
    writer.u64(tail_[r]);
  }
  writer.u64(hash_bytes(writer.view()));
  PMEMFLOW_ASSERT(writer.size() <= kSuperblockSize);
  device().space().write(superblock_offset_, writer.view());
}

Expected<Ok> NvStreamChannel::load_superblock() {
  std::array<std::byte, kSuperblockSize> raw{};
  device().space().read(superblock_offset_, raw);
  ByteReader reader(raw);
  if (reader.u64() != kSuperblockMagic) {
    return make_error("nvstream: bad superblock magic");
  }
  const std::uint32_t ranks = reader.u32();
  (void)reader.u32();
  if (ranks != num_ranks()) {
    return make_error(format("nvstream: superblock has %u ranks, expected %u",
                             ranks, num_ranks()));
  }
  const std::uint64_t committed = reader.u64();
  const std::uint64_t min_live = reader.u64();
  std::vector<pmemsim::PmemOffset> head(num_ranks());
  std::vector<pmemsim::PmemOffset> tail(num_ranks());
  for (std::uint32_t r = 0; r < num_ranks(); ++r) {
    head[r] = reader.u64();
    tail[r] = reader.u64();
  }
  // Verify trailer CRC over the serialized prefix.
  const std::size_t body = superblock_body_size(num_ranks());
  const std::uint64_t stored_crc = reader.u64();
  if (stored_crc != hash_bytes(std::span(raw).subspan(0, body))) {
    return make_error("nvstream: superblock CRC mismatch");
  }
  restore_versions(committed, min_live);
  head_ = std::move(head);
  tail_ = std::move(tail);
  return ok_status();
}

void NvStreamChannel::persist_record(pmemsim::PmemOffset offset,
                                     const Record& record) {
  const PartEntry& entry = record.entry;
  ByteWriter writer;
  writer.reserve(kRecordSize);
  writer.u64(kRecordMagic);
  writer.u64(record.version);
  writer.u32(record.rank);
  writer.u32(entry.flags());
  writer.u64(entry.first_index);
  writer.u64(entry.count);
  writer.u64(entry.object_size);
  writer.u64(entry.seed);
  writer.u64(entry.checksum);
  writer.u64(entry.payload_offset);
  writer.u64(entry.payload_bytes());
  writer.u64(record.next_offset);
  writer.u64(hash_bytes(writer.view()));
  PMEMFLOW_ASSERT(writer.size() == kRecordSize);
  device().space().write(offset, writer.view());
}

Expected<NvStreamChannel::Record> NvStreamChannel::load_record(
    pmemsim::PmemOffset offset) const {
  std::array<std::byte, kRecordSize> raw{};
  device().space().read(offset, raw);
  ByteReader reader(raw);
  if (reader.u64() != kRecordMagic) {
    return make_error("nvstream: bad record magic");
  }
  Record record;
  PartEntry& entry = record.entry;
  record.version = reader.u64();
  record.rank = reader.u32();
  entry.set_flags(reader.u32());
  entry.first_index = reader.u64();
  entry.count = reader.u64();
  entry.object_size = reader.u64();
  entry.seed = reader.u64();
  entry.checksum = reader.u64();
  entry.payload_offset = reader.u64();
  (void)reader.u64();  // payload bytes: entry.payload_bytes()
  record.next_offset = reader.u64();
  const std::uint64_t stored_crc = reader.u64();
  const std::size_t body = static_cast<std::size_t>(kRecordSize) - 8;
  if (stored_crc != hash_bytes(std::span(raw).subspan(0, body))) {
    return make_error("nvstream: record CRC mismatch (torn write)");
  }
  return record;
}

Expected<pmemsim::PmemOffset> NvStreamChannel::append_record(Record record) {
  auto offset = device().space().reserve(kRecordSize);
  if (!offset.has_value()) return Unexpected{offset.error()};

  record.next_offset = 0;
  persist_record(*offset, record);

  const std::uint32_t rank = record.rank;
  if (tail_[rank] == 0) {
    head_[rank] = *offset;
  } else {
    // Link the previous tail to the new record (re-persisting it).
    auto previous = load_record(tail_[rank]);
    PMEMFLOW_ASSERT_MSG(previous.has_value(),
                        "nvstream: tail record unreadable");
    previous->next_offset = *offset;
    persist_record(tail_[rank], *previous);
  }
  tail_[rank] = *offset;
  persist_superblock();
  return *offset;
}

void NvStreamChannel::store_part(std::uint64_t version, std::uint32_t rank,
                                 std::span<PartEntry> entries,
                                 std::span<const ObjectData> objects) {
  auto& version_slots = index_[version];
  if (version_slots.empty()) version_slots.resize(num_ranks());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    PartEntry& entry = entries[i];
    entry.payload_offset = checked(
        device().space().reserve(std::max<Bytes>(1, entry.payload_bytes())));
    if (!entry.synthetic) {
      device().space().write(entry.payload_offset, objects[i].payload.bytes());
    }
    version_slots[rank].push_back(checked(
        append_record({.version = version, .rank = rank, .entry = entry})));
  }
}

std::vector<PartEntry> NvStreamChannel::load_part(std::uint64_t version,
                                                  std::uint32_t rank) const {
  const auto it = index_.find(version);
  PMEMFLOW_ASSERT_MSG(it != index_.end(), "committed version missing index");
  const auto& offsets = it->second[rank];
  std::vector<PartEntry> entries;
  entries.reserve(offsets.size());
  for (const auto offset : offsets) {
    entries.push_back(checked(load_record(offset)).entry);
  }
  return entries;
}

void NvStreamChannel::read_payload(std::uint64_t /*version*/,
                                   std::uint32_t /*rank*/,
                                   const PartEntry& entry,
                                   std::span<std::byte> out) const {
  device().space().read(entry.payload_offset, out);
}

void NvStreamChannel::release_version(std::uint64_t version) {
  const auto it = index_.find(version);
  PMEMFLOW_ASSERT(it != index_.end());
  for (std::uint32_t rank = 0; rank < num_ranks(); ++rank) {
    for (const auto offset : it->second[rank]) {
      auto record = load_record(offset);
      if (record.has_value()) {
        // Release, not just punch: the extent returns to the space
        // allocator so a long-running stream's footprint stays bounded
        // by its live versions (store_part reserved max(1, bytes)).
        const Bytes extent = std::max<Bytes>(1, record->entry.payload_bytes());
        device().space().release(record->entry.payload_offset, extent);
        count_reclaimed(extent);
      }
      // Advance the persistent chain head past this record (recycling
      // is in order, so heads always point at the oldest live record).
      if (record.has_value() && head_[rank] == offset) {
        head_[rank] = record->next_offset;
        if (head_[rank] == 0) tail_[rank] = 0;
      }
      device().space().release(offset, kRecordSize);
      count_reclaimed(kRecordSize);
    }
  }
  index_.erase(it);
}

void NvStreamChannel::drop_volatile_state() {
  index_.clear();
  restore_versions(0, 1);
  for (std::uint32_t r = 0; r < num_ranks(); ++r) {
    head_[r] = 0;
    tail_[r] = 0;
  }
}

Status NvStreamChannel::recover() {
  auto loaded = load_superblock();
  if (!loaded.has_value()) return Unexpected{loaded.error()};

  index_.clear();
  for (std::uint32_t rank = 0; rank < num_ranks(); ++rank) {
    pmemsim::PmemOffset offset = head_[rank];
    pmemsim::PmemOffset last_valid = 0;
    while (offset != 0) {
      auto record = load_record(offset);
      if (!record.has_value()) {
        // Torn tail: truncate the chain here.
        std::fprintf(stderr,
                     "[pmemflow WARN ] nvstream recovery: truncating rank %u "
                     "chain at offset %llu (%s)\n",
                     rank, static_cast<unsigned long long>(offset),
                     record.error().message.c_str());
        if (last_valid != 0) {
          auto previous = load_record(last_valid);
          PMEMFLOW_ASSERT(previous.has_value());
          previous->next_offset = 0;
          persist_record(last_valid, *previous);
          tail_[rank] = last_valid;
        } else {
          head_[rank] = 0;
          tail_[rank] = 0;
        }
        break;
      }
      // Records past the committed version were in flight at the crash;
      // they are not exposed (readers only ever see committed versions).
      if (record->version <= committed_version()) {
        auto& slots = index_[record->version];
        if (slots.empty()) slots.resize(num_ranks());
        slots[record->rank].push_back(offset);
      }
      last_valid = offset;
      offset = record->next_offset;
    }
  }
  persist_superblock();
  return ok_status();
}

}  // namespace pmemflow::stack
