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

/// Where `rank`'s pending head sits: past the CRC, outside what it covers.
constexpr std::size_t pending_head_at(std::uint32_t ranks,
                                      std::uint32_t rank) {
  return superblock_body_size(ranks) + 8 + 8 * static_cast<std::size_t>(rank);
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
  writer.reserve(pending_head_at(num_ranks(), num_ranks()));
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
  // The heads above cover every chain again: no pending heads.
  for (std::uint32_t r = 0; r < num_ranks(); ++r) writer.u64(0);
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
  for (std::uint32_t r = 0; r < num_ranks(); ++r) {
    const pmemsim::PmemOffset pending = reader.u64();
    if (head[r] == 0) head[r] = pending;
  }
  restore_versions(committed, min_live);
  head_ = std::move(head);
  tail_ = std::move(tail);
  return ok_status();
}

void NvStreamChannel::persist_record(pmemsim::PmemOffset offset,
                                     Record& record) {
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
  PMEMFLOW_ASSERT(writer.size() == kLinkOffset);
  record.prefix = Hasher64{};
  record.prefix.update(writer.view());
  writer.u64(record.next_offset);
  writer.u64(record.link_crc());
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
  record.prefix.update(std::span(raw).first(kLinkOffset));
  if (reader.u64() != record.link_crc()) {
    return make_error("nvstream: record CRC mismatch (torn write)");
  }
  return record;
}

void NvStreamChannel::relink(pmemsim::PmemOffset offset,
                             pmemsim::PmemOffset next) {
  Record& record = records_.at(offset);
  record.next_offset = next;
  ByteWriter writer;
  writer.u64(next);
  writer.u64(record.link_crc());
  device().space().write(offset + kLinkOffset, writer.view());
}

Bytes NvStreamChannel::release_record(pmemsim::PmemOffset offset,
                                      const Record& record) {
  // Release, not just punch: the extent returns to the space allocator
  // so a long-running stream's footprint stays bounded by its live
  // versions (store_part reserved max(1, bytes)).
  const Bytes extent = std::max<Bytes>(1, record.entry.payload_bytes());
  device().space().release(record.entry.payload_offset, extent);
  device().space().release(offset, kRecordSize);
  return extent + kRecordSize;
}

Expected<pmemsim::PmemOffset> NvStreamChannel::append_record(Record record) {
  auto offset = device().space().reserve(kRecordSize);
  if (!offset.has_value()) return Unexpected{offset.error()};

  record.next_offset = 0;
  persist_record(*offset, record);

  const std::uint32_t rank = record.rank;
  if (tail_[rank] == 0) {
    // The superblock calls this chain empty: point recovery at it.
    head_[rank] = *offset;
    ByteWriter pending;
    pending.u64(*offset);
    device().space().write(
        superblock_offset_ + pending_head_at(num_ranks(), rank),
        pending.view());
  } else {
    relink(tail_[rank], *offset);
  }
  tail_[rank] = *offset;
  records_.emplace(*offset, record);
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
    entries.push_back(records_.at(offset).entry);
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
      const auto node = records_.extract(offset);
      PMEMFLOW_ASSERT(!node.empty());
      // Advance the persistent chain head past this record (recycling
      // is in order, so heads always point at the oldest live record).
      if (head_[rank] == offset) {
        head_[rank] = node.mapped().next_offset;
        if (head_[rank] == 0) tail_[rank] = 0;
      }
      count_reclaimed(release_record(offset, node.mapped()));
    }
  }
  index_.erase(it);
}

void NvStreamChannel::drop_volatile_state() {
  index_.clear();
  records_.clear();
  restore_versions(0, 1);
  head_.assign(num_ranks(), 0);
  tail_.assign(num_ranks(), 0);
}

Status NvStreamChannel::recover() {
  auto loaded = load_superblock();
  if (!loaded.has_value()) return Unexpected{loaded.error()};

  index_.clear();
  records_.clear();
  for (std::uint32_t rank = 0; rank < num_ranks(); ++rank) {
    pmemsim::PmemOffset offset = head_[rank];
    pmemsim::PmemOffset kept = 0;  // last record left in the chain
    head_[rank] = 0;
    while (offset != 0) {
      auto record = load_record(offset);
      if (!record.has_value()) {
        // Torn tail: truncate the chain here.
        std::fprintf(stderr,
                     "[pmemflow WARN ] nvstream recovery: truncating rank %u "
                     "chain at offset %llu (%s)\n",
                     rank, static_cast<unsigned long long>(offset),
                     record.error().message.c_str());
        break;
      }
      const pmemsim::PmemOffset next = record->next_offset;
      if (record->version > committed_version()) {
        // In flight at the crash: readers never see it, so it leaves
        // the chain and its extents go back to the space.
        release_record(offset, *record);
      } else {
        if (kept == 0) {
          head_[rank] = offset;
        } else if (records_.at(kept).next_offset != offset) {
          relink(kept, offset);
        }
        auto& slots = index_[record->version];
        if (slots.empty()) slots.resize(num_ranks());
        slots[record->rank].push_back(offset);
        records_.emplace(offset, *record);
        kept = offset;
      }
      offset = next;
    }
    // A torn or dropped record may follow the last kept one, and the
    // persisted tail can lag the chain: the walk found the real tail.
    if (kept != 0 && records_.at(kept).next_offset != 0) relink(kept, 0);
    tail_[rank] = kept;
  }
  persist_superblock();
  return ok_status();
}

}  // namespace pmemflow::stack
