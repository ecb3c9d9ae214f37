#include "stack/nvstream.hpp"

#include <array>
#include <cstdio>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "common/strings.hpp"

namespace pmemflow::stack {

namespace {

std::uint64_t header_crc(const ByteWriter& writer) {
  return hash_bytes(writer.view());
}

/// Bytes of the superblock before its trailing CRC: magic, rank count,
/// reserved word, committed and min-live versions, per-rank head/tail.
constexpr std::size_t superblock_body_size(std::uint32_t ranks) {
  return 8 + 4 + 4 + 8 + 8 + 16 * static_cast<std::size_t>(ranks);
}

}  // namespace

NvStreamChannel::NvStreamChannel(devices::MemoryDevice& device,
                                 std::string name, std::uint32_t num_ranks,
                                 SoftwareCostModel costs)
    : device_(device),
      name_(std::move(name)),
      num_ranks_(num_ranks),
      costs_(costs) {
  PMEMFLOW_ASSERT_MSG(num_ranks_ >= 1 && num_ranks_ <= kMaxRanks,
                      "rank count out of range");
  head_.assign(num_ranks_, 0);
  tail_.assign(num_ranks_, 0);
  auto reserved = device_.space().reserve(kSuperblockSize);
  PMEMFLOW_ASSERT_MSG(reserved.has_value(),
                      "device too small for channel superblock");
  superblock_offset_ = *reserved;
  persist_superblock();
}

void NvStreamChannel::persist_superblock() {
  ByteWriter writer;
  writer.reserve(superblock_body_size(num_ranks_) + 8);
  writer.u64(kSuperblockMagic);
  writer.u32(num_ranks_);
  writer.u32(0);  // reserved
  writer.u64(committed_version_);
  writer.u64(min_live_version_);
  for (std::uint32_t r = 0; r < num_ranks_; ++r) {
    writer.u64(head_[r]);
    writer.u64(tail_[r]);
  }
  writer.u64(header_crc(writer));
  PMEMFLOW_ASSERT(writer.size() <= kSuperblockSize);
  device_.space().write(superblock_offset_, writer.view());
}

Expected<Ok> NvStreamChannel::load_superblock() {
  std::array<std::byte, kSuperblockSize> raw{};
  device_.space().read(superblock_offset_, raw);
  ByteReader reader(raw);
  if (reader.u64() != kSuperblockMagic) {
    return make_error("nvstream: bad superblock magic");
  }
  const std::uint32_t ranks = reader.u32();
  (void)reader.u32();
  if (ranks != num_ranks_) {
    return make_error(format("nvstream: superblock has %u ranks, expected %u",
                             ranks, num_ranks_));
  }
  const std::uint64_t committed = reader.u64();
  const std::uint64_t min_live = reader.u64();
  std::vector<pmemsim::PmemOffset> head(num_ranks_);
  std::vector<pmemsim::PmemOffset> tail(num_ranks_);
  for (std::uint32_t r = 0; r < num_ranks_; ++r) {
    head[r] = reader.u64();
    tail[r] = reader.u64();
  }
  // Verify trailer CRC over the serialized prefix.
  const std::size_t body = superblock_body_size(num_ranks_);
  const std::uint64_t stored_crc = reader.u64();
  if (stored_crc != hash_bytes(std::span(raw).subspan(0, body))) {
    return make_error("nvstream: superblock CRC mismatch");
  }
  committed_version_ = committed;
  min_live_version_ = min_live;
  head_ = std::move(head);
  tail_ = std::move(tail);
  return ok_status();
}

void NvStreamChannel::persist_record(pmemsim::PmemOffset offset,
                                     const Record& record) {
  ByteWriter writer;
  writer.reserve(kRecordSize);
  writer.u64(kRecordMagic);
  writer.u64(record.version);
  writer.u32(record.rank);
  writer.u32((record.synthetic ? 1u : 0u) | (record.is_run ? 2u : 0u));
  writer.u64(record.first_index);
  writer.u64(record.count);
  writer.u64(record.object_size);
  writer.u64(record.seed);
  writer.u64(record.checksum);
  writer.u64(record.payload_offset);
  writer.u64(record.payload_bytes);
  writer.u64(record.next_offset);
  writer.u64(header_crc(writer));
  PMEMFLOW_ASSERT(writer.size() == kRecordSize);
  device_.space().write(offset, writer.view());
}

Expected<NvStreamChannel::Record> NvStreamChannel::load_record(
    pmemsim::PmemOffset offset) const {
  std::array<std::byte, kRecordSize> raw{};
  device_.space().read(offset, raw);
  ByteReader reader(raw);
  if (reader.u64() != kRecordMagic) {
    return make_error("nvstream: bad record magic");
  }
  Record record;
  record.version = reader.u64();
  record.rank = reader.u32();
  const std::uint32_t flags = reader.u32();
  record.synthetic = (flags & 1u) != 0;
  record.is_run = (flags & 2u) != 0;
  record.first_index = reader.u64();
  record.count = reader.u64();
  record.object_size = reader.u64();
  record.seed = reader.u64();
  record.checksum = reader.u64();
  record.payload_offset = reader.u64();
  record.payload_bytes = reader.u64();
  record.next_offset = reader.u64();
  const std::uint64_t stored_crc = reader.u64();
  const std::size_t body = static_cast<std::size_t>(kRecordSize) - 8;
  if (stored_crc != hash_bytes(std::span(raw).subspan(0, body))) {
    return make_error("nvstream: record CRC mismatch (torn write)");
  }
  return record;
}

Expected<pmemsim::PmemOffset> NvStreamChannel::append_record(Record record) {
  auto offset = device_.space().reserve(kRecordSize);
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

sim::Task NvStreamChannel::write_part(topo::SocketId from,
                                      std::uint64_t version,
                                      std::uint32_t rank, SnapshotPart part,
                                      double compute_ns_per_op) {
  PMEMFLOW_ASSERT(rank < num_ranks_);
  PMEMFLOW_ASSERT_MSG(version > committed_version_,
                      "writing to an already committed version");

  const Bytes total = part_bytes(part);
  const std::uint64_t object_count = part_object_count(part);
  const Bytes op_size = part_op_size(part);

  // Charge simulated time: one fluid flow covering the whole part, with
  // per-op software overhead and interleaved caller compute folded in.
  if (total > 0) {
    sim::FlowSpec spec;
    spec.kind = sim::IoKind::kWrite;
    spec.total_bytes = total;
    spec.op_size = op_size;
    spec.sw_ns_per_op = costs_.write_op_cost(op_size);
    spec.compute_ns_per_op = compute_ns_per_op;
    co_await device_.io(from, spec);
  }

  // Functional persist (visible at the flow's completion instant).
  auto& version_slots = index_[version];
  if (version_slots.empty()) version_slots.resize(num_ranks_);

  const auto persist_one = [&](Record record) {
    auto offset = append_record(std::move(record));
    if (!offset.has_value()) {
      throw std::runtime_error(offset.error().message);
    }
    version_slots[rank].push_back(*offset);
  };

  if (const auto* run = std::get_if<SyntheticRun>(&part)) {
    auto extent = device_.space().reserve(std::max<Bytes>(1, run->total_bytes()));
    if (!extent.has_value()) throw std::runtime_error(extent.error().message);
    Record record;
    record.version = version;
    record.rank = rank;
    record.synthetic = true;
    record.is_run = true;
    record.first_index = run->first_index;
    record.count = run->count;
    record.object_size = run->object_size;
    record.seed = run->base_seed;
    record.checksum = run->combined_checksum();
    record.payload_offset = *extent;
    record.payload_bytes = run->total_bytes();
    persist_one(record);
  } else {
    for (const ObjectData& object :
         std::get<std::vector<ObjectData>>(part)) {
      const Bytes size = object.payload.size();
      auto extent = device_.space().reserve(std::max<Bytes>(1, size));
      if (!extent.has_value()) {
        throw std::runtime_error(extent.error().message);
      }
      if (!object.payload.is_synthetic()) {
        device_.space().write(*extent, object.payload.bytes());
      }
      Record record;
      record.version = version;
      record.rank = rank;
      record.synthetic = object.payload.is_synthetic();
      record.first_index = object.index;
      record.count = 1;
      record.object_size = size;
      record.seed = object.payload.seed();
      record.checksum = object.payload.checksum();
      record.payload_offset = *extent;
      record.payload_bytes = size;
      persist_one(record);
    }
  }

  stats_.objects_written += object_count;
  stats_.payload_bytes_written += total;
}

void NvStreamChannel::commit_version(std::uint64_t version) {
  PMEMFLOW_ASSERT_MSG(version == committed_version_ + 1,
                      "versions must be committed in order");
  committed_version_ = version;
  persist_superblock();
  ++stats_.versions_committed;
}

sim::Task NvStreamChannel::read_part(topo::SocketId from,
                                     std::uint64_t version,
                                     std::uint32_t rank, SnapshotPart& out,
                                     double compute_ns_per_op) {
  PMEMFLOW_ASSERT(rank < num_ranks_);
  if (version > committed_version_) {
    throw std::runtime_error(
        format("nvstream: version %llu not committed",
               static_cast<unsigned long long>(version)));
  }
  if (version < min_live_version_) {
    throw std::runtime_error(
        format("nvstream: version %llu already recycled",
               static_cast<unsigned long long>(version)));
  }
  const auto it = index_.find(version);
  PMEMFLOW_ASSERT_MSG(it != index_.end(), "committed version missing index");
  const auto& offsets = it->second[rank];

  // Decode records first (cheap metadata) to size the transfer.
  std::vector<Record> records;
  records.reserve(offsets.size());
  Bytes total = 0;
  std::uint64_t object_count = 0;
  for (const auto offset : offsets) {
    auto record = load_record(offset);
    if (!record.has_value()) {
      throw std::runtime_error(record.error().message);
    }
    total += record->payload_bytes;
    object_count += record->count;
    records.push_back(*std::move(record));
  }

  if (total > 0) {
    const Bytes op_size =
        std::max<Bytes>(1, total / std::max<std::uint64_t>(1, object_count));
    sim::FlowSpec spec;
    spec.kind = sim::IoKind::kRead;
    spec.total_bytes = total;
    spec.op_size = op_size;
    spec.sw_ns_per_op = costs_.read_op_cost(op_size);
    spec.compute_ns_per_op = compute_ns_per_op;
    co_await device_.io(from, spec);
  }

  // Functional load + verification.
  for (const Record& record : records) {
    if (record.is_run && records.size() > 1) {
      throw std::runtime_error(
          "nvstream: mixed run/object parts are not supported");
    }
  }
  if (records.size() == 1 && records[0].is_run) {
    const Record& record = records[0];
    SyntheticRun run;
    run.first_index = record.first_index;
    run.count = record.count;
    run.object_size = record.object_size;
    run.base_seed = record.seed;
    if (run.combined_checksum() != record.checksum) {
      ++stats_.checksum_failures;
      throw std::runtime_error("nvstream: synthetic run checksum mismatch");
    }
    out = run;
  } else {
    std::vector<ObjectData> objects;
    objects.reserve(records.size());
    for (const Record& record : records) {
      ObjectData object;
      object.index = record.first_index;
      if (record.synthetic) {
        object.payload = Payload::synthetic(record.seed, record.object_size);
      } else {
        std::vector<std::byte> bytes(
            static_cast<std::size_t>(record.payload_bytes));
        device_.space().read(record.payload_offset, bytes);
        object.payload = Payload::real(std::move(bytes));
      }
      if (object.payload.checksum() != record.checksum) {
        ++stats_.checksum_failures;
        throw std::runtime_error(
            format("nvstream: object %llu checksum mismatch",
                   static_cast<unsigned long long>(record.first_index)));
      }
      objects.push_back(std::move(object));
    }
    out = std::move(objects);
  }

  stats_.objects_read += object_count;
  stats_.payload_bytes_read += total;
}

void NvStreamChannel::recycle_version(std::uint64_t version) {
  PMEMFLOW_ASSERT_MSG(version == min_live_version_,
                      "versions must be recycled in order");
  PMEMFLOW_ASSERT_MSG(version <= committed_version_,
                      "cannot recycle an uncommitted version");
  const auto it = index_.find(version);
  PMEMFLOW_ASSERT(it != index_.end());
  for (std::uint32_t rank = 0; rank < num_ranks_; ++rank) {
    for (const auto offset : it->second[rank]) {
      auto record = load_record(offset);
      if (record.has_value()) {
        // Release, not just punch: the extent returns to the space
        // allocator so a long-running stream's footprint stays bounded
        // by its live versions (write_part reserved max(1, bytes)).
        const Bytes extent = std::max<Bytes>(1, record->payload_bytes);
        device_.space().release(record->payload_offset, extent);
        stats_.bytes_reclaimed += extent;
      }
      // Advance the persistent chain head past this record (recycling
      // is in order, so heads always point at the oldest live record).
      if (record.has_value() && head_[rank] == offset) {
        head_[rank] = record->next_offset;
        if (head_[rank] == 0) tail_[rank] = 0;
      }
      device_.space().release(offset, kRecordSize);
      stats_.bytes_reclaimed += kRecordSize;
    }
  }
  index_.erase(it);
  ++min_live_version_;
  persist_superblock();
  ++stats_.versions_recycled;
}

void NvStreamChannel::drop_volatile_state() {
  index_.clear();
  committed_version_ = 0;
  min_live_version_ = 1;
  for (std::uint32_t r = 0; r < num_ranks_; ++r) {
    head_[r] = 0;
    tail_[r] = 0;
  }
}

Status NvStreamChannel::recover() {
  auto loaded = load_superblock();
  if (!loaded.has_value()) return Unexpected{loaded.error()};

  index_.clear();
  for (std::uint32_t rank = 0; rank < num_ranks_; ++rank) {
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
      if (record->version <= committed_version_) {
        auto& slots = index_[record->version];
        if (slots.empty()) slots.resize(num_ranks_);
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
