#include "stack/novafs.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/serialize.hpp"
#include "common/strings.hpp"

namespace pmemflow::stack {

namespace {

constexpr std::size_t kDirentRecordSize = 40 + 200 + 8;  // header+name+crc

}  // namespace

NovaFs::NovaFs(devices::MemoryDevice& device) : device_(device) {
  auto reserved = device_.space().reserve(kSuperblockSize);
  PMEMFLOW_ASSERT_MSG(reserved.has_value(),
                      "device too small for filesystem superblock");
  superblock_offset_ = *reserved;
  persist_superblock();
}

void NovaFs::persist_superblock() {
  ByteWriter writer;
  writer.u64(kSuperMagic);
  writer.u64(dir_head_);
  writer.u64(dir_tail_);
  writer.u64(next_inode_);
  writer.u64(hash_bytes(writer.view()));
  PMEMFLOW_ASSERT(writer.size() <= kSuperblockSize);
  device_.space().write(superblock_offset_, writer.view());
}

Expected<Ok> NovaFs::load_superblock() {
  std::vector<std::byte> raw(5 * 8);
  device_.space().read(superblock_offset_, raw);
  ByteReader reader(raw);
  if (reader.u64() != kSuperMagic) {
    return make_error("novafs: bad superblock magic");
  }
  const auto head = reader.u64();
  const auto tail = reader.u64();
  const auto next_inode = reader.u64();
  if (reader.u64() != hash_bytes(std::span(raw).subspan(0, 4 * 8))) {
    return make_error("novafs: superblock CRC mismatch");
  }
  dir_head_ = head;
  dir_tail_ = tail;
  next_inode_ = next_inode;
  return ok_status();
}

void NovaFs::write_dirent(pmemsim::PmemOffset offset,
                          const DirentRecord& record) {
  PMEMFLOW_ASSERT(record.name.size() <= kMaxNameLength);
  ByteWriter writer;
  writer.u64(kDirentMagic);
  writer.u64(record.inode);
  writer.u32(record.tombstone ? 1u : 0u);
  writer.u32(static_cast<std::uint32_t>(record.name.size()));
  writer.u64(record.inode_chain_head);
  writer.u64(record.next);
  std::vector<std::byte> name_bytes(kMaxNameLength, std::byte{0});
  std::memcpy(name_bytes.data(), record.name.data(), record.name.size());
  writer.bytes(name_bytes);
  writer.u64(hash_bytes(writer.view()));
  PMEMFLOW_ASSERT(writer.size() == kDirentRecordSize);
  device_.space().write(offset, writer.view());
}

Expected<NovaFs::DirentRecord> NovaFs::load_dirent(
    pmemsim::PmemOffset offset) const {
  std::vector<std::byte> raw(kDirentRecordSize);
  device_.space().read(offset, raw);
  ByteReader reader(raw);
  if (reader.u64() != kDirentMagic) {
    return make_error("novafs: bad dirent magic");
  }
  DirentRecord record;
  record.inode = reader.u64();
  record.tombstone = (reader.u32() & 1u) != 0;
  const std::uint32_t name_length = reader.u32();
  if (name_length > kMaxNameLength) {
    return make_error("novafs: dirent name length corrupt");
  }
  record.inode_chain_head = reader.u64();
  record.next = reader.u64();
  record.name.assign(reinterpret_cast<const char*>(raw.data()) + 40,
                     name_length);
  const std::size_t body = kDirentRecordSize - 8;
  ByteReader crc_reader{std::span(raw).subspan(body)};
  if (crc_reader.u64() != hash_bytes(std::span(raw).subspan(0, body))) {
    return make_error("novafs: dirent CRC mismatch (torn write)");
  }
  return record;
}

void NovaFs::relink_dirent(pmemsim::PmemOffset offset,
                           pmemsim::PmemOffset next) {
  auto record = load_dirent(offset);
  PMEMFLOW_ASSERT_MSG(record.has_value(), "novafs: relink target unreadable");
  record->next = next;
  write_dirent(offset, *record);  // in place: same reserved extent
}

Expected<pmemsim::PmemOffset> NovaFs::link_dirent(const DirentRecord& record,
                                                  pmemsim::PmemOffset& head,
                                                  pmemsim::PmemOffset& tail) {
  auto offset = device_.space().reserve(kDirentRecordSize);
  if (!offset.has_value()) return Unexpected{offset.error()};
  write_dirent(*offset, record);
  if (tail == 0) {
    head = *offset;
  } else {
    relink_dirent(tail, *offset);
  }
  tail = *offset;
  return *offset;
}

Expected<Ok> NovaFs::append_dirent(const DirentRecord& record) {
  auto offset = link_dirent(record, dir_head_, dir_tail_);
  if (!offset.has_value()) return Unexpected{offset.error()};
  persist_superblock();
  return ok_status();
}

Expected<NovaFs::InodeId> NovaFs::create(std::string_view path) {
  if (path.empty() || path.size() > kMaxNameLength) {
    return make_error("novafs: invalid file name");
  }
  if (names_.contains(std::string(path))) {
    return make_error(format("novafs: '%.*s' already exists",
                             static_cast<int>(path.size()), path.data()));
  }
  const InodeId id = next_inode_++;
  DirentRecord record;
  record.name = std::string(path);
  record.inode = id;
  auto appended = append_dirent(record);
  if (!appended.has_value()) return Unexpected{appended.error()};

  names_.emplace(record.name, id);
  Inode inode;
  inode.id = id;
  inodes_.emplace(id, std::move(inode));
  ++stats_.files_created;
  return id;
}

Expected<NovaFs::InodeId> NovaFs::lookup(std::string_view path) const {
  const auto it = names_.find(std::string(path));
  if (it == names_.end()) {
    return make_error(format("novafs: '%.*s' not found",
                             static_cast<int>(path.size()), path.data()));
  }
  return it->second;
}

NovaFs::Inode& NovaFs::inode_ref(InodeId inode) {
  const auto it = inodes_.find(inode);
  PMEMFLOW_ASSERT_MSG(it != inodes_.end(), "novafs: stale inode id");
  return it->second;
}

const NovaFs::Inode* NovaFs::find_inode(InodeId inode) const {
  const auto it = inodes_.find(inode);
  return it == inodes_.end() ? nullptr : &it->second;
}

void NovaFs::persist_extent_record(pmemsim::PmemOffset offset,
                                   const ExtentRecord& record) {
  ByteWriter writer;
  writer.u64(kExtentMagic);
  writer.u64(record.file_offset);
  writer.u64(record.length);
  writer.u64(record.data_offset);
  writer.u32(record.is_hole ? 1u : 0u);
  writer.u32(0);  // reserved
  writer.u64(record.next);
  writer.u64(hash_bytes(writer.view()));
  PMEMFLOW_ASSERT(writer.size() == kExtentRecordSize);
  device_.space().write(offset, writer.view());
}

Expected<NovaFs::ExtentRecord> NovaFs::load_extent_record(
    pmemsim::PmemOffset offset) const {
  std::vector<std::byte> raw(static_cast<std::size_t>(kExtentRecordSize));
  device_.space().read(offset, raw);
  ByteReader reader(raw);
  if (reader.u64() != kExtentMagic) {
    return make_error("novafs: bad extent record magic");
  }
  ExtentRecord record;
  record.file_offset = reader.u64();
  record.length = reader.u64();
  record.data_offset = reader.u64();
  record.is_hole = (reader.u32() & 1u) != 0;
  (void)reader.u32();
  record.next = reader.u64();
  const std::size_t body = static_cast<std::size_t>(kExtentRecordSize) - 8;
  if (reader.u64() != hash_bytes(std::span(raw).subspan(0, body))) {
    return make_error("novafs: extent record CRC mismatch (torn write)");
  }
  return record;
}

Expected<Ok> NovaFs::append_extent(InodeId inode_id, Bytes size,
                                   std::span<const std::byte> data,
                                   bool is_hole) {
  if (size == 0) return make_error("novafs: zero-length append");
  const auto inode_it = inodes_.find(inode_id);
  if (inode_it == inodes_.end()) {
    return make_error("novafs: no such inode");
  }
  Inode& inode = inode_it->second;

  auto data_offset = device_.space().reserve(size);
  if (!data_offset.has_value()) return Unexpected{data_offset.error()};
  if (!is_hole) {
    device_.space().write(*data_offset, data);
  }

  auto record_offset = device_.space().reserve(kExtentRecordSize);
  if (!record_offset.has_value()) return Unexpected{record_offset.error()};

  ExtentRecord record;
  record.file_offset = inode.size;
  record.length = size;
  record.data_offset = *data_offset;
  record.is_hole = is_hole;
  record.next = 0;
  persist_extent_record(*record_offset, record);

  if (inode.chain_tail == 0) {
    inode.chain_head = *record_offset;
    // The dirent carries the inode chain head, so a fresh chain head is
    // persisted as a dirent "update" append. (Real NOVA updates the
    // inode in place; the append keeps our recovery single-pass.) The
    // volatile inode keeps no back pointer to its name.
    DirentRecord update;
    for (const auto& [name, id] : names_) {
      if (id == inode_id) {
        update.name = name;
        break;
      }
    }
    PMEMFLOW_ASSERT_MSG(!update.name.empty(),
                        "novafs: inode without directory entry");
    update.inode = inode_id;
    update.inode_chain_head = *record_offset;
    auto appended = append_dirent(update);
    if (!appended.has_value()) return appended;
  } else {
    auto previous = load_extent_record(inode.chain_tail);
    PMEMFLOW_ASSERT_MSG(previous.has_value(),
                        "novafs: extent chain tail unreadable");
    previous->next = *record_offset;
    persist_extent_record(inode.chain_tail, *previous);
  }
  inode.chain_tail = *record_offset;

  Extent extent;
  extent.file_offset = inode.size;
  extent.length = size;
  extent.data_offset = *data_offset;
  extent.is_hole = is_hole;
  inode.extent_list.push_back(extent);
  inode.size += size;

  ++stats_.extents_appended;
  stats_.bytes_appended += size;
  return ok_status();
}

Expected<Ok> NovaFs::append(InodeId inode, std::span<const std::byte> data) {
  return append_extent(inode, data.size(), data, /*is_hole=*/false);
}

Expected<std::uint64_t> NovaFs::append_hole(InodeId inode, Bytes size) {
  const auto* node = find_inode(inode);
  if (node == nullptr) return make_error("novafs: no such inode");
  const std::uint64_t file_offset = node->size;
  auto appended = append_extent(inode, size, {}, /*is_hole=*/true);
  if (!appended.has_value()) return Unexpected{appended.error()};
  return file_offset;
}

Expected<Ok> NovaFs::read(InodeId inode, std::uint64_t offset,
                          std::span<std::byte> out) const {
  const auto* node = find_inode(inode);
  if (node == nullptr) return make_error("novafs: no such inode");
  if (offset + out.size() > node->size) {
    return make_error("novafs: read past end of file");
  }
  std::size_t done = 0;
  // Extents are in file order; binary-search the starting extent.
  auto it = std::upper_bound(
      node->extent_list.begin(), node->extent_list.end(), offset,
      [](std::uint64_t position, const Extent& extent) {
        return position < extent.file_offset + extent.length;
      });
  for (; it != node->extent_list.end() && done < out.size(); ++it) {
    const Extent& extent = *it;
    const std::uint64_t position = offset + done;
    PMEMFLOW_ASSERT(position >= extent.file_offset);
    const std::uint64_t within = position - extent.file_offset;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(extent.length - within, out.size() - done));
    if (extent.is_hole) {
      std::memset(out.data() + done, 0, chunk);
    } else {
      device_.space().read(extent.data_offset + within,
                           out.subspan(done, chunk));
    }
    done += chunk;
  }
  PMEMFLOW_ASSERT(done == out.size());
  stats_.bytes_read += out.size();
  return ok_status();
}

Expected<Bytes> NovaFs::file_size(InodeId inode) const {
  const auto* node = find_inode(inode);
  if (node == nullptr) return make_error("novafs: no such inode");
  return node->size;
}

Expected<std::vector<NovaFs::Extent>> NovaFs::extents(InodeId inode) const {
  const auto* node = find_inode(inode);
  if (node == nullptr) return make_error("novafs: no such inode");
  return node->extent_list;
}

Expected<Ok> NovaFs::unlink(std::string_view path) {
  const auto name_it = names_.find(std::string(path));
  if (name_it == names_.end()) {
    return make_error(format("novafs: '%.*s' not found",
                             static_cast<int>(path.size()), path.data()));
  }
  const InodeId inode_id = name_it->second;
  Inode& inode = inode_ref(inode_id);

  // Release data extents (holes too: both reserved space) and the
  // extent-record chain back to the space allocator, so unlinking
  // really frees capacity rather than leaving punched-but-reserved
  // extents behind.
  for (const Extent& extent : inode.extent_list) {
    device_.space().release(extent.data_offset, extent.length);
    stats_.bytes_reclaimed += extent.length;
  }
  for (pmemsim::PmemOffset record = inode.chain_head; record != 0;) {
    auto loaded = load_extent_record(record);
    const pmemsim::PmemOffset next =
        loaded.has_value() ? loaded->next : pmemsim::PmemOffset{0};
    device_.space().release(record, kExtentRecordSize);
    stats_.bytes_reclaimed += kExtentRecordSize;
    record = next;
  }

  DirentRecord tombstone;
  tombstone.name = name_it->first;
  tombstone.inode = inode_id;
  tombstone.tombstone = true;
  auto appended = append_dirent(tombstone);
  if (!appended.has_value()) return appended;

  names_.erase(name_it);
  inodes_.erase(inode_id);
  ++stats_.files_unlinked;
  return ok_status();
}

std::vector<std::string> NovaFs::list() const {
  std::vector<std::string> names;
  names.reserve(names_.size());
  for (const auto& [name, inode] : names_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::size_t NovaFs::directory_chain_length() const {
  std::size_t length = 0;
  pmemsim::PmemOffset offset = dir_head_;
  while (offset != 0) {
    auto record = load_dirent(offset);
    if (!record.has_value()) break;
    ++length;
    offset = record->next;
  }
  return length;
}

std::size_t NovaFs::compact_directory() {
  // Collect the old chain's record offsets, then rewrite one live
  // dirent per file (carrying the current inode-chain head) and punch
  // the old records. Log-structured compaction: the new chain is
  // written before the superblock flips to it, so a crash in between
  // recovers either the old or the new directory, never a mix.
  std::vector<pmemsim::PmemOffset> old_records;
  pmemsim::PmemOffset offset = dir_head_;
  while (offset != 0) {
    auto record = load_dirent(offset);
    if (!record.has_value()) break;
    old_records.push_back(offset);
    offset = record->next;
  }

  // Rewrite live entries (sorted for determinism).
  pmemsim::PmemOffset new_head = 0;
  pmemsim::PmemOffset new_tail = 0;
  for (const std::string& name : list()) {
    const InodeId inode_id = names_.at(name);
    const Inode& inode = inodes_.at(inode_id);
    DirentRecord record;
    record.name = name;
    record.inode = inode_id;
    record.inode_chain_head = inode.chain_head;
    auto linked = link_dirent(record, new_head, new_tail);
    PMEMFLOW_ASSERT_MSG(linked.has_value(),
                        "novafs: compaction ran out of space");
  }
  dir_head_ = new_head;
  dir_tail_ = new_tail;
  persist_superblock();

  for (const auto old_offset : old_records) {
    device_.space().release(old_offset, kDirentRecordSize);
    stats_.bytes_reclaimed += kDirentRecordSize;
  }
  return old_records.size();
}

void NovaFs::drop_volatile_state() {
  names_.clear();
  inodes_.clear();
  dir_head_ = 0;
  dir_tail_ = 0;
  next_inode_ = 1;
}

Status NovaFs::recover() {
  auto loaded = load_superblock();
  if (!loaded.has_value()) return Unexpected{loaded.error()};

  names_.clear();
  inodes_.clear();

  // Pass 1: replay the directory chain. Later records win (updates and
  // tombstones shadow earlier entries).
  pmemsim::PmemOffset offset = dir_head_;
  pmemsim::PmemOffset last_valid = 0;
  std::unordered_map<InodeId, pmemsim::PmemOffset> chain_heads;
  while (offset != 0) {
    auto record = load_dirent(offset);
    if (!record.has_value()) {
      std::fprintf(stderr,
                   "[pmemflow WARN ] novafs recovery: truncating directory "
                   "chain (%s)\n",
                   record.error().message.c_str());
      if (last_valid != 0) {
        relink_dirent(last_valid, 0);
        dir_tail_ = last_valid;
      } else {
        dir_head_ = 0;
        dir_tail_ = 0;
      }
      persist_superblock();
      break;
    }
    if (record->tombstone) {
      names_.erase(record->name);
      inodes_.erase(record->inode);
      chain_heads.erase(record->inode);
    } else {
      names_[record->name] = record->inode;
      if (!inodes_.contains(record->inode)) {
        Inode inode;
        inode.id = record->inode;
        inodes_.emplace(record->inode, std::move(inode));
      }
      if (record->inode_chain_head != 0) {
        chain_heads[record->inode] = record->inode_chain_head;
      }
      next_inode_ = std::max(next_inode_, record->inode + 1);
    }
    last_valid = offset;
    offset = record->next;
  }

  // Pass 2: replay each inode's extent chain.
  for (auto& [inode_id, inode] : inodes_) {
    const auto head_it = chain_heads.find(inode_id);
    if (head_it == chain_heads.end()) continue;
    inode.chain_head = head_it->second;
    pmemsim::PmemOffset extent_offset = inode.chain_head;
    pmemsim::PmemOffset last_extent = 0;
    while (extent_offset != 0) {
      auto record = load_extent_record(extent_offset);
      if (!record.has_value()) {
        std::fprintf(stderr,
                     "[pmemflow WARN ] novafs recovery: truncating inode %llu "
                     "chain (%s)\n",
                     static_cast<unsigned long long>(inode_id),
                     record.error().message.c_str());
        if (last_extent != 0) {
          auto previous = load_extent_record(last_extent);
          PMEMFLOW_ASSERT(previous.has_value());
          previous->next = 0;
          persist_extent_record(last_extent, *previous);
        } else {
          inode.chain_head = 0;
        }
        break;
      }
      Extent extent;
      extent.file_offset = record->file_offset;
      extent.length = record->length;
      extent.data_offset = record->data_offset;
      extent.is_hole = record->is_hole;
      inode.extent_list.push_back(extent);
      inode.size = record->file_offset + record->length;
      last_extent = extent_offset;
      extent_offset = record->next;
    }
    inode.chain_tail = last_extent;
  }
  return ok_status();
}

}  // namespace pmemflow::stack
