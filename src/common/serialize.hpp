// Little-endian POD serialization into byte buffers.
//
// Storage stacks persist their on-PMEM structures (superblocks, log
// records, inode entries) through these helpers instead of memcpy'ing
// structs, keeping layouts explicit and padding-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace pmemflow {

/// Appends fixed-width little-endian fields to a growing buffer.
class ByteWriter {
 public:
  /// Pre-sizes the buffer for `bytes` bytes of fields, so a writer of a
  /// known layout allocates once.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  void u8(std::uint8_t value) { buffer_.push_back(std::byte{value}); }

  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<std::byte>((value >> (8 * i)) & 0xff));
    }
  }

  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<std::byte>((value >> (8 * i)) & 0xff));
    }
  }

  void bytes(std::span<const std::byte> data) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
  }

  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::span<const std::byte> view() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::byte> take() && {
    return std::move(buffer_);
  }

 private:
  std::vector<std::byte> buffer_;
};

/// Reads fixed-width little-endian fields from a buffer. Out-of-bounds
/// reads are programming errors (callers size their reads from layout
/// constants) and abort.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    PMEMFLOW_ASSERT_MSG(position_ + 1 <= data_.size(), "short read");
    return static_cast<std::uint8_t>(data_[position_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    PMEMFLOW_ASSERT_MSG(position_ + 4 <= data_.size(), "short read");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(data_[position_++]) << (8 * i);
    }
    return value;
  }

  [[nodiscard]] std::uint64_t u64() {
    PMEMFLOW_ASSERT_MSG(position_ + 8 <= data_.size(), "short read");
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(data_[position_++]) << (8 * i);
    }
    return value;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - position_;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t position_ = 0;
};

}  // namespace pmemflow
