#include "stack/novafs.hpp"

#include <gtest/gtest.h>

#include "devices/optane_device.hpp"
#include "stack/payload.hpp"

namespace pmemflow::stack {
namespace {

class NovaFsTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  devices::OptaneDevice device_{engine_, 0, 4ULL * kGiB};
  NovaFs fs_{device_};

  std::vector<std::byte> data(std::uint64_t seed, std::size_t size) {
    return Payload::generate_bytes(seed, size);
  }
};

TEST_F(NovaFsTest, CreateAndLookup) {
  auto created = fs_.create("checkpoint.dat");
  ASSERT_TRUE(created.has_value());
  auto found = fs_.lookup("checkpoint.dat");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*created, *found);
  EXPECT_EQ(fs_.file_count(), 1u);
}

TEST_F(NovaFsTest, CreateDuplicateFails) {
  ASSERT_TRUE(fs_.create("f").has_value());
  auto duplicate = fs_.create("f");
  ASSERT_FALSE(duplicate.has_value());
  EXPECT_NE(duplicate.error().message.find("exists"), std::string::npos);
}

TEST_F(NovaFsTest, LookupMissingFails) {
  EXPECT_FALSE(fs_.lookup("nope").has_value());
}

TEST_F(NovaFsTest, EmptyAndOverlongNamesRejected) {
  EXPECT_FALSE(fs_.create("").has_value());
  EXPECT_FALSE(fs_.create(std::string(300, 'x')).has_value());
}

TEST_F(NovaFsTest, AppendAndReadBack) {
  const auto inode = fs_.create("f").value();
  const auto payload = data(1, 10000);
  ASSERT_TRUE(fs_.append(inode, payload).has_value());
  EXPECT_EQ(fs_.file_size(inode).value(), 10000u);

  std::vector<std::byte> out(10000);
  ASSERT_TRUE(fs_.read(inode, 0, out).has_value());
  EXPECT_EQ(out, payload);
}

TEST_F(NovaFsTest, MultipleAppendsFormContiguousFile) {
  const auto inode = fs_.create("f").value();
  const auto first = data(1, 5000);
  const auto second = data(2, 3000);
  ASSERT_TRUE(fs_.append(inode, first).has_value());
  ASSERT_TRUE(fs_.append(inode, second).has_value());
  EXPECT_EQ(fs_.file_size(inode).value(), 8000u);

  std::vector<std::byte> out(8000);
  ASSERT_TRUE(fs_.read(inode, 0, out).has_value());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), out.begin()));
  EXPECT_TRUE(std::equal(second.begin(), second.end(), out.begin() + 5000));
}

TEST_F(NovaFsTest, ReadAtOffsetAcrossExtents) {
  const auto inode = fs_.create("f").value();
  ASSERT_TRUE(fs_.append(inode, data(1, 4000)).has_value());
  ASSERT_TRUE(fs_.append(inode, data(2, 4000)).has_value());

  std::vector<std::byte> out(2000);
  ASSERT_TRUE(fs_.read(inode, 3000, out).has_value());
  const auto first = data(1, 4000);
  const auto second = data(2, 4000);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 1000,
                         first.begin() + 3000));
  EXPECT_TRUE(std::equal(out.begin() + 1000, out.end(), second.begin()));
}

TEST_F(NovaFsTest, ReadPastEndFails) {
  const auto inode = fs_.create("f").value();
  ASSERT_TRUE(fs_.append(inode, data(1, 100)).has_value());
  std::vector<std::byte> out(101);
  EXPECT_FALSE(fs_.read(inode, 0, out).has_value());
  EXPECT_FALSE(fs_.read(inode, 100, std::span(out).subspan(0, 1))
                   .has_value());
}

TEST_F(NovaFsTest, HolesReadAsZero) {
  const auto inode = fs_.create("f").value();
  auto offset = fs_.append_hole(inode, 100 * kMiB);
  ASSERT_TRUE(offset.has_value());
  EXPECT_EQ(*offset, 0u);
  EXPECT_EQ(fs_.file_size(inode).value(), 100 * kMiB);
  // Holes must not materialize host memory.
  EXPECT_LT(device_.space().materialized(), 1 * kMiB);

  std::vector<std::byte> out(4096, std::byte{0xff});
  ASSERT_TRUE(fs_.read(inode, 50 * kMiB, out).has_value());
  for (std::byte b : out) ASSERT_EQ(b, std::byte{0});
}

TEST_F(NovaFsTest, MixedDataAndHoles) {
  const auto inode = fs_.create("f").value();
  const auto head = data(1, 1000);
  ASSERT_TRUE(fs_.append(inode, head).has_value());
  ASSERT_TRUE(fs_.append_hole(inode, 5000).has_value());
  const auto tail = data(2, 1000);
  ASSERT_TRUE(fs_.append(inode, tail).has_value());

  std::vector<std::byte> out(7000);
  ASSERT_TRUE(fs_.read(inode, 0, out).has_value());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), out.begin()));
  for (std::size_t i = 1000; i < 6000; ++i) {
    ASSERT_EQ(out[i], std::byte{0});
  }
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), out.begin() + 6000));
}

TEST_F(NovaFsTest, ExtentListMatchesAppends) {
  const auto inode = fs_.create("f").value();
  ASSERT_TRUE(fs_.append(inode, data(1, 128)).has_value());
  ASSERT_TRUE(fs_.append_hole(inode, 256).has_value());
  const auto extents = fs_.extents(inode).value();
  ASSERT_EQ(extents.size(), 2u);
  EXPECT_EQ(extents[0].file_offset, 0u);
  EXPECT_EQ(extents[0].length, 128u);
  EXPECT_FALSE(extents[0].is_hole);
  EXPECT_EQ(extents[1].file_offset, 128u);
  EXPECT_EQ(extents[1].length, 256u);
  EXPECT_TRUE(extents[1].is_hole);
}

TEST_F(NovaFsTest, UnlinkRemovesNameAndReclaimsPages) {
  const auto inode = fs_.create("f").value();
  ASSERT_TRUE(fs_.append(inode, data(1, 1 * kMiB)).has_value());
  const Bytes materialized = device_.space().materialized();
  ASSERT_TRUE(fs_.unlink("f").has_value());
  EXPECT_FALSE(fs_.lookup("f").has_value());
  EXPECT_LT(device_.space().materialized(), materialized);
  EXPECT_EQ(fs_.file_count(), 0u);
}

TEST_F(NovaFsTest, UnlinkedNameCanBeRecreated) {
  ASSERT_TRUE(fs_.create("f").has_value());
  ASSERT_TRUE(fs_.unlink("f").has_value());
  EXPECT_TRUE(fs_.create("f").has_value());
}

TEST_F(NovaFsTest, RecoveryRebuildsFilesAndContent) {
  const auto a = fs_.create("a").value();
  const auto payload_a = data(1, 12345);
  ASSERT_TRUE(fs_.append(a, payload_a).has_value());
  const auto b = fs_.create("b").value();
  ASSERT_TRUE(fs_.append(b, data(2, 100)).has_value());
  ASSERT_TRUE(fs_.append(b, data(3, 200)).has_value());
  ASSERT_TRUE(fs_.unlink("b").has_value());

  fs_.drop_volatile_state();
  ASSERT_TRUE(fs_.recover().has_value());

  // "a" intact with content; "b" gone.
  const auto recovered = fs_.lookup("a");
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(fs_.file_size(*recovered).value(), 12345u);
  std::vector<std::byte> out(12345);
  ASSERT_TRUE(fs_.read(*recovered, 0, out).has_value());
  EXPECT_EQ(out, payload_a);
  EXPECT_FALSE(fs_.lookup("b").has_value());
}

TEST_F(NovaFsTest, RecoveryPreservesInodeNumbering) {
  (void)fs_.create("a").value();
  (void)fs_.create("b").value();
  fs_.drop_volatile_state();
  ASSERT_TRUE(fs_.recover().has_value());
  const auto c = fs_.create("c").value();
  EXPECT_GT(c, fs_.lookup("b").value());
}

TEST_F(NovaFsTest, RecoveryTruncatesTornDirectoryTail) {
  (void)fs_.create("a").value();
  (void)fs_.create("b").value();
  // Corrupt the most recent dirent record (last reservation).
  const Bytes reserved = device_.space().reserved();
  std::vector<std::byte> garbage(64, std::byte{0xba});
  device_.space().write(reserved - 248, garbage);

  fs_.drop_volatile_state();
  ASSERT_TRUE(fs_.recover().has_value());
  EXPECT_TRUE(fs_.lookup("a").has_value());
  EXPECT_FALSE(fs_.lookup("b").has_value());
}

TEST_F(NovaFsTest, ManyFilesSurviveRecovery) {
  for (int i = 0; i < 200; ++i) {
    const auto inode = fs_.create("file" + std::to_string(i)).value();
    ASSERT_TRUE(fs_.append(inode, data(static_cast<std::uint64_t>(i), 64))
                    .has_value());
  }
  fs_.drop_volatile_state();
  ASSERT_TRUE(fs_.recover().has_value());
  EXPECT_EQ(fs_.file_count(), 200u);
  for (int i = 0; i < 200; ++i) {
    const auto inode = fs_.lookup("file" + std::to_string(i));
    ASSERT_TRUE(inode.has_value());
    std::vector<std::byte> out(64);
    ASSERT_TRUE(fs_.read(*inode, 0, out).has_value());
    EXPECT_EQ(out, data(static_cast<std::uint64_t>(i), 64));
  }
}

TEST_F(NovaFsTest, ListReturnsSortedLiveNames) {
  (void)fs_.create("bravo").value();
  (void)fs_.create("alpha").value();
  (void)fs_.create("charlie").value();
  ASSERT_TRUE(fs_.unlink("bravo").has_value());
  EXPECT_EQ(fs_.list(), (std::vector<std::string>{"alpha", "charlie"}));
}

TEST_F(NovaFsTest, CompactionShrinksDirectoryChain) {
  // Churn: create+unlink leaves tombstones and shadowed entries.
  for (int i = 0; i < 20; ++i) {
    const auto name = "tmp" + std::to_string(i);
    const auto inode = fs_.create(name).value();
    ASSERT_TRUE(fs_.append(inode, data(static_cast<std::uint64_t>(i), 64))
                    .has_value());
    ASSERT_TRUE(fs_.unlink(name).has_value());
  }
  const auto keeper = fs_.create("keep").value();
  ASSERT_TRUE(fs_.append(keeper, data(99, 256)).has_value());

  const std::size_t before = fs_.directory_chain_length();
  EXPECT_GT(before, 10u);
  const std::size_t reclaimed = fs_.compact_directory();
  EXPECT_EQ(reclaimed, before);
  EXPECT_EQ(fs_.directory_chain_length(), 1u);

  // Content survives compaction...
  std::vector<std::byte> out(256);
  ASSERT_TRUE(fs_.read(fs_.lookup("keep").value(), 0, out).has_value());
  EXPECT_EQ(out, data(99, 256));
}

TEST_F(NovaFsTest, CompactionSurvivesRecovery) {
  for (int i = 0; i < 5; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    const auto inode = fs_.create(name).value();
    ASSERT_TRUE(fs_.append(inode, data(static_cast<std::uint64_t>(i), 128))
                    .has_value());
  }
  ASSERT_TRUE(fs_.unlink("f2").has_value());
  (void)fs_.compact_directory();

  fs_.drop_volatile_state();
  ASSERT_TRUE(fs_.recover().has_value());
  EXPECT_EQ(fs_.list(),
            (std::vector<std::string>{"f0", "f1", "f3", "f4"}));
  std::vector<std::byte> out(128);
  ASSERT_TRUE(fs_.read(fs_.lookup("f3").value(), 0, out).has_value());
  EXPECT_EQ(out, data(3, 128));
}

TEST_F(NovaFsTest, CompactionOfEmptyFsIsSafe) {
  EXPECT_EQ(fs_.compact_directory(), 0u);
  EXPECT_TRUE(fs_.create("after").has_value());
}

TEST_F(NovaFsTest, StatsTrackOperations) {
  const auto inode = fs_.create("f").value();
  ASSERT_TRUE(fs_.append(inode, data(1, 1000)).has_value());
  std::vector<std::byte> out(500);
  ASSERT_TRUE(fs_.read(inode, 0, out).has_value());
  EXPECT_EQ(fs_.stats().files_created, 1u);
  EXPECT_EQ(fs_.stats().extents_appended, 1u);
  EXPECT_EQ(fs_.stats().bytes_appended, 1000u);
  EXPECT_EQ(fs_.stats().bytes_read, 500u);
}

}  // namespace
}  // namespace pmemflow::stack
