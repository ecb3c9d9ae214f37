#include "stack/nvstream.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>

#include "devices/optane_device.hpp"
#include "sim/task.hpp"

namespace pmemflow::stack {
namespace {

class NvStreamTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  devices::OptaneDevice device_{engine_, /*socket=*/0, 8ULL * kGiB};
  NvStreamChannel channel_{device_, "chan", /*num_ranks=*/2};

  /// Runs a writer coroutine to completion.
  void write(std::uint64_t version, std::uint32_t rank, SnapshotPart part) {
    auto writer = [&]() -> sim::Task {
      co_await channel_.write_part(/*from=*/0, version, rank,
                                   std::move(part), 0.0);
    };
    engine_.spawn(writer());
    engine_.run_to_completion();
  }

  SnapshotPart read(std::uint64_t version, std::uint32_t rank) {
    SnapshotPart out;
    auto reader = [&]() -> sim::Task {
      co_await channel_.read_part(/*from=*/1, version, rank, out, 0.0);
    };
    engine_.spawn(reader());
    engine_.run_to_completion();
    return out;
  }

  static std::vector<ObjectData> make_real_objects(int count, Bytes size,
                                                   std::uint64_t seed) {
    std::vector<ObjectData> objects;
    for (int i = 0; i < count; ++i) {
      objects.push_back(
          {static_cast<std::uint64_t>(i),
           Payload::real(Payload::generate_bytes(
               derive_seed(seed, static_cast<std::uint64_t>(i)), size))});
    }
    return objects;
  }

  /// What a scripted channel leaves on media.
  struct MediaImage {
    std::uint64_t digest = 0;  // of the bytes [0, high_water())
    Bytes reserved = 0;
    Bytes high_water = 0;
  };

  static MediaImage media_image(const pmemsim::PmemSpace& space) {
    std::vector<std::byte> bytes(static_cast<std::size_t>(space.high_water()));
    space.read(0, bytes);
    return {hash_bytes(bytes), space.reserved(), space.high_water()};
  }

  /// The part `rank` writes for `version` in a scripted stream: real
  /// objects (one to three, one record each) and synthetic runs
  /// alternate by rank and version.
  static SnapshotPart scripted_part(std::uint64_t version,
                                    std::uint32_t rank) {
    if ((rank + version) % 2 == 0) {
      return make_real_objects(1 + static_cast<int>(rank % 3),
                               256 + 64 * rank, derive_seed(version, rank));
    }
    return SyntheticRun{.first_index = 10 * version,
                        .count = 4 + rank,
                        .object_size = 4608,
                        .base_seed = derive_seed(version, rank, 7)};
  }

  /// A channel over `ranks` ranks on a fresh device that writes scripted
  /// parts, commits in order and keeps the last two versions live.
  struct ScriptedStream {
    explicit ScriptedStream(std::uint32_t ranks)
        : channel{device, "scripted", ranks} {}

    /// Writes `version` on ranks [0, count), concurrently.
    void write(std::uint64_t version, std::uint32_t count) {
      for (std::uint32_t r = 0; r < count; ++r) {
        engine.spawn(channel.write_part(/*from=*/0, version, r,
                                        scripted_part(version, r), 0.0));
      }
      engine.run_to_completion();
    }

    /// `rank`'s part of `version`, or nullopt when reading it throws.
    std::optional<SnapshotPart> read(std::uint64_t version,
                                     std::uint32_t rank) {
      std::optional<SnapshotPart> out;
      auto reader = [&]() -> sim::Task {
        SnapshotPart part;
        try {
          co_await channel.read_part(/*from=*/1, version, rank, part, 0.0);
          out = std::move(part);
        } catch (const std::runtime_error&) {
        }
      };
      engine.spawn(reader());
      engine.run_to_completion();
      return out;
    }

    /// Every live committed version reads back whole on every rank; the
    /// next version does not read at all.
    void expect_live_versions_read_back() {
      const std::uint64_t committed = channel.committed_version();
      for (std::uint64_t v = channel.min_live_version(); v <= committed;
           ++v) {
        for (std::uint32_t r = 0; r < channel.num_ranks(); ++r) {
          EXPECT_EQ(read(v, r), scripted_part(v, r))
              << "version " << v << " rank " << r;
        }
      }
      EXPECT_FALSE(read(committed + 1, 0).has_value());
      EXPECT_EQ(channel.stats().checksum_failures, 0u);
    }

    void crash() {
      channel.drop_volatile_state();
      EXPECT_TRUE(channel.recover().has_value());
    }

    sim::Engine engine;
    devices::OptaneDevice device{engine, /*socket=*/0, 8ULL * kGiB};
    NvStreamChannel channel;
  };

  /// Runs `versions` versions over `ranks` ranks on a scripted stream:
  /// every rank writes, the version commits and reads back, and versions
  /// older than the last two are recycled. A crash and recovery follows
  /// version `crash_after` (0 = none) and the last version. `checkpoint`
  /// sees the space after every commit, recycle and recovery.
  /// high_water() >= reserved(), so an image also covers the extents
  /// that recycling released below the mark.
  static MediaImage scripted_media_image(
      std::uint32_t ranks, std::uint64_t versions = 5,
      std::uint64_t crash_after = 0,
      const std::function<void(const pmemsim::PmemSpace&)>& checkpoint =
          [](const pmemsim::PmemSpace&) {}) {
    ScriptedStream stream(ranks);
    const pmemsim::PmemSpace& space = stream.device.space();
    const auto crash = [&] {
      stream.crash();
      checkpoint(space);
      stream.expect_live_versions_read_back();
    };
    for (std::uint64_t v = 1; v <= versions; ++v) {
      stream.write(v, ranks);
      stream.channel.commit_version(v);
      checkpoint(space);
      stream.expect_live_versions_read_back();
      if (v >= 3) {
        stream.channel.recycle_version(v - 2);
        checkpoint(space);
      }
      if (v == crash_after) crash();
    }
    crash();
    return media_image(space);
  }
};

TEST_F(NvStreamTest, OnMediaImageIsPinned) {
  // Captured once; the superblock and record layouts, their CRCs, the
  // tail relink on append and the extent reuse after recycling must
  // all leave exactly these bytes.
  const MediaImage eight = scripted_media_image(8);
  EXPECT_EQ(eight.digest, 0x2b0a848ff15b2c57ULL);
  EXPECT_EQ(eight.reserved, 294'176u);
  EXPECT_EQ(eight.high_water, 479'264u);
  const MediaImage twenty_four = scripted_media_image(24);
  EXPECT_EQ(twenty_four.digest, 0xb138b0366320996aULL);
  EXPECT_EQ(twenty_four.reserved, 1'777'920u);
  EXPECT_EQ(twenty_four.high_water, 2'760'320u);
}

TEST_F(NvStreamTest, ImageAtEveryCommitIsPinned) {
  // Captured once, like OnMediaImageIsPinned, but folded after every
  // commit, every recycle and each recovery, one of them mid-stream:
  // what is on media at each of those points must not change, only how
  // the channel gets there.
  const auto rolling_digest = [](std::uint32_t ranks) {
    Hasher64 digest;
    scripted_media_image(ranks, /*versions=*/8, /*crash_after=*/4,
                         [&](const pmemsim::PmemSpace& space) {
                           const MediaImage image = media_image(space);
                           digest.update_u64(image.digest);
                           digest.update_u64(image.reserved);
                         });
    return digest.digest();
  };
  EXPECT_EQ(rolling_digest(8), 0xd7943390d86e4c79ULL);
  EXPECT_EQ(rolling_digest(24), 0x50f77f354ece21e4ULL);
}

TEST_F(NvStreamTest, RecoversAfterEveryAppend) {
  // Crashes version v after each of 0..R part appends, then runs four
  // more versions and crashes again at a version boundary. Recovery must
  // drop the in-flight records and hand their extents back, and what
  // was committed must survive the next recycles and the next crash.
  for (const std::uint32_t ranks : {3u, 8u}) {
    for (std::uint64_t crashed = 1; crashed <= 5; ++crashed) {
      for (std::uint32_t appended = 0; appended <= ranks; ++appended) {
        SCOPED_TRACE(::testing::Message()
                     << ranks << " ranks, crash after " << appended
                     << " appends of version " << crashed);
        ScriptedStream stream(ranks);
        const auto run = [&](std::uint64_t version) {
          stream.write(version, ranks);
          stream.channel.commit_version(version);
          if (version >= 3) stream.channel.recycle_version(version - 2);
        };
        for (std::uint64_t v = 1; v < crashed; ++v) run(v);
        const Bytes reserved = stream.device.space().reserved();
        stream.write(crashed, appended);
        stream.crash();
        EXPECT_EQ(stream.channel.committed_version(), crashed - 1);
        EXPECT_EQ(stream.device.space().reserved(), reserved);
        stream.expect_live_versions_read_back();

        for (std::uint64_t v = crashed; v < crashed + 4; ++v) run(v);
        stream.crash();
        EXPECT_EQ(stream.channel.committed_version(), crashed + 3);
        stream.expect_live_versions_read_back();
      }
    }
  }
}

TEST_F(NvStreamTest, RealObjectsRoundTrip) {
  auto objects = make_real_objects(5, 1024, 7);
  const auto originals = objects;
  write(1, 0, SnapshotPart(std::move(objects)));
  channel_.commit_version(1);

  const SnapshotPart result = read(1, 0);
  const auto& loaded = std::get<std::vector<ObjectData>>(result);
  ASSERT_EQ(loaded.size(), originals.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].index, originals[i].index);
    EXPECT_EQ(loaded[i].payload.checksum(), originals[i].payload.checksum());
    EXPECT_EQ(loaded[i].payload.materialize(),
              originals[i].payload.materialize());
  }
  EXPECT_EQ(channel_.stats().objects_written, 5u);
  EXPECT_EQ(channel_.stats().objects_read, 5u);
  EXPECT_EQ(channel_.stats().checksum_failures, 0u);
}

TEST_F(NvStreamTest, SyntheticRunRoundTrip) {
  SyntheticRun run{.first_index = 0, .count = 50'000, .object_size = 4608,
                   .base_seed = 99};
  write(1, 0, SnapshotPart(run));
  channel_.commit_version(1);

  const SnapshotPart result = read(1, 0);
  const auto& loaded = std::get<SyntheticRun>(result);
  EXPECT_EQ(loaded, run);
}

TEST_F(NvStreamTest, SyntheticRunDoesNotMaterializePayload) {
  SyntheticRun run{.first_index = 0, .count = 100'000, .object_size = 4608,
                   .base_seed = 1};
  const Bytes before = device_.space().materialized();
  write(1, 0, SnapshotPart(run));
  // ~460 MB of logical payload; only metadata pages may materialize.
  EXPECT_LT(device_.space().materialized() - before, 1 * kMiB);
}

TEST_F(NvStreamTest, PerRankPartsAreIndependent) {
  write(1, 0, SnapshotPart(make_real_objects(3, 256, 1)));
  write(1, 1, SnapshotPart(make_real_objects(4, 512, 2)));
  channel_.commit_version(1);

  EXPECT_EQ(std::get<std::vector<ObjectData>>(read(1, 0)).size(), 3u);
  EXPECT_EQ(std::get<std::vector<ObjectData>>(read(1, 1)).size(), 4u);
}

TEST_F(NvStreamTest, MultipleVersions) {
  for (std::uint64_t v = 1; v <= 3; ++v) {
    write(v, 0, SnapshotPart(make_real_objects(2, 128, v)));
    write(v, 1, SnapshotPart(make_real_objects(2, 128, v + 100)));
    channel_.commit_version(v);
  }
  EXPECT_EQ(channel_.committed_version(), 3u);
  for (std::uint64_t v = 1; v <= 3; ++v) {
    EXPECT_EQ(std::get<std::vector<ObjectData>>(read(v, 0)).size(), 2u);
  }
}

TEST_F(NvStreamTest, ReadingUncommittedVersionThrows) {
  write(1, 0, SnapshotPart(make_real_objects(1, 64, 1)));
  bool threw = false;
  auto reader = [&]() -> sim::Task {
    SnapshotPart out;
    try {
      co_await channel_.read_part(0, 1, 0, out, 0.0);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  };
  engine_.spawn(reader());
  engine_.run_to_completion();
  EXPECT_TRUE(threw);
}

TEST_F(NvStreamTest, RecycleReleasesStorageAndBlocksReads) {
  write(1, 0, SnapshotPart(make_real_objects(4, 64 * kKiB, 5)));
  write(1, 1, SnapshotPart(make_real_objects(4, 64 * kKiB, 6)));
  channel_.commit_version(1);
  const Bytes before = device_.space().materialized();
  channel_.recycle_version(1);
  EXPECT_LT(device_.space().materialized(), before);
  EXPECT_EQ(channel_.min_live_version(), 2u);

  bool threw = false;
  auto reader = [&]() -> sim::Task {
    SnapshotPart out;
    try {
      co_await channel_.read_part(0, 1, 0, out, 0.0);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  };
  engine_.spawn(reader());
  engine_.run_to_completion();
  EXPECT_TRUE(threw);
}

TEST_F(NvStreamTest, RecoveryRebuildsIndex) {
  write(1, 0, SnapshotPart(make_real_objects(3, 256, 1)));
  write(1, 1, SnapshotPart(make_real_objects(3, 256, 2)));
  channel_.commit_version(1);
  write(2, 0, SnapshotPart(make_real_objects(2, 256, 3)));
  write(2, 1, SnapshotPart(make_real_objects(2, 256, 4)));
  channel_.commit_version(2);

  channel_.drop_volatile_state();
  auto recovered = channel_.recover();
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(channel_.committed_version(), 2u);

  EXPECT_EQ(std::get<std::vector<ObjectData>>(read(1, 0)).size(), 3u);
  EXPECT_EQ(std::get<std::vector<ObjectData>>(read(2, 1)).size(), 2u);
}

TEST_F(NvStreamTest, RecoveryDiscardsUncommittedTail) {
  write(1, 0, SnapshotPart(make_real_objects(3, 256, 1)));
  write(1, 1, SnapshotPart(make_real_objects(3, 256, 2)));
  channel_.commit_version(1);
  // Version 2 written but *not* committed before the "crash".
  write(2, 0, SnapshotPart(make_real_objects(2, 256, 3)));

  channel_.drop_volatile_state();
  ASSERT_TRUE(channel_.recover().has_value());
  EXPECT_EQ(channel_.committed_version(), 1u);

  // Version 1 readable, version 2 not.
  EXPECT_EQ(std::get<std::vector<ObjectData>>(read(1, 0)).size(), 3u);
  bool threw = false;
  auto reader = [&]() -> sim::Task {
    SnapshotPart out;
    try {
      co_await channel_.read_part(0, 2, 0, out, 0.0);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  };
  engine_.spawn(reader());
  engine_.run_to_completion();
  EXPECT_TRUE(threw);
}

TEST_F(NvStreamTest, RecoveryTruncatesTornRecord) {
  write(1, 0, SnapshotPart(make_real_objects(2, 128, 1)));
  write(1, 1, SnapshotPart(make_real_objects(2, 128, 2)));
  channel_.commit_version(1);
  write(2, 0, SnapshotPart(make_real_objects(1, 128, 3)));

  // Corrupt the most recent record of rank 0's chain: flip bytes near
  // the end of reserved space (the last record written).
  const Bytes reserved = device_.space().reserved();
  std::vector<std::byte> garbage(32, std::byte{0xde});
  device_.space().write(reserved - 96 /* record size */, garbage);

  channel_.drop_volatile_state();
  ASSERT_TRUE(channel_.recover().has_value());
  // Committed version 1 must still be fully readable.
  EXPECT_EQ(std::get<std::vector<ObjectData>>(read(1, 0)).size(), 2u);
  EXPECT_EQ(std::get<std::vector<ObjectData>>(read(1, 1)).size(), 2u);
}

TEST_F(NvStreamTest, CorruptedPayloadFailsChecksum) {
  write(1, 0, SnapshotPart(make_real_objects(1, 4096, 42)));
  channel_.commit_version(1);

  // Stomp on payload bytes. The payload extent for the single object is
  // right after the superblock (8 KiB) and before its record.
  std::vector<std::byte> garbage(128, std::byte{0x55});
  device_.space().write(8 * kKiB + 100, garbage);

  bool threw = false;
  auto reader = [&]() -> sim::Task {
    SnapshotPart out;
    try {
      co_await channel_.read_part(0, 1, 0, out, 0.0);
    } catch (const std::runtime_error& error) {
      threw = std::string(error.what()).find("checksum") !=
              std::string::npos;
    }
  };
  engine_.spawn(reader());
  engine_.run_to_completion();
  EXPECT_TRUE(threw);
  EXPECT_EQ(channel_.stats().checksum_failures, 1u);
}

TEST_F(NvStreamTest, WriteChargesSimulatedTime) {
  const SimTime before = engine_.now();
  write(1, 0, SnapshotPart(SyntheticRun{.first_index = 0, .count = 16,
                                        .object_size = 64 * kMB,
                                        .base_seed = 1}));
  // 1 GiB at single-writer rate (~3.475 GB/s) is ~0.3 s of simulated time.
  EXPECT_GT(engine_.now() - before, 200 * kMillisecond);
}

TEST_F(NvStreamTest, CommitOutOfOrderAborts) {
  write(1, 0, SnapshotPart(make_real_objects(1, 64, 1)));
  EXPECT_DEATH(channel_.commit_version(2), "order");
}

}  // namespace
}  // namespace pmemflow::stack
