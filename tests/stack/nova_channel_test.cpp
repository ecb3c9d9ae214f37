#include "stack/nova_channel.hpp"

#include <gtest/gtest.h>

#include "devices/optane_device.hpp"
#include "sim/task.hpp"
#include "stack/nvstream.hpp"

namespace pmemflow::stack {
namespace {

class NovaChannelTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  devices::OptaneDevice device_{engine_, 0, 8ULL * kGiB};
  NovaChannel channel_{device_, "chan", /*num_ranks=*/2};

  void write(std::uint64_t version, std::uint32_t rank, SnapshotPart part) {
    auto writer = [&]() -> sim::Task {
      co_await channel_.write_part(0, version, rank, std::move(part), 0.0);
    };
    engine_.spawn(writer());
    engine_.run_to_completion();
  }

  SnapshotPart read(std::uint64_t version, std::uint32_t rank) {
    SnapshotPart out;
    auto reader = [&]() -> sim::Task {
      co_await channel_.read_part(1, version, rank, out, 0.0);
    };
    engine_.spawn(reader());
    engine_.run_to_completion();
    return out;
  }

  /// What a scripted channel leaves on media.
  struct MediaImage {
    std::uint64_t digest = 0;  // of the bytes [0, high_water())
    Bytes reserved = 0;
    Bytes high_water = 0;
  };

  /// Runs five versions over `ranks` ranks on a fresh device: every
  /// rank writes (real objects, synthetic objects and synthetic runs
  /// rotate by rank and version), the version commits, every rank reads
  /// it back, and versions older than the last two are recycled. Ends
  /// with a directory compaction and a filesystem crash and recovery.
  /// high_water() >= reserved(), so the digest also covers the extents
  /// that unlinks and compaction released below the mark.
  static MediaImage scripted_media_image(std::uint32_t ranks) {
    sim::Engine engine;
    devices::OptaneDevice device{engine, /*socket=*/0, 8ULL * kGiB};
    NovaChannel channel{device, "pinned", ranks};
    const auto read_all = [&](std::uint64_t version) {
      std::vector<SnapshotPart> parts(ranks);
      for (std::uint32_t r = 0; r < ranks; ++r) {
        engine.spawn(channel.read_part(/*from=*/1, version, r, parts[r], 0.0));
      }
      engine.run_to_completion();
      EXPECT_EQ(channel.stats().checksum_failures, 0u);
    };
    for (std::uint64_t v = 1; v <= 5; ++v) {
      for (std::uint32_t r = 0; r < ranks; ++r) {
        const std::uint64_t seed = derive_seed(v, r);
        const auto objects = static_cast<std::uint64_t>(1 + r % 3);
        SnapshotPart part;
        if ((r + v) % 3 == 0) {
          std::vector<ObjectData> real;
          for (std::uint64_t i = 0; i < objects; ++i) {
            real.push_back({i, Payload::real(Payload::generate_bytes(
                                   derive_seed(seed, i), 256 + 64 * r))});
          }
          part = std::move(real);
        } else if ((r + v) % 3 == 1) {
          std::vector<ObjectData> synthetic;
          for (std::uint64_t i = 0; i < objects; ++i) {
            synthetic.push_back(
                {i, Payload::synthetic(derive_seed(seed, i), 2048 + 8 * r)});
          }
          part = std::move(synthetic);
        } else {
          part = SyntheticRun{.first_index = 10 * v,
                              .count = 4 + r,
                              .object_size = 4608,
                              .base_seed = derive_seed(v, r, 7)};
        }
        engine.spawn(channel.write_part(/*from=*/0, v, r, std::move(part),
                                        0.0));
      }
      engine.run_to_completion();
      channel.commit_version(v);
      read_all(v);
      if (v >= 3) channel.recycle_version(v - 2);
    }
    NovaFs& fs = channel.filesystem();
    EXPECT_GT(fs.compact_directory(), 0u);
    fs.drop_volatile_state();
    EXPECT_TRUE(fs.recover().has_value());
    read_all(5);

    const pmemsim::PmemSpace& space = device.space();
    std::vector<std::byte> bytes(static_cast<std::size_t>(space.high_water()));
    space.read(0, bytes);
    return {hash_bytes(bytes), space.reserved(), space.high_water()};
  }
};

TEST_F(NovaChannelTest, OnMediaImageIsPinned) {
  // Captured once; the dirent, extent-record and index-entry layouts,
  // their CRCs, the chain relinks, the unlink tombstones, compaction and
  // the extent reuse after recycling must all leave exactly these bytes.
  const MediaImage eight = scripted_media_image(8);
  EXPECT_EQ(eight.digest, 0xb4430e9aa1f8fae7ULL);
  EXPECT_EQ(eight.reserved, 248'984u);
  EXPECT_EQ(eight.high_water, 400'760u);
  const MediaImage twenty_four = scripted_media_image(24);
  EXPECT_EQ(twenty_four.digest, 0xb03be9988e7ec518ULL);
  EXPECT_EQ(twenty_four.reserved, 1'259'840u);
  EXPECT_EQ(twenty_four.high_water, 2'083'320u);
}

TEST_F(NovaChannelTest, RealObjectsRoundTrip) {
  std::vector<ObjectData> objects;
  for (int i = 0; i < 4; ++i) {
    objects.push_back({static_cast<std::uint64_t>(i),
                       Payload::real(Payload::generate_bytes(
                           static_cast<std::uint64_t>(i + 1), 2048))});
  }
  const auto originals = objects;
  write(1, 0, SnapshotPart(std::move(objects)));
  channel_.commit_version(1);

  const SnapshotPart result = read(1, 0);
  const auto& loaded = std::get<std::vector<ObjectData>>(result);
  ASSERT_EQ(loaded.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded[i].payload.materialize(),
              originals[i].payload.materialize());
  }
}

TEST_F(NovaChannelTest, SyntheticRunRoundTrip) {
  SyntheticRun run{.first_index = 0, .count = 33'000, .object_size = 4608,
                   .base_seed = 12};
  write(1, 0, SnapshotPart(run));
  channel_.commit_version(1);
  EXPECT_EQ(std::get<SyntheticRun>(read(1, 0)), run);
}

TEST_F(NovaChannelTest, FilesAppearPerVersionAndRank) {
  write(1, 0, SnapshotPart(SyntheticRun{.first_index = 0, .count = 10,
                                        .object_size = 100, .base_seed = 1}));
  write(1, 1, SnapshotPart(SyntheticRun{.first_index = 0, .count = 10,
                                        .object_size = 100, .base_seed = 2}));
  channel_.commit_version(1);
  EXPECT_TRUE(channel_.filesystem().lookup("v1/r0.idx").has_value());
  EXPECT_TRUE(channel_.filesystem().lookup("v1/r0.dat").has_value());
  EXPECT_TRUE(channel_.filesystem().lookup("v1/r1.idx").has_value());
  EXPECT_EQ(channel_.filesystem().file_count(), 4u);
}

TEST_F(NovaChannelTest, RecycleUnlinksFiles) {
  write(1, 0, SnapshotPart(SyntheticRun{.first_index = 0, .count = 10,
                                        .object_size = 100, .base_seed = 1}));
  write(1, 1, SnapshotPart(SyntheticRun{.first_index = 0, .count = 10,
                                        .object_size = 100, .base_seed = 2}));
  channel_.commit_version(1);
  channel_.recycle_version(1);
  EXPECT_FALSE(channel_.filesystem().lookup("v1/r0.idx").has_value());
  EXPECT_EQ(channel_.filesystem().file_count(), 0u);

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

TEST_F(NovaChannelTest, UncommittedReadThrows) {
  write(1, 0, SnapshotPart(SyntheticRun{.first_index = 0, .count = 1,
                                        .object_size = 64, .base_seed = 1}));
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

TEST_F(NovaChannelTest, NovaSlowerThanNvstreamForSmallObjects) {
  // The paper's stack comparison: for many small objects the
  // filesystem's per-op software cost dominates (SVII).
  auto run_with = [](auto&& make_channel) -> SimTime {
    sim::Engine engine;
    devices::OptaneDevice device(engine, 0, 8ULL * kGiB);
    auto channel = make_channel(engine, device);
    auto writer = [&]() -> sim::Task {
      co_await channel->write_part(
          0, 1, 0,
          SnapshotPart(SyntheticRun{.first_index = 0, .count = 100'000,
                                    .object_size = 2 * kKB, .base_seed = 1}),
          0.0);
    };
    engine.spawn(writer());
    engine.run_to_completion();
    return engine.now();
  };

  const SimTime nova_time =
      run_with([](sim::Engine&, devices::OptaneDevice& device) {
        return std::make_unique<NovaChannel>(device, "nova", 1);
      });
  const SimTime nvstream_time =
      run_with([](sim::Engine&, devices::OptaneDevice& device) {
        return std::make_unique<NvStreamChannel>(device, "nvs", 1);
      });
  EXPECT_GT(nova_time, nvstream_time);
  // For 2 KB objects the gap should be large (sw overhead dominates).
  EXPECT_GT(static_cast<double>(nova_time),
            1.5 * static_cast<double>(nvstream_time));
}

TEST_F(NovaChannelTest, NovaOverheadNegligibleForLargeObjects) {
  auto run_with = [](auto&& make_channel) -> SimTime {
    sim::Engine engine;
    devices::OptaneDevice device(engine, 0, 8ULL * kGiB);
    auto channel = make_channel(device);
    auto writer = [&]() -> sim::Task {
      co_await channel->write_part(
          0, 1, 0,
          SnapshotPart(SyntheticRun{.first_index = 0, .count = 16,
                                    .object_size = 64 * kMB, .base_seed = 1}),
          0.0);
    };
    engine.spawn(writer());
    engine.run_to_completion();
    return engine.now();
  };

  const auto nova_time = static_cast<double>(
      run_with([](devices::OptaneDevice& device) {
        return std::make_unique<NovaChannel>(device, "nova", 1);
      }));
  const auto nvstream_time = static_cast<double>(
      run_with([](devices::OptaneDevice& device) {
        return std::make_unique<NvStreamChannel>(device, "nvs", 1);
      }));
  // Within ~25% of each other: device bandwidth dominates (paper SVII:
  // "similar trends with both NOVA and NVStream for large objects").
  EXPECT_LT(nova_time / nvstream_time, 1.25);
}

}  // namespace
}  // namespace pmemflow::stack
