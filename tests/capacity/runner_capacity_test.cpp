// Workflow-runner integration of the capacity models: DRAM staging
// tier and nvstream version retention + GC. The default RunOptions
// keep both disabled, and those paths must behave exactly as the
// pre-capacity runner did.
#include <gtest/gtest.h>

#include "workflow/runner.hpp"
#include "workloads/analytics.hpp"
#include "workloads/microbench.hpp"

namespace pmemflow::workflow {
namespace {

WorkflowSpec small_spec(std::uint32_t ranks = 4,
                        std::uint32_t iterations = 6) {
  workloads::MicroSimulation::Params params;
  params.object_size = 64 * kKB;
  params.snapshot_bytes_per_rank = 1 * kMB;
  WorkflowSpec spec;
  spec.label = "capacity-test";
  spec.simulation =
      std::make_shared<const workloads::MicroSimulation>(params);
  spec.analytics = workloads::readonly_analytics();
  spec.ranks = ranks;
  spec.iterations = iterations;
  return spec;
}

RunOptions base_options(bool serial = false) {
  RunOptions options;
  options.serial = serial;
  options.writer_socket = 0;
  options.reader_socket = 1;
  options.channel_socket = 0;
  return options;
}

// Snapshots truncate to whole objects: 15 x 64 kB per rank-iteration.
constexpr Bytes kVersionBytes = 15ull * 64 * kKB * 4;

TEST(RunnerCapacity, DefaultsKeepBothModelsDormant) {
  Runner runner;
  auto result = runner.run(small_spec(), base_options());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->staging.writes, 0u);
  EXPECT_EQ(result->staging.bytes_staged, 0u);
  EXPECT_EQ(result->gc_bytes, 0u);
  // Every version recycles the moment its readers finish: no residue.
  EXPECT_EQ(result->channel.versions_recycled, 6u);
  EXPECT_EQ(result->resident_bytes, 0u);
}

TEST(RunnerCapacity, StagingAbsorbsWritesAndShortensTheWriterSpan) {
  Runner runner;
  const auto spec = small_spec();
  auto baseline = runner.run(spec, base_options());
  RunOptions staged = base_options();
  staged.staging.stage_bytes = 64 * kMiB;  // generous: every part hits
  auto result = runner.run(spec, staged);
  ASSERT_TRUE(baseline.has_value());
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->staging.writes, 0u);
  EXPECT_EQ(result->staging.writes, result->staging.hits);
  EXPECT_EQ(result->staging.bytes_staged, 6 * kVersionBytes);
  EXPECT_EQ(result->staging.bytes_throttled, 0u);
  // Writers land parts at DRAM rate while drains run in the
  // background, so the simulation side finishes earlier. (The version
  // commit — and so the reader — still waits for the drain, which is
  // why end-to-end time is not asserted here.)
  EXPECT_LT(result->writer_span_ns, baseline->writer_span_ns);
  // Data still flows completely and verifies.
  EXPECT_EQ(result->verification_failures, 0u);
  EXPECT_EQ(result->channel.versions_committed, 6u);
  EXPECT_EQ(result->channel.payload_bytes_read, 6 * kVersionBytes);
}

TEST(RunnerCapacity, TinyStageThrottlesTheOverflow) {
  Runner runner;
  RunOptions staged = base_options();
  staged.staging.stage_bytes = 64 * kKiB;  // smaller than one part
  auto result = runner.run(small_spec(), staged);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->staging.bytes_throttled, 0u);
  EXPECT_EQ(result->verification_failures, 0u);
}

TEST(RunnerCapacity, RetentionKeepsTheWindowResident) {
  Runner runner;
  RunOptions options = base_options();
  options.retention.retain_versions = 2;
  options.retention.gc = true;
  auto result = runner.run(small_spec(), options);
  ASSERT_TRUE(result.has_value());
  // 6 versions, retain-2: versions 1-4 are superseded and GC'd, the
  // final two stay resident as cold residue. Reclaimed bytes cover
  // payload plus record extents, so GC yield is at least the payload
  // volume and the residue at most the retained window's payload.
  EXPECT_EQ(result->channel.versions_recycled, 4u);
  EXPECT_GE(result->gc_bytes, 4 * kVersionBytes);
  EXPECT_GT(result->resident_bytes, 0u);
  EXPECT_LE(result->resident_bytes, 2 * kVersionBytes);
  EXPECT_EQ(result->verification_failures, 0u);
}

TEST(RunnerCapacity, RetentionWithoutGcLeavesEverythingResident) {
  Runner runner;
  RunOptions options = base_options();
  options.retention.retain_versions = 2;
  options.retention.gc = false;
  auto result = runner.run(small_spec(), options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->channel.versions_recycled, 0u);
  EXPECT_EQ(result->gc_bytes, 0u);
  EXPECT_EQ(result->resident_bytes, 6 * kVersionBytes);
}

TEST(RunnerCapacity, WindowLargerThanRunRecyclesNothing) {
  Runner runner;
  RunOptions options = base_options();
  options.retention.retain_versions = 16;
  auto result = runner.run(small_spec(), options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->channel.versions_recycled, 0u);
  EXPECT_EQ(result->gc_bytes, 0u);
  EXPECT_EQ(result->resident_bytes, 6 * kVersionBytes);
}

TEST(RunnerCapacity, GcRewriteTrafficSlowsTheDevice) {
  // GC rewrites superseded snapshots as background device writes; the
  // shared device must see that extra traffic.
  Runner runner;
  const auto spec = small_spec();
  auto baseline = runner.run(spec, base_options());
  RunOptions options = base_options();
  options.retention.retain_versions = 1;
  auto gc = runner.run(spec, options);
  ASSERT_TRUE(baseline.has_value());
  ASSERT_TRUE(gc.has_value());
  EXPECT_GT(gc->device.bytes_written, baseline->device.bytes_written);
}

TEST(RunnerCapacity, NovaGcReclaimsAndRewrites) {
  // NOVA frees a superseded version by unlinking its files; GC must see
  // those bytes and charge their rewrite, as it does on NVStream.
  Runner runner;
  WorkflowSpec spec = small_spec();
  spec.stack = WorkflowSpec::Stack::kNova;
  auto baseline = runner.run(spec, base_options());
  RunOptions options = base_options();
  options.retention.retain_versions = 1;
  auto gc = runner.run(spec, options);
  ASSERT_TRUE(baseline.has_value());
  ASSERT_TRUE(gc.has_value());
  EXPECT_EQ(gc->channel.versions_recycled, 5u);
  EXPECT_GT(gc->gc_bytes, 0u);
  EXPECT_GT(gc->device.bytes_written, baseline->device.bytes_written);
}

TEST(RunnerCapacity, StagingAndRetentionComposeDeterministically) {
  Runner runner;
  RunOptions options = base_options();
  options.staging.stage_bytes = 16 * kMiB;
  options.retention.retain_versions = 2;
  const auto spec = small_spec();
  auto a = runner.run(spec, options);
  auto b = runner.run(spec, options);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->total_ns, b->total_ns);
  EXPECT_EQ(a->engine_events, b->engine_events);
  EXPECT_EQ(a->gc_bytes, b->gc_bytes);
  EXPECT_EQ(a->staging.bytes_staged, b->staging.bytes_staged);
  EXPECT_EQ(a->verification_failures, 0u);
}

TEST(RunnerCapacity, SerialModeSupportsBothModels) {
  Runner runner;
  RunOptions options = base_options(/*serial=*/true);
  options.staging.stage_bytes = 64 * kMiB;
  options.retention.retain_versions = 2;
  auto result = runner.run(small_spec(), options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->verification_failures, 0u);
  EXPECT_EQ(result->channel.versions_committed, 6u);
  EXPECT_GT(result->resident_bytes, 0u);
  EXPECT_LE(result->resident_bytes, 2 * kVersionBytes);
}

}  // namespace
}  // namespace pmemflow::workflow
