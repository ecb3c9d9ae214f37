// Golden replay pins: exact simulated outcomes of representative pair,
// co-located and DAG replays.
//
// The other runner tests assert relations (staging shortens the writer
// span, a chain equals a pair, ...), which hold even when both sides of
// a comparison drift together. These cases pin absolute values instead:
// runtimes and spans to the nanosecond, DES event counts, verified
// objects, channel and device traffic, retention residue, staging
// stats, and a digest of the Chrome trace (which fixes every track
// name, span label and timestamp). Every figure, Table II and every
// service profile-cache miss replays through the same engine, so any
// change to its statement order shows up here first.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "dag/plan.hpp"
#include "dag/runner.hpp"
#include "devices/registry.hpp"
#include "workflow/runner.hpp"
#include "workloads/suite.hpp"

namespace pmemflow {
namespace {

/// Everything one replay pins.
struct Replay {
  SimDuration total_ns = 0;
  /// Writer span (pair) or producer span (DAG).
  SimDuration span_ns = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t objects_verified = 0;
  /// Channel payload traffic, summed over a DAG's edges.
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
  /// Device write traffic, summed over a DAG's channel devices.
  double device_bytes_written = 0.0;
  Bytes gc_bytes = 0;
  Bytes resident_bytes = 0;
  std::uint64_t stage_hits = 0;
  Bytes bytes_staged = 0;
  std::uint64_t trace_digest = 0;

  friend bool operator==(const Replay&, const Replay&) = default;
};

/// C++ initializer form, so a mismatch prints a pasteable line.
std::string to_literal(const Replay& r) {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %.17g, %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "ULL}",
                r.total_ns, r.span_ns, r.engine_events, r.objects_verified,
                r.bytes_written, r.bytes_read, r.device_bytes_written,
                r.gc_bytes, r.resident_bytes, r.stage_hits, r.bytes_staged,
                r.trace_digest);
  return buffer;
}

void PrintTo(const Replay& r, std::ostream* os) { *os << to_literal(r); }

struct Golden {
  const char* name;
  Replay replay;
};

// Captured from the separate pair and DAG runners; whatever engine sits
// behind workflow::Runner and dag::run must reproduce them exactly.
const Golden kGoldens[] = {
    {"micro-2KB/S-LocW",
     {20585225601, 10242809355, 60, 6000000, 12000000000, 12000000000,
      12000000000, 0, 0, 0, 0, 0x0bfa8eb396debf51ULL}},
    {"micro-2KB/S-LocR",
     {20595425601, 10343009355, 60, 6000000, 12000000000, 12000000000,
      12000000000, 0, 0, 0, 0, 0x83f2f7ea6f9acc43ULL}},
    {"micro-2KB/P-LocW",
     {13823990074, 10310113233, 60, 6000000, 12000000000, 12000000000,
      12000000000, 0, 0, 0, 0, 0x49d7d4d525f34541ULL}},
    {"micro-2KB/P-LocR",
     {13827712275, 10410240193, 68, 6000000, 12000000000, 12000000000,
      12000000000, 0, 0, 0, 0, 0x5ec844e66bcf5138ULL}},
    {"gtc-readonly/S-LocW",
     {96212520090, 95591222568, 60, 24, 5496000000, 5496000000, 5496000000, 0,
      0, 0, 0, 0x00a737ec65f3ae3dULL}},
    {"gtc-readonly/S-LocR",
     {96189597396, 95591222967, 60, 24, 5496000000, 5496000000, 5496000000, 0,
      0, 0, 0, 0x1e15be014aac0ecdULL}},
    {"gtc-readonly/P-LocW",
     {95798689712, 95591590538, 68, 24, 5496000000, 5496000000, 5496000000, 0,
      0, 0, 0, 0x3697ee6d49fad38bULL}},
    {"gtc-readonly/P-LocR",
     {95791084516, 95591626373, 68, 24, 5496000000, 5496000000,
      5496000000.000001, 0, 0, 0, 0, 0xa774ca92ae86f888ULL}},
    {"nova/P-LocR",
     {95803024360, 95602646207, 68, 24, 5496000000, 5496000000,
      5495999999.999999, 0, 0, 0, 0, 0xe9eaf69bfc555da6ULL}},
    {"capacity-2/P-LocW",
     {20786238283, 17305563821, 105, 10000000, 20000000000, 20000000000,
      20000000000, 0, 0, 0, 0, 0x3a4e93fac3409631ULL}},
    {"serial-capacity-3/S-LocR",
     {96189597396, 95591222967, 60, 24, 5496000000, 5496000000, 5496000000, 0,
      0, 0, 0, 0x1e15be014aac0ecdULL}},
    {"staging/P-LocR",
     {159148338415, 158948880272, 184, 40, 9160000000, 9160000000,
      9160000000.0000019, 0, 0, 10, 5368709120, 0xef846cb13e191c89ULL}},
    {"retain-1-gc/P-LocW",
     {159526539394, 159319440220, 120, 40, 9160000000, 9160000000,
      16488003071.99999, 7328003072, 1831996928, 0, 0, 0x0e5f7125f09d9d2fULL}},
    {"retain-2-no-gc/P-LocW",
     {159526539394, 159319440220, 108, 40, 9160000000, 9160000000, 9160000000,
      0, 9160000000, 0, 0, 0x0e5f7125f09d9d2fULL}},
    {"colocated/w0",
     {127392932002, 127185832828, 264, 32, 7328000000, 7328000000,
      23328000000.000004, 0, 0, 9, 5368709120, 0x62fa0249bd862d74ULL}},
    {"colocated/w1",
     {17352103064, 3890568022, 264, 8000000, 16000000000, 16000000000,
      23328000000.000004, 0, 0, 9, 5368709120, 0x62fa0249bd862d74ULL}},
    {"fanout_analytics/optane-gen1/spread",
     {2718659556, 2703799818, 678, 1024, 4294967296, 4294967296, 4294967296, 0,
      0, 0, 0, 0xf1ce5e201a5c2ee0ULL}},
    {"fanout_analytics/optane-gen1/spread/staged",
     {2099758887, 2084612490, 1024, 1024, 4294967296, 4294967296,
      4294967296.0000134, 0, 0, 8, 268435456, 0xfb85c99e2e87168aULL}},
    {"fanout_analytics/optane-gen1/fused",
     {2402419705, 2387559967, 678, 1024, 4294967296, 4294967296, 4294967296, 0,
      0, 0, 0, 0xe339780b698b953cULL}},
    {"fanout_analytics/optane-gen1/fused/staged",
     {2099758887, 2084612490, 1024, 1024, 4294967296, 4294967296,
      4294967296.0000134, 0, 0, 8, 268435456, 0xfb85c99e2e87168aULL}},
    {"fanout_analytics/dram-like/spread",
     {2087604494, 2084426990, 678, 1024, 4294967296, 4294967296, 4294967296, 0,
      0, 0, 0, 0xf6dc02d9fa628390ULL}},
    {"fanout_analytics/dram-like/spread/staged",
     {2049422582, 2045812502, 1024, 1024, 4294967296, 4294967296, 4294967296, 0,
      0, 8, 268435456, 0x9be45f93f521c9acULL}},
    {"fanout_analytics/dram-like/fused",
     {2087604494, 2084426990, 678, 1024, 4294967296, 4294967296, 4294967296, 0,
      0, 0, 0, 0xf6dc02d9fa628390ULL}},
    {"fanout_analytics/dram-like/fused/staged",
     {2049422582, 2045812502, 1024, 1024, 4294967296, 4294967296, 4294967296, 0,
      0, 8, 268435456, 0x9be45f93f521c9acULL}},
    {"two_stage_reduce/optane-gen1/spread",
     {4579328184, 4571734459, 440, 960, 6039797760, 6039797760, 6039797760, 0,
      0, 0, 0, 0xd8e855ef21942da0ULL}},
    {"two_stage_reduce/optane-gen1/spread/staged",
     {4258301391, 4250707666, 722, 960, 6039797760, 6039797760, 6039797760, 0,
      0, 20, 671088640, 0x5e03fbd79e3fd868ULL}},
    {"two_stage_reduce/optane-gen1/fused",
     {4587656188, 4580062463, 440, 960, 6039797760, 6039797760, 6039797760, 0,
      0, 0, 0, 0x6969769b1fbad400ULL}},
    {"two_stage_reduce/optane-gen1/fused/staged",
     {4258301391, 4250707666, 722, 960, 6039797760, 6039797760, 6039797760, 0,
      0, 20, 671088640, 0x5e03fbd79e3fd868ULL}},
    {"two_stage_reduce/dram-like/spread",
     {4207625046, 4205872754, 440, 960, 6039797760, 6039797760, 6039797760, 0,
      0, 0, 0, 0xfe220e560d514ee5ULL}},
    {"two_stage_reduce/dram-like/spread/staged",
     {4177380010, 4175627718, 722, 960, 6039797760, 6039797760, 6039797760, 0,
      0, 20, 671088640, 0xda410b00efc7aa60ULL}},
    {"two_stage_reduce/dram-like/fused",
     {4207837806, 4206085514, 440, 960, 6039797760, 6039797760,
      6039797759.9999962, 0, 0, 0, 0, 0x9805fb0fa1086b5eULL}},
    {"two_stage_reduce/dram-like/fused/staged",
     {4177380010, 4175627718, 722, 960, 6039797760, 6039797760, 6039797760, 0,
      0, 20, 671088640, 0xda410b00efc7aa60ULL}},
};

void expect_golden(const std::string& name, const Replay& observed) {
  for (const Golden& golden : kGoldens) {
    if (name == golden.name) {
      EXPECT_EQ(golden.replay, observed) << name;
      return;
    }
  }
  ADD_FAILURE() << "no golden for " << name << "; observed:\n  {\"" << name
                << "\", " << to_literal(observed) << "},";
}

std::uint64_t trace_digest(const trace::Tracer& tracer) {
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  Hasher64 hasher;
  hasher.update_string(out.str());
  return hasher.digest();
}

Replay observe(const workflow::RunResult& run, const trace::Tracer& tracer) {
  Replay r;
  r.total_ns = run.total_ns;
  r.span_ns = run.writer_span_ns;
  r.engine_events = run.engine_events;
  r.objects_verified = run.objects_verified;
  r.bytes_written = run.channel.payload_bytes_written;
  r.bytes_read = run.channel.payload_bytes_read;
  r.device_bytes_written = run.device.bytes_written;
  r.gc_bytes = run.gc_bytes;
  r.resident_bytes = run.resident_bytes;
  r.stage_hits = run.staging.hits;
  r.bytes_staged = run.staging.bytes_staged;
  r.trace_digest = trace_digest(tracer);
  EXPECT_EQ(run.verification_failures, 0u);
  return r;
}

Replay observe(const dag::DagRunResult& run, const trace::Tracer& tracer) {
  Replay r;
  r.total_ns = run.total_ns;
  r.span_ns = run.producer_span_ns;
  r.engine_events = run.engine_events;
  r.objects_verified = run.objects_verified;
  for (const stack::ChannelStats& edge : run.edges) {
    r.bytes_written += edge.payload_bytes_written;
    r.bytes_read += edge.payload_bytes_read;
  }
  for (const auto& [socket, device] : run.devices) {
    r.device_bytes_written += device.bytes_written;
  }
  r.stage_hits = run.staging.hits;
  r.bytes_staged = run.staging.bytes_staged;
  r.trace_digest = trace_digest(tracer);
  EXPECT_EQ(run.verification_failures, 0u);
  return r;
}

workflow::WorkflowSpec small(workloads::Family family,
                             std::uint32_t iterations = 3,
                             workflow::WorkflowSpec::Stack stack =
                                 workflow::WorkflowSpec::Stack::kNvStream) {
  workflow::WorkflowSpec spec = workloads::make_workflow(family, 4, stack);
  spec.iterations = iterations;
  return spec;
}

/// Table I configuration `index` (S-LocW, S-LocR, P-LocW, P-LocR):
/// simulation on socket 0, analytics on socket 1.
workflow::RunOptions table_i(int index) {
  workflow::RunOptions options;
  options.serial = index < 2;
  options.writer_socket = 0;
  options.reader_socket = 1;
  options.channel_socket = (index % 2 == 0) ? 0 : 1;
  return options;
}

Replay run_pair(const workflow::WorkflowSpec& spec,
                workflow::RunOptions options) {
  trace::Tracer tracer;
  options.tracer = &tracer;
  auto run = workflow::Runner().run(spec, options);
  EXPECT_TRUE(run.has_value()) << run.error().message;
  return run.has_value() ? observe(*run, tracer) : Replay{};
}

TEST(ReplayGolden, TableIConfigs) {
  const char* const labels[] = {"S-LocW", "S-LocR", "P-LocW", "P-LocR"};
  const std::pair<const char*, workloads::Family> families[] = {
      {"micro-2KB", workloads::Family::kMicro2KB},
      {"gtc-readonly", workloads::Family::kGtcReadOnly}};
  for (const auto& [family_name, family] : families) {
    for (int config = 0; config < 4; ++config) {
      expect_golden(std::string(family_name) + "/" + labels[config],
                    run_pair(small(family), table_i(config)));
    }
  }
}

TEST(ReplayGolden, StacksAndCapacity) {
  expect_golden("nova/P-LocR",
                run_pair(small(workloads::Family::kGtcReadOnly, 3,
                               workflow::WorkflowSpec::Stack::kNova),
                         table_i(3)));

  auto bounded = small(workloads::Family::kMicro2KB, 5);
  bounded.channel_capacity = 2;
  expect_golden("capacity-2/P-LocW", run_pair(bounded, table_i(2)));

  auto serial = small(workloads::Family::kGtcReadOnly, 3);
  serial.channel_capacity = 3;
  expect_golden("serial-capacity-3/S-LocR", run_pair(serial, table_i(1)));
}

TEST(ReplayGolden, StagingAndRetention) {
  const auto spec = small(workloads::Family::kGtcReadOnly, 5);

  workflow::RunOptions staged = table_i(3);
  staged.staging.stage_bytes = 1 * kGiB;
  expect_golden("staging/P-LocR", run_pair(spec, staged));

  workflow::RunOptions retain_gc = table_i(2);
  retain_gc.retention.retain_versions = 1;
  expect_golden("retain-1-gc/P-LocW", run_pair(spec, retain_gc));

  workflow::RunOptions retain_no_gc = table_i(2);
  retain_no_gc.retention.retain_versions = 2;
  retain_no_gc.retention.gc = false;
  expect_golden("retain-2-no-gc/P-LocW", run_pair(spec, retain_no_gc));
}

TEST(ReplayGolden, MirroredColocationSharesOneStage) {
  // Two tenants on mirrored sockets, both channels on socket 0 and one
  // shared DRAM stage there: tenant 0 writes locally, tenant 1 reads
  // locally.
  trace::Tracer tracer;
  workflow::RunOptions local_write = table_i(2);
  local_write.staging.stage_bytes = 1 * kGiB;
  local_write.tracer = &tracer;
  workflow::RunOptions local_read = local_write;
  local_read.writer_socket = 1;
  local_read.reader_socket = 0;
  const workflow::Deployment deployments[] = {
      {small(workloads::Family::kGtcReadOnly, 4), local_write},
      {small(workloads::Family::kMicro2KB, 4), local_read}};
  auto run = workflow::Runner().run_colocated(deployments);
  ASSERT_TRUE(run.has_value()) << run.error().message;
  ASSERT_EQ(run->workflows.size(), 2u);
  expect_golden("colocated/w0", observe(run->workflows[0], tracer));
  expect_golden("colocated/w1", observe(run->workflows[1], tracer));
}

TEST(ReplayGolden, ExampleDags) {
  for (const char* file : {"fanout_analytics", "two_stage_reduce"}) {
    auto spec = dag::load_dag(std::string(PMEMFLOW_EXAMPLE_DAGS) + "/" +
                              file + ".dag");
    ASSERT_TRUE(spec.has_value()) << spec.error().message;
    for (const char* backend : {"optane-gen1", "dram-like"}) {
      auto devices = devices::parse_backend(backend);
      ASSERT_TRUE(devices.has_value()) << devices.error().message;
      const workflow::Runner runner(topo::PlatformSpec{}, *devices);
      const auto spread = dag::plan_spread(*spec, runner.platform());
      const auto fused = dag::plan_fusion(*spec, runner.platform());
      ASSERT_TRUE(spread.has_value()) << spread.error().message;
      ASSERT_TRUE(fused.has_value()) << fused.error().message;
      for (const auto& [plan_name, plan] :
           {std::pair{"spread", *spread}, std::pair{"fused", *fused}}) {
        for (const Bytes stage : {Bytes{0}, 32 * kMiB}) {
          trace::Tracer tracer;
          dag::DagRunOptions options = plan.run_options();
          options.staging.stage_bytes = stage;
          options.tracer = &tracer;
          auto run = dag::run(runner, *spec, options);
          ASSERT_TRUE(run.has_value()) << run.error().message;
          expect_golden(std::string(file) + "/" + backend + "/" + plan_name +
                            (stage != 0 ? "/staged" : ""),
                        observe(*run, tracer));
        }
      }
    }
  }
}

}  // namespace
}  // namespace pmemflow
