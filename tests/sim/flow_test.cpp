#include "sim/flow.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace pmemflow::sim {
namespace {

/// Shares a fixed aggregate bandwidth equally among active flows.
class EqualShareAllocator : public RateAllocator {
 public:
  explicit EqualShareAllocator(Rate aggregate) : aggregate_(aggregate) {}

  void allocate(std::span<Flow* const> flows) override {
    const Rate share = aggregate_ / static_cast<double>(flows.size());
    for (Flow* flow : flows) {
      flow->progress_rate = share;
      flow->device_rate = share;
    }
  }

 private:
  Rate aggregate_;
};

FlowSpec read_spec(Bytes total, Bytes op = 0) {
  FlowSpec spec;
  spec.kind = IoKind::kRead;
  spec.total_bytes = total;
  spec.op_size = (op == 0) ? total : op;
  return spec;
}

TEST(FlowResource, SingleFlowTakesBytesOverRate) {
  Engine engine;
  EqualShareAllocator allocator(2.0);  // 2 bytes/ns
  FlowResource resource(engine, allocator, "dev");

  SimTime finished = 0;
  auto proc = [&]() -> Task {
    co_await resource.transfer(read_spec(1000));
    finished = engine.now();
  };
  engine.spawn(proc());
  engine.run_to_completion();
  EXPECT_EQ(finished, 500u);
  EXPECT_EQ(resource.stats().flows_completed, 1u);
  EXPECT_DOUBLE_EQ(resource.stats().bytes_read, 1000.0);
}

TEST(FlowResource, ZeroByteTransferCompletesInstantly) {
  Engine engine;
  EqualShareAllocator allocator(1.0);
  FlowResource resource(engine, allocator, "dev");
  SimTime finished = 42;
  auto proc = [&]() -> Task {
    co_await resource.transfer(read_spec(0, 1));
    finished = engine.now();
  };
  engine.spawn(proc());
  engine.run_to_completion();
  EXPECT_EQ(finished, 0u);
  EXPECT_EQ(resource.stats().flows_completed, 0u);
}

TEST(FlowResource, TwoEqualFlowsShareBandwidth) {
  Engine engine;
  EqualShareAllocator allocator(2.0);
  FlowResource resource(engine, allocator, "dev");

  std::vector<SimTime> finish_times;
  auto proc = [&]() -> Task {
    co_await resource.transfer(read_spec(1000));
    finish_times.push_back(engine.now());
  };
  engine.spawn(proc());
  engine.spawn(proc());
  engine.run_to_completion();

  // Each flow gets 1 byte/ns -> both finish at 1000 ns.
  ASSERT_EQ(finish_times.size(), 2u);
  EXPECT_EQ(finish_times[0], 1000u);
  EXPECT_EQ(finish_times[1], 1000u);
  EXPECT_EQ(resource.stats().peak_concurrency, 2u);
}

TEST(FlowResource, LateArrivalSlowsExistingFlow) {
  Engine engine;
  EqualShareAllocator allocator(2.0);
  FlowResource resource(engine, allocator, "dev");

  std::vector<std::pair<int, SimTime>> finish;
  auto first = [&]() -> Task {
    co_await resource.transfer(read_spec(1000));
    finish.emplace_back(1, engine.now());
  };
  auto second = [&]() -> Task {
    co_await sleep_for(engine, 250);
    co_await resource.transfer(read_spec(1000));
    finish.emplace_back(2, engine.now());
  };
  engine.spawn(first());
  engine.spawn(second());
  engine.run_to_completion();

  // Flow 1: 250 ns alone at 2 B/ns -> 500 bytes done; remaining 500 at
  // 1 B/ns -> finishes at 750. Flow 2 then runs alone: 500 bytes done at
  // 750, remaining 500 at 2 B/ns -> finishes at 1000.
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_EQ(finish[0], (std::pair<int, SimTime>{1, 750}));
  EXPECT_EQ(finish[1], (std::pair<int, SimTime>{2, 1000}));
}

TEST(FlowResource, ConservationAcrossManyFlows) {
  Engine engine;
  EqualShareAllocator allocator(3.0);
  FlowResource resource(engine, allocator, "dev");

  constexpr int kFlows = 20;
  constexpr Bytes kPerFlow = 7777;
  int completed = 0;
  auto proc = [&](SimDuration start) -> Task {
    co_await sleep_for(engine, start);
    co_await resource.transfer(read_spec(kPerFlow));
    ++completed;
  };
  for (int i = 0; i < kFlows; ++i) {
    engine.spawn(proc(static_cast<SimDuration>(i * 13)));
  }
  engine.run_to_completion();

  EXPECT_EQ(completed, kFlows);
  EXPECT_EQ(resource.stats().flows_completed, kFlows);
  EXPECT_NEAR(resource.stats().bytes_read,
              static_cast<double>(kFlows) * static_cast<double>(kPerFlow),
              1.0 * kFlows);
  EXPECT_EQ(resource.active_flows(), 0u);
}

TEST(FlowResource, TracksReadWriteAndRemoteBytes) {
  Engine engine;
  EqualShareAllocator allocator(1.0);
  FlowResource resource(engine, allocator, "dev");

  auto proc = [&](IoKind kind, Locality locality) -> Task {
    FlowSpec spec;
    spec.kind = kind;
    spec.locality = locality;
    spec.total_bytes = 100;
    spec.op_size = 100;
    co_await resource.transfer(spec);
  };
  engine.spawn(proc(IoKind::kRead, Locality::kLocal));
  engine.spawn(proc(IoKind::kWrite, Locality::kRemote));
  engine.run_to_completion();

  EXPECT_NEAR(resource.stats().bytes_read, 100.0, 1.0);
  EXPECT_NEAR(resource.stats().bytes_written, 100.0, 1.0);
  EXPECT_NEAR(resource.stats().bytes_remote, 100.0, 1.0);
}

TEST(FlowResource, BusyTimeAndConcurrencyIntegral) {
  Engine engine;
  EqualShareAllocator allocator(1.0);
  FlowResource resource(engine, allocator, "dev");

  auto proc = [&]() -> Task {
    co_await resource.transfer(read_spec(100));
  };
  engine.spawn(proc());
  engine.spawn(proc());
  engine.run_to_completion();

  // Both flows run [0, 200] at 0.5 B/ns each.
  EXPECT_NEAR(resource.stats().busy_time, 200.0, 2.0);
  EXPECT_NEAR(resource.stats().concurrency_time_integral, 400.0, 4.0);
}

/// Allocator that prioritizes writes 3:1 over reads, to verify that
/// allocator policy (not FlowResource) controls sharing.
class WritePriorityAllocator : public RateAllocator {
 public:
  void allocate(std::span<Flow* const> flows) override {
    double weight_total = 0.0;
    for (const Flow* flow : flows) {
      weight_total += weight(*flow);
    }
    for (Flow* flow : flows) {
      flow->progress_rate = 4.0 * weight(*flow) / weight_total;
      flow->device_rate = flow->progress_rate;
    }
  }

 private:
  static double weight(const Flow& flow) {
    return flow.spec.kind == IoKind::kWrite ? 3.0 : 1.0;
  }
};

TEST(FlowResource, AllocatorPolicyControlsSharing) {
  Engine engine;
  WritePriorityAllocator allocator;
  FlowResource resource(engine, allocator, "dev");

  std::vector<std::pair<const char*, SimTime>> finish;
  auto proc = [&](IoKind kind, const char* label) -> Task {
    FlowSpec spec;
    spec.kind = kind;
    spec.total_bytes = 1200;
    spec.op_size = 1200;
    co_await resource.transfer(spec);
    finish.emplace_back(label, engine.now());
  };
  engine.spawn(proc(IoKind::kWrite, "write"));
  engine.spawn(proc(IoKind::kRead, "read"));
  engine.run_to_completion();

  // Writer gets 3 B/ns, reader 1 B/ns while both active. Writer finishes
  // at 400 ns; reader has 800 bytes left, then runs at 4 B/ns -> 600 ns.
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_STREQ(finish[0].first, "write");
  EXPECT_EQ(finish[0].second, 400u);
  EXPECT_STREQ(finish[1].first, "read");
  EXPECT_EQ(finish[1].second, 600u);
}

/// EqualShare wrapped with an invocation counter, to pin down the
/// incremental-reallocation contract: the allocator runs once per
/// instant at which the flow set changed, never for an unchanged set.
class CountingAllocator : public RateAllocator {
 public:
  explicit CountingAllocator(Rate aggregate) : aggregate_(aggregate) {}

  void allocate(std::span<Flow* const> flows) override {
    ++calls_;
    const Rate share = aggregate_ / static_cast<double>(flows.size());
    for (Flow* flow : flows) {
      flow->progress_rate = share;
      flow->device_rate = share;
    }
  }

  [[nodiscard]] int calls() const noexcept { return calls_; }

 private:
  Rate aggregate_;
  int calls_ = 0;
};

TEST(FlowResource, AllocatorRunsOncePerFlowSetChange) {
  Engine engine;
  CountingAllocator allocator(2.0);
  FlowResource resource(engine, allocator, "dev");

  auto first = [&]() -> Task {
    co_await resource.transfer(read_spec(1000));
  };
  auto second = [&]() -> Task {
    co_await sleep_for(engine, 250);
    co_await resource.transfer(read_spec(1000));
  };
  engine.spawn(first());
  engine.spawn(second());
  engine.run_to_completion();

  // Set changes: add flow 1, add flow 2, flow 1 completes (flow 2
  // remains). Flow 2's completion empties the set — no solve needed.
  EXPECT_EQ(allocator.calls(), 3);
  EXPECT_EQ(resource.stats().rate_solves, 3u);
  // Every completion event in this scenario removed a flow, so the
  // dirty flag never short-circuited; the skip counter exists for the
  // spurious-wakeup path (event fires, nothing finished).
  EXPECT_EQ(resource.stats().solves_skipped, 0u);
}

TEST(FlowResource, SimultaneousArrivalsAndCompletionsSolveOnce) {
  Engine engine;
  CountingAllocator allocator(2.0);
  FlowResource resource(engine, allocator, "dev");

  int done = 0;
  auto proc = [&]() -> Task {
    co_await resource.transfer(read_spec(1000));
    ++done;
  };
  engine.spawn(proc());
  engine.spawn(proc());
  engine.run_to_completion();

  // Both adds fall at t=0 and share one solve; both flows finish at the
  // same instant in one completion event, which empties the set — one
  // solve in total.
  EXPECT_EQ(done, 2);
  EXPECT_EQ(allocator.calls(), 1);
  EXPECT_EQ(resource.stats().rate_solves, 1u);
}

TEST(FlowResource, SameInstantBurstsKeepFinishTimes) {
  // Two bursts of 16 arrivals, each burst at one instant, as a pair's
  // ranks start their I/O phase together. Sizes differ, so flows finish
  // one by one and every completion reshapes the shares.
  Engine engine;
  CountingAllocator allocator(16.0);
  FlowResource resource(engine, allocator, "dev");

  constexpr int kPerBurst = 16;
  constexpr SimDuration kSecondBurst = 2500;
  std::vector<SimTime> finish(2 * kPerBurst, 0);
  auto proc = [&](int index, SimDuration start, Bytes total) -> Task {
    co_await sleep_for(engine, start);
    co_await resource.transfer(read_spec(total));
    finish[static_cast<std::size_t>(index)] = engine.now();
  };
  for (int i = 0; i < kPerBurst; ++i) {
    engine.spawn(proc(i, 0, 1000 * static_cast<Bytes>(i + 1)));
  }
  for (int i = 0; i < kPerBurst; ++i) {
    engine.spawn(proc(kPerBurst + i, kSecondBurst,
                      500 * static_cast<Bytes>(i + 1)));
  }
  // Reads the solve count just after the first burst and on either
  // side of the second; no flow finishes within 1 ns of t=2500.
  std::vector<std::uint64_t> solves;
  const SimDuration probe_steps[] = {1, kSecondBurst - 2, 2};
  auto probe = [&]() -> Task {
    for (const SimDuration step : probe_steps) {
      co_await sleep_for(engine, step);
      solves.push_back(resource.stats().rate_solves);
    }
  };
  engine.spawn(probe());
  engine.run_to_completion();

  // These match a re-solve on every arrival: coalescing the solves of
  // one instant must not move them.
  const std::vector<SimTime> expected = {
      1000,  1938,  3170,  4907,  6456,  7818,  8992,  9979,
      10778, 11390, 11814, 12127, 12377, 12564, 12689, 12752,
      3429,  4304,  5139,  5920,  6661,  7349,  7996,  8590,
      9144,  9644,  10104, 10510, 10876, 11189, 11461, 11680};
  EXPECT_EQ(finish, expected);
  EXPECT_EQ(resource.stats().flows_completed, 2u * kPerBurst);

  // One solve per burst, and in all one per instant at which the set
  // changed with flows left: 2 bursts + 31 of the 32 distinct finish
  // instants (the last one empties the set).
  ASSERT_EQ(solves.size(), 3u);
  EXPECT_EQ(solves[0], 1u);
  EXPECT_EQ(solves[2] - solves[1], 1u);
  EXPECT_EQ(resource.stats().rate_solves, 33u);
  EXPECT_EQ(allocator.calls(), 33);
}

TEST(FlowResource, WakeAtCompletionInstantSeesFlowDone) {
  // A process that goes to sleep after a flow arrives, and wakes at the
  // very nanosecond that flow completes, wakes after the completion: the
  // completion event holds the FIFO slot of the flow's arrival.
  Engine engine;
  EqualShareAllocator allocator(2.0);
  FlowResource resource(engine, allocator, "dev");

  SimTime first_done = 0;
  SimTime second_done = 0;
  std::size_t active_at_wake = 99;
  std::uint64_t completed_at_wake = 99;
  auto first = [&]() -> Task {
    co_await resource.transfer(read_spec(1000));
    first_done = engine.now();
  };
  auto second = [&]() -> Task {
    co_await sleep_for(engine, 500);  // the first flow's completion ns
    active_at_wake = resource.active_flows();
    completed_at_wake = resource.stats().flows_completed;
    co_await resource.transfer(read_spec(1000));
    second_done = engine.now();
  };
  engine.spawn(first());
  engine.spawn(second());
  engine.run_to_completion();

  EXPECT_EQ(first_done, 500u);
  EXPECT_EQ(second_done, 1000u);
  EXPECT_EQ(active_at_wake, 0u);
  EXPECT_EQ(completed_at_wake, 1u);
  EXPECT_EQ(resource.stats().peak_concurrency, 1u);
}

TEST(FlowResourceDeathTest, OpSizeZeroAborts) {
  Engine engine;
  EqualShareAllocator allocator(1.0);
  FlowResource resource(engine, allocator, "dev");
  auto proc = [&]() -> Task {
    FlowSpec spec;
    spec.total_bytes = 10;
    spec.op_size = 0;
    co_await resource.transfer(spec);
  };
  engine.spawn(proc());
  EXPECT_DEATH(engine.run(), "granularity");
}

TEST(FlowToString, Names) {
  EXPECT_STREQ(to_string(IoKind::kRead), "read");
  EXPECT_STREQ(to_string(IoKind::kWrite), "write");
  EXPECT_STREQ(to_string(Locality::kLocal), "local");
  EXPECT_STREQ(to_string(Locality::kRemote), "remote");
}

}  // namespace
}  // namespace pmemflow::sim
