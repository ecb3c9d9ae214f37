// Fixed-point bandwidth allocation for the Optane device.
//
// Given the active flow set, computes each flow's end-to-end progress
// rate. The core quantity is per-flow *utilization* u_i: the fraction of
// time flow i actually occupies the device (the rest is per-op software
// overhead, interleaved compute, and access latency). Effective class
// concurrency is the sum of utilizations, and the device's capacity
// curves are evaluated at those effective counts — so the solution is a
// fixed point:
//
//     u -> census(u) -> capacities -> per-flow device rates -> u'
//
// solved by damped iteration. This reproduces the paper's key mechanism:
// high software overhead or interleaved compute lowers effective PMEM
// concurrency and therefore contention (§VIII).
//
// Flows of one class (kind, locality, op size, off-device ns per op)
// start from the same utilization and see the same census, so they
// share one trajectory: the fixed point iterates once per class, in
// first-appearance order. The census and the shared-media sum still add
// one class value per flow, in flow order, so the result is bit-identical
// to iterating every flow.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmemsim/bandwidth.hpp"
#include "sim/flow.hpp"

namespace pmemflow::pmemsim {

/// Snapshot of one solved allocation (exposed for tests/inspection).
struct AllocationReport {
  ClassCensus census;
  int iterations = 0;
  bool converged = false;
};

/// Rate-allocator work a run performed, summed by the layers that own
/// devices (runners, caches, regions) with operator+=. Purely
/// observational: it never feeds back into simulated time.
struct AllocatorCounters {
  /// allocate() calls, i.e. fixed-point solves (each device's
  /// FlowResourceStats::rate_solves).
  std::uint64_t solves = 0;
  /// Always 0: the allocator caches nothing. Kept only because the
  /// replay benchmark (perfbench) still reads it.
  std::uint64_t cache_hits = 0;

  AllocatorCounters& operator+=(const AllocatorCounters& other) noexcept {
    solves += other.solves;
    cache_hits += other.cache_hits;
    return *this;
  }

  /// Delta of two snapshots of the same monotonic counters (`a` taken
  /// after `b`).
  friend AllocatorCounters operator-(AllocatorCounters a,
                                     const AllocatorCounters& b) noexcept {
    a.solves -= b.solves;
    a.cache_hits -= b.cache_hits;
    return a;
  }

  friend bool operator==(const AllocatorCounters&,
                         const AllocatorCounters&) = default;
};

class OptaneRateAllocator final : public sim::RateAllocator {
 public:
  explicit OptaneRateAllocator(BandwidthModel model) : model_(model) {}

  void allocate(std::span<sim::Flow* const> flows) override;

  /// Census/convergence data of the most recent allocate() call.
  [[nodiscard]] const AllocationReport& last_report() const noexcept {
    return last_report_;
  }

  [[nodiscard]] const BandwidthModel& model() const noexcept {
    return model_;
  }

 private:
  /// Everything the fixed point reads from one flow.
  struct FlowClass {
    sim::IoKind kind;
    sim::Locality locality;
    Bytes op_size;
    double off_device_ns;  // sw + compute per op, excluding latency

    friend bool operator==(const FlowClass&, const FlowClass&) = default;
  };

  /// Per-class iterate of the fixed point (scratch, reused per call).
  struct View {
    FlowClass cls;
    bool small;
    double utilization;    // current iterate u, shared by the class
    double rate;           // device rate of the current iteration
    double media_share;    // u * rate / class cap of the current iteration
    double progress_rate;  // solved end-to-end rate
  };

  /// Census of the current iterate, one class value added per flow.
  [[nodiscard]] ClassCensus make_census() const;

  BandwidthModel model_;
  AllocationReport last_report_;

  // Scratch buffers reused across allocate() calls (the DES hot path
  // calls allocate on every flow add/complete; per-call heap churn was
  // measurable).
  std::vector<View> views_;              // one per class, first seen first
  std::vector<std::uint32_t> class_of_;  // per flow: index into views_
};

}  // namespace pmemflow::pmemsim
