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
//
// Hot-path memoization: the solved rates are a pure function of the
// flow-class sequence — remaining bytes never enter the fixed point.
// FlowResource re-runs the allocator on every flow add/complete, and a
// workflow's iteration loop presents the same class sequences over and
// over, so each allocator keeps a bounded cache of solved sequences and
// replays the rates on a hit. A hit is byte-identical to re-solving
// (same sequence => same iteration trajectory), so schedules do not
// change with the cache on or off; set_memoization(false) exists to
// prove that and to measure the speedup (bench/perf_service).
//
// All memoization state — the solve cache, the hit/solve counters, and
// the toggle — is per-instance. Two engines running concurrently (e.g.
// two fleet regions advancing on separate threads) never share or
// cross-pollinate allocator state.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
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

/// Per-allocator counters (one allocator per simulated device/socket).
/// Purely observational — they never feed back into simulated time —
/// so benches can snapshot them around a run to report the allocator
/// hit-rate and solve cost of the hot path. Layers that own several
/// allocators (devices, runners, regions) sum them with operator+=.
struct AllocatorCounters {
  std::uint64_t allocate_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t solves = 0;
  std::uint64_t solve_iterations = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return allocate_calls == 0 ? 0.0
                               : static_cast<double>(cache_hits) /
                                     static_cast<double>(allocate_calls);
  }

  AllocatorCounters& operator+=(const AllocatorCounters& other) noexcept {
    allocate_calls += other.allocate_calls;
    cache_hits += other.cache_hits;
    solves += other.solves;
    solve_iterations += other.solve_iterations;
    return *this;
  }

  /// Delta of two snapshots of the same monotonic counters (`a` taken
  /// after `b`).
  friend AllocatorCounters operator-(AllocatorCounters a,
                                     const AllocatorCounters& b) noexcept {
    a.allocate_calls -= b.allocate_calls;
    a.cache_hits -= b.cache_hits;
    a.solves -= b.solves;
    a.solve_iterations -= b.solve_iterations;
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

  /// This allocator's call/hit/solve counters (never another
  /// instance's: the counters are per-allocator state).
  [[nodiscard]] const AllocatorCounters& counters() const noexcept {
    return counters_;
  }
  void reset_counters() noexcept { counters_ = AllocatorCounters{}; }

  /// Toggles solution memoization for THIS allocator (default on).
  /// Schedules are byte-identical either way; off exists for the
  /// perf-gate contrast and determinism tests.
  void set_memoization(bool enabled) noexcept { memoize_ = enabled; }
  [[nodiscard]] bool memoization_enabled() const noexcept {
    return memoize_;
  }

  [[nodiscard]] const BandwidthModel& model() const noexcept {
    return model_;
  }

 private:
  /// Everything the fixed point reads from one flow: the memo key is
  /// the ordered sequence of these (order matters only through
  /// floating-point summation — keying on the sequence rather than the
  /// multiset keeps cache replay bit-exact).
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

  struct CachedSolution {
    std::vector<FlowClass> key;
    /// Per-position (device_rate, progress_rate).
    std::vector<std::pair<double, double>> rates;
    AllocationReport report;
  };

  /// Census of the current iterate, one class value added per flow.
  [[nodiscard]] ClassCensus make_census() const;
  /// Runs the damped fixed point once per class of key_ and writes
  /// rates into `flows`; sets last_report_.
  void solve(std::span<sim::Flow* const> flows);

  BandwidthModel model_;
  AllocationReport last_report_;
  AllocatorCounters counters_;
  bool memoize_ = true;

  // Scratch buffers reused across allocate() calls (the DES hot path
  // calls allocate on every flow add/complete; per-call heap churn was
  // measurable).
  std::vector<View> views_;              // one per class, first seen first
  std::vector<std::uint32_t> class_of_;  // per flow: index into views_
  std::vector<FlowClass> key_;           // per flow, in flow order

  /// Solved sequences, bucketed by key hash (buckets guard against
  /// hash collisions). Bounded: wholesale-cleared at a fixed entry
  /// count, which is deterministic and keeps lookup O(1).
  std::unordered_map<std::uint64_t, std::vector<CachedSolution>> cache_;
  std::size_t cached_solutions_ = 0;
};

}  // namespace pmemflow::pmemsim
