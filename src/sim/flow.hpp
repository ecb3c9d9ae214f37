// Fluid-flow model of a shared bandwidth resource.
//
// An I/O phase of a simulated rank is modeled as a *flow*: a quantity of
// payload bytes moved through a shared device at a rate set by a
// device-specific RateAllocator. Whenever the set of active flows
// changes, progress is settled at the old rates; new rates are computed
// for every live flow once per simulated instant at which the set
// changed, however many arrivals and departures that instant saw. The
// resource keeps at most one pending "next completion" event, and that
// event fires at the same (time, FIFO rank) as if the rates had been
// re-solved on every change: a rate vector superseded within its own
// instant would have moved no bytes.
//
// The allocator sees each flow's full class (read/write, local/remote,
// op granularity, per-op software and interleaved-compute costs), which
// lets a device model reproduce effects like "per-op CPU overhead lowers
// the *effective* device concurrency" — the central mechanism in the
// reproduced paper (§VIII).
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace pmemflow::sim {

enum class IoKind : std::uint8_t { kRead, kWrite };

/// Locality of the issuing CPU relative to the device's socket.
enum class Locality : std::uint8_t { kLocal, kRemote };

[[nodiscard]] const char* to_string(IoKind kind) noexcept;
[[nodiscard]] const char* to_string(Locality locality) noexcept;

/// Immutable description of one flow, as seen by the rate allocator.
struct FlowSpec {
  IoKind kind = IoKind::kRead;
  Locality locality = Locality::kLocal;
  /// Total payload bytes this flow moves through the device.
  Bytes total_bytes = 0;
  /// Size of each application-level operation (object granularity).
  Bytes op_size = 0;
  /// CPU time per operation spent in the storage software stack
  /// (syscalls, journaling, metadata). Runs on the issuing core, i.e.
  /// off-device: it throttles this flow but frees device bandwidth.
  double sw_ns_per_op = 0.0;
  /// Application compute time interleaved per operation (e.g. the
  /// per-object matrix multiply of an analytics kernel). Also off-device.
  double compute_ns_per_op = 0.0;
};

/// Mutable per-flow simulation state. Owned by the FlowResource; exposed
/// to the RateAllocator, which must set `progress_rate` (and may set
/// `device_rate` for reporting).
struct Flow {
  FlowSpec spec;
  double remaining_bytes = 0.0;
  /// End-to-end payload progress rate (bytes/ns), combining device
  /// bandwidth with per-op off-device time. Set by the allocator.
  double progress_rate = 0.0;
  /// Device bandwidth allocated while the flow occupies the device
  /// (bytes/ns). Informational; set by the allocator.
  double device_rate = 0.0;
};

/// Device-specific bandwidth-sharing policy.
class RateAllocator {
 public:
  virtual ~RateAllocator() = default;

  /// Sets progress_rate > 0 for every flow. Called whenever the active
  /// set changes; must be a pure function of the given flow set.
  virtual void allocate(std::span<Flow* const> flows) = 0;
};

/// Cumulative statistics for a FlowResource.
struct FlowResourceStats {
  std::uint64_t flows_completed = 0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  double bytes_remote = 0.0;
  std::size_t peak_concurrency = 0;
  /// Time integral of the number of active flows (ns * flows); divide by
  /// elapsed time for average concurrency.
  double concurrency_time_integral = 0.0;
  /// Time during which at least one flow was active (ns).
  double busy_time = 0.0;
  /// Allocator invocations: one per instant at which the flow set
  /// changed and flows remained.
  std::uint64_t rate_solves = 0;
  /// Completion events rescheduled without re-running the allocator
  /// because the flow set was unchanged (an event that fired a tick
  /// before any flow finished, with nothing else changing that instant).
  std::uint64_t solves_skipped = 0;
};

/// A shared transfer resource (one PMEM interleave set, one UPI link...).
class FlowResource : private Deferrable {
 public:
  FlowResource(Engine& engine, RateAllocator& allocator, std::string name);
  FlowResource(const FlowResource&) = delete;
  FlowResource& operator=(const FlowResource&) = delete;
  ~FlowResource() override;

  /// Awaitable that moves spec.total_bytes through the resource and
  /// resumes the caller on completion. Zero-byte transfers complete
  /// immediately.
  auto transfer(FlowSpec spec) {
    struct Awaiter {
      FlowResource& resource;
      FlowSpec spec;

      bool await_ready() const noexcept { return spec.total_bytes == 0; }
      void await_suspend(std::coroutine_handle<> handle) {
        resource.add_flow(spec, handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, spec};
  }

  [[nodiscard]] const FlowResourceStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return active_.size();
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  struct ActiveFlow {
    Flow flow;
    std::coroutine_handle<> waiter;
  };

  void add_flow(const FlowSpec& spec, std::coroutine_handle<> waiter);
  /// Settles progress at current rates since last_update_.
  void settle_progress();
  /// Cancels the pending completion and, while flows remain, defers the
  /// re-solve to an engine slot at this instant (Engine::defer). Each
  /// call takes the FIFO slot that scheduling the completion right away
  /// would have taken, so only the last call of an instant counts.
  void reallocate();
  /// Runs the deferred re-solve and schedules the next completion in
  /// slot `sequence`. Re-runs the allocator only when the flow set
  /// changed since the last solve (dirty flag — an unchanged set
  /// re-solves to the identical rates, so skipping is byte-identical).
  void flush(std::uint64_t sequence) override;
  void on_completion_event();

  Engine& engine_;
  RateAllocator& allocator_;
  std::string name_;
  std::vector<std::unique_ptr<ActiveFlow>> active_;
  SimTime last_update_ = 0;
  EventId pending_completion_{};
  FlowResourceStats stats_;
  /// True when active_ changed since the allocator last ran.
  bool flows_dirty_ = false;
  // Scratch buffers reused across events (hot path: every flow
  // add/complete).
  std::vector<Flow*> flow_scratch_;
  std::vector<std::coroutine_handle<>> resume_scratch_;
};

}  // namespace pmemflow::sim
