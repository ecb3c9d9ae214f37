#include "sim/flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace pmemflow::sim {

namespace {
// A flow is complete when less than half a byte remains; rates are
// doubles so exact zero is not guaranteed.
constexpr double kCompletionEpsilon = 0.5;
}  // namespace

const char* to_string(IoKind kind) noexcept {
  return kind == IoKind::kRead ? "read" : "write";
}

const char* to_string(Locality locality) noexcept {
  return locality == Locality::kLocal ? "local" : "remote";
}

FlowResource::FlowResource(Engine& engine, RateAllocator& allocator,
                           std::string name)
    : engine_(engine), allocator_(allocator), name_(std::move(name)) {}

FlowResource::~FlowResource() {
  if (pending_completion_.valid()) {
    engine_.cancel(pending_completion_);
  }
  engine_.drop_deferred(*this);
}

void FlowResource::add_flow(const FlowSpec& spec,
                            std::coroutine_handle<> waiter) {
  PMEMFLOW_ASSERT(spec.total_bytes > 0);
  PMEMFLOW_ASSERT_MSG(spec.op_size > 0, "flows need an op granularity");
  settle_progress();
  auto entry = std::make_unique<ActiveFlow>();
  entry->flow.spec = spec;
  entry->flow.remaining_bytes = static_cast<double>(spec.total_bytes);
  entry->waiter = waiter;
  active_.push_back(std::move(entry));
  stats_.peak_concurrency = std::max(stats_.peak_concurrency, active_.size());
  flows_dirty_ = true;
  reallocate();
}

void FlowResource::settle_progress() {
  const SimTime now = engine_.now();
  PMEMFLOW_ASSERT(now >= last_update_);
  const double elapsed = static_cast<double>(now - last_update_);
  last_update_ = now;
  if (elapsed == 0.0 || active_.empty()) return;

  stats_.concurrency_time_integral +=
      elapsed * static_cast<double>(active_.size());
  stats_.busy_time += elapsed;

  for (const auto& entry : active_) {
    Flow& flow = entry->flow;
    const double moved =
        std::min(flow.remaining_bytes, flow.progress_rate * elapsed);
    flow.remaining_bytes -= moved;
    switch (flow.spec.kind) {
      case IoKind::kRead: stats_.bytes_read += moved; break;
      case IoKind::kWrite: stats_.bytes_written += moved; break;
    }
    if (flow.spec.locality == Locality::kRemote) {
      stats_.bytes_remote += moved;
    }
  }
}

void FlowResource::reallocate() {
  if (pending_completion_.valid()) {
    engine_.cancel(pending_completion_);
    pending_completion_ = EventId{};
  }
  if (active_.empty()) {
    engine_.drop_deferred(*this);
  } else {
    engine_.defer(*this);
  }
}

void FlowResource::flush(std::uint64_t sequence) {
  if (flows_dirty_) {
    flow_scratch_.clear();
    flow_scratch_.reserve(active_.size());
    for (const auto& entry : active_) flow_scratch_.push_back(&entry->flow);
    allocator_.allocate(flow_scratch_);
    flows_dirty_ = false;
    ++stats_.rate_solves;
  } else {
    // Unchanged flow set: the allocator would re-derive the identical
    // rates, so keep them and only refresh the completion event.
    ++stats_.solves_skipped;
  }

  double min_eta = std::numeric_limits<double>::infinity();
  for (const auto& entry : active_) {
    const Flow& flow = entry->flow;
    PMEMFLOW_ASSERT_MSG(flow.progress_rate > 0.0,
                        "allocator must assign a positive rate");
    min_eta = std::min(min_eta, flow.remaining_bytes / flow.progress_rate);
  }
  // Round up so the event fires at-or-after the true completion instant;
  // settle_progress clamps any overshoot.
  const auto delay = static_cast<SimDuration>(std::ceil(min_eta));
  pending_completion_ = engine_.call_at_slot(
      engine_.now() + delay, sequence, [this] { on_completion_event(); });
}

void FlowResource::on_completion_event() {
  pending_completion_ = EventId{};
  settle_progress();

  // Collect finished flows, remove them, then wake their waiters.
  resume_scratch_.clear();
  auto it = active_.begin();
  while (it != active_.end()) {
    if ((*it)->flow.remaining_bytes < kCompletionEpsilon) {
      ++stats_.flows_completed;
      resume_scratch_.push_back((*it)->waiter);
      it = active_.erase(it);
      flows_dirty_ = true;
    } else {
      ++it;
    }
  }
  // Rounding can fire the event one tick before any flow finishes; in
  // that case the flush just reschedules (clean set => no re-solve).
  reallocate();
  for (auto handle : resume_scratch_) {
    engine_.schedule_resume(engine_.now(), handle);
  }
}

}  // namespace pmemflow::sim
