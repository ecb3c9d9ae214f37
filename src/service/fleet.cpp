#include "service/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace pmemflow::service {

const char* to_string(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kFirstFit: return "first-fit";
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
    case PlacementPolicy::kRecommenderAware: return "recommender-aware";
    case PlacementPolicy::kColocationAware: return "colocation-aware";
    case PlacementPolicy::kCapacityAware: return "capacity-aware";
    case PlacementPolicy::kDagFusion: return "dag-fusion";
  }
  return "?";
}

const char* to_string(PreemptionPolicy policy) noexcept {
  switch (policy) {
    case PreemptionPolicy::kNone: return "none";
    case PreemptionPolicy::kCheckpointRestore: return "checkpoint-restore";
  }
  return "?";
}

SimDuration interference_scaled(SimDuration work, double factor) noexcept {
  if (factor <= 1.0) return work;
  return static_cast<SimDuration>(
      std::ceil(static_cast<double>(work) * factor));
}

Bytes RunningTask::snapshot_bytes(SimDuration remaining) const noexcept {
  if (record.config_runtime_ns == 0 || snapshot_bytes_per_iteration == 0) {
    return 0;
  }
  const double remaining_fraction =
      static_cast<double>(remaining) /
      static_cast<double>(record.config_runtime_ns);
  auto in_flight = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(iterations) * remaining_fraction));
  in_flight = std::clamp<std::uint64_t>(in_flight, 1, iterations);
  return snapshot_bytes_per_iteration * in_flight;
}

Fleet::Fleet(std::uint32_t node_count, std::uint32_t tenants_per_node)
    : nodes_(node_count),
      tenants_per_node_(tenants_per_node),
      running_count_(node_count, 0) {
  PMEMFLOW_ASSERT_MSG(node_count >= 1, "fleet needs at least one node");
  PMEMFLOW_ASSERT(tenants_per_node >= 1 &&
                  tenants_per_node <= kMaxTenantsPerNode);
  for (NodeState& n : nodes_) {
    n.slots.resize(tenants_per_node);
  }
  for (std::uint32_t i = 0; i < node_count; ++i) index_insert(i);
}

void Fleet::index_insert(std::uint32_t node) {
  idle_by_load_.emplace(nodes_[node].busy_ns, node);
  idle_by_index_.insert(node);
}

void Fleet::index_remove(std::uint32_t node) {
  idle_by_load_.erase({nodes_[node].busy_ns, node});
  idle_by_index_.erase(node);
}

bool Fleet::node_free_at(std::uint32_t node, SimTime now) const noexcept {
  for (const SlotState& s : nodes_[node].slots) {
    if (s.free_at_ns > now) return false;
  }
  return true;
}

const NodeState& Fleet::node(std::uint32_t index) const {
  PMEMFLOW_ASSERT(index < nodes_.size());
  return nodes_[index];
}

SlotState& Fleet::slot(SlotRef ref) {
  PMEMFLOW_ASSERT(ref.node < nodes_.size());
  PMEMFLOW_ASSERT(ref.slot < tenants_per_node_);
  return nodes_[ref.node].slots[ref.slot];
}

const SlotState& Fleet::slot(SlotRef ref) const {
  PMEMFLOW_ASSERT(ref.node < nodes_.size());
  PMEMFLOW_ASSERT(ref.slot < tenants_per_node_);
  return nodes_[ref.node].slots[ref.slot];
}

const RunningTask* Fleet::running(SlotRef ref) const {
  const SlotState& s = slot(ref);
  return s.running.has_value() ? &*s.running : nullptr;
}

RunningTask* Fleet::task_at(SlotRef ref) {
  SlotState& s = slot(ref);
  return s.running.has_value() ? &*s.running : nullptr;
}

SimTime Fleet::earliest_free_ns() const noexcept {
  PMEMFLOW_ASSERT(!nodes_.empty());
  SimTime earliest = nodes_.front().slots.front().free_at_ns;
  for (const NodeState& n : nodes_) {
    for (const SlotState& s : n.slots) {
      earliest = std::min(earliest, s.free_at_ns);
    }
  }
  return earliest;
}

SimTime Fleet::earliest_node_free_ns() const noexcept {
  PMEMFLOW_ASSERT(!nodes_.empty());
  SimTime earliest = std::numeric_limits<SimTime>::max();
  for (const NodeState& n : nodes_) {
    SimTime node_free = 0;
    for (const SlotState& s : n.slots) {
      node_free = std::max(node_free, s.free_at_ns);
    }
    earliest = std::min(earliest, node_free);
  }
  return earliest;
}

bool Fleet::has_idle_node(SimTime now) const {
  // A node is dispatchable only once every slot's finish event has
  // actually fired (running cleared — the index membership criterion):
  // an arrival landing at exactly free_at_ns must wait for the
  // same-timestamp completion callback. Index members may still be
  // draining a checkpoint, hence the node_free_at filter.
  return std::any_of(idle_by_index_.begin(), idle_by_index_.end(),
                     [&](std::uint32_t i) { return node_free_at(i, now); });
}

void Fleet::idle_nodes(SimTime now, std::vector<std::uint32_t>& out) const {
  out.clear();
  for (std::uint32_t i : idle_by_index_) {
    if (node_free_at(i, now)) out.push_back(i);
  }
}

void Fleet::idle_nodes_by_load(SimTime now,
                               std::vector<std::uint32_t>& out) const {
  out.clear();
  for (const auto& [busy, i] : idle_by_load_) {
    if (node_free_at(i, now)) out.push_back(i);
  }
}

std::optional<std::uint32_t> Fleet::sole_tenant_slot(
    std::uint32_t node) const {
  PMEMFLOW_ASSERT(node < nodes_.size());
  std::optional<std::uint32_t> tenant;
  for (std::uint32_t s = 0; s < tenants_per_node_; ++s) {
    if (!nodes_[node].slots[s].running.has_value()) continue;
    if (tenant.has_value()) return std::nullopt;  // two tenants
    tenant = s;
  }
  return tenant;
}

std::optional<std::uint32_t> Fleet::pack_slot(std::uint32_t node,
                                              SimTime now) const {
  PMEMFLOW_ASSERT(node < nodes_.size());
  if (!sole_tenant_slot(node).has_value()) return std::nullopt;
  std::optional<std::uint32_t> target;
  for (std::uint32_t s = 0; s < tenants_per_node_; ++s) {
    const SlotState& state = nodes_[node].slots[s];
    if (state.running.has_value()) continue;
    // A slot draining a checkpoint blocks packing: the drain occupies
    // the mirrored sockets the joiner would need.
    if (state.free_at_ns > now) return std::nullopt;
    if (!target.has_value()) target = s;
  }
  return target;
}

void Fleet::start(SlotRef ref, SimTime start_ns, SimDuration busy_ns,
                  RunningTask task) {
  SlotState& s = slot(ref);
  PMEMFLOW_ASSERT(s.free_at_ns <= start_ns);
  PMEMFLOW_ASSERT(!s.running.has_value());
  // Leave the idle index before busy_ns moves: the set key embeds it.
  if (running_count_[ref.node]++ == 0) index_remove(ref.node);
  s.free_at_ns = start_ns + busy_ns;
  nodes_[ref.node].busy_ns += busy_ns;
  task.rate_since_ns = start_ns;
  s.running.emplace(std::move(task));
}

RunningTask Fleet::complete(SlotRef ref) {
  SlotState& s = slot(ref);
  PMEMFLOW_ASSERT(s.running.has_value());
  ++nodes_[ref.node].completed;
  RunningTask task = std::move(*s.running);
  s.running.reset();
  PMEMFLOW_ASSERT(running_count_[ref.node] > 0);
  if (--running_count_[ref.node] == 0) index_insert(ref.node);
  return task;
}

void Fleet::settle(RunningTask& task, SimTime now) {
  PMEMFLOW_ASSERT(now >= task.rate_since_ns);
  SimDuration elapsed = now - task.rate_since_ns;
  const SimDuration overhead = std::min(elapsed, task.segment_overhead_ns);
  task.segment_overhead_ns -= overhead;
  elapsed -= overhead;
  SimDuration work = elapsed;
  if (task.interference > 1.0) {
    work = static_cast<SimDuration>(static_cast<double>(elapsed) /
                                    task.interference);
  }
  work = std::min(work, task.remaining_ns);
  task.remaining_ns -= work;
  task.record.work_executed_ns += work;
  task.rate_since_ns = now;
}

SimDuration Fleet::remaining_work_at(SlotRef ref, SimTime now) const {
  const SlotState& s = slot(ref);
  PMEMFLOW_ASSERT(s.running.has_value());
  const RunningTask& task = *s.running;
  PMEMFLOW_ASSERT(now >= task.rate_since_ns);
  SimDuration elapsed = now - task.rate_since_ns;
  elapsed -= std::min(elapsed, task.segment_overhead_ns);
  SimDuration work = elapsed;
  if (task.interference > 1.0) {
    work = static_cast<SimDuration>(static_cast<double>(elapsed) /
                                    task.interference);
  }
  work = std::min(work, task.remaining_ns);
  return task.remaining_ns - work;
}

RunningTask Fleet::preempt(SlotRef ref, SimTime now,
                           SimDuration checkpoint_ns) {
  SlotState& s = slot(ref);
  PMEMFLOW_ASSERT(s.running.has_value());
  PMEMFLOW_ASSERT(s.free_at_ns > now);
  NodeState& n = nodes_[ref.node];

  RunningTask task = std::move(*s.running);
  s.running.reset();
  settle(task, now);
  task.interference = 1.0;  // re-charged if it is ever packed again

  // Un-charge the busy time the slot will no longer spend, then charge
  // the checkpoint drain: the slot is occupied until the snapshot has
  // been written out at PMEM write bandwidth.
  n.busy_ns -= s.free_at_ns - now;
  n.busy_ns += checkpoint_ns;
  n.checkpoint_busy_ns += checkpoint_ns;
  s.free_at_ns = now + checkpoint_ns;
  ++n.preemptions;

  ++task.record.preemptions;
  task.record.checkpoint_ns += checkpoint_ns;
  // Re-enter the idle index only after the busy adjustments above, so
  // the set key matches the node's settled busy_ns. The node is still
  // draining the snapshot; node_free_at hides it until the drain ends.
  PMEMFLOW_ASSERT(running_count_[ref.node] > 0);
  if (--running_count_[ref.node] == 0) index_insert(ref.node);
  return task;
}

SimTime Fleet::retime(SlotRef ref, SimTime now, double factor) {
  PMEMFLOW_ASSERT(factor >= 1.0);
  SlotState& s = slot(ref);
  PMEMFLOW_ASSERT(s.running.has_value());
  PMEMFLOW_ASSERT(s.free_at_ns >= now);
  NodeState& n = nodes_[ref.node];
  RunningTask& task = *s.running;

  settle(task, now);
  task.interference = factor;
  const SimDuration busy =
      task.segment_overhead_ns + interference_scaled(task.remaining_ns, factor);
  n.busy_ns -= s.free_at_ns - now;
  n.busy_ns += busy;
  s.free_at_ns = now + busy;
  return s.free_at_ns;
}

double Fleet::utilization(std::uint32_t index, SimDuration horizon_ns) const {
  PMEMFLOW_ASSERT(index < nodes_.size());
  if (horizon_ns == 0) return 0.0;
  const NodeState& n = nodes_[index];
  // Busy time past the horizon (a checkpoint drain or re-timed segment
  // still running when the measurement window closes) is not in-window
  // work; without the clamp a drain scheduled near the end of a run
  // reports utilization > 1.
  SimDuration overhang = 0;
  for (const SlotState& s : n.slots) {
    if (s.free_at_ns > horizon_ns) overhang += s.free_at_ns - horizon_ns;
  }
  const SimDuration in_horizon =
      n.busy_ns > overhang ? n.busy_ns - overhang : 0;
  return static_cast<double>(in_horizon) /
         (static_cast<double>(horizon_ns) *
          static_cast<double>(tenants_per_node_));
}

void Fleet::init_residency(std::vector<std::vector<Bytes>> capacities) {
  PMEMFLOW_ASSERT_MSG(capacities.size() == nodes_.size(),
                      "residency capacities must cover every node");
  residency_ = capacity::ResidencyTracker(std::move(capacities));
}

bool Fleet::any_task_active(SimTime now) const noexcept {
  for (const NodeState& n : nodes_) {
    for (const SlotState& s : n.slots) {
      if (s.running.has_value() || s.free_at_ns > now) return true;
    }
  }
  return false;
}

double Fleet::mean_utilization(SimDuration horizon_ns) const {
  double sum = 0.0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    sum += utilization(i, horizon_ns);
  }
  return sum / static_cast<double>(nodes_.size());
}

}  // namespace pmemflow::service
