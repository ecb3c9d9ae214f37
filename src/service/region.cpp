#include "service/region.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "dag/spec.hpp"

namespace pmemflow::service {
namespace {

/// Floor for retry-after hints when the fleet is about to free anyway:
/// a client cannot usefully spin faster than this.
constexpr SimDuration kMinRetryNs = 1 * kMillisecond;

std::uint32_t tenants_for(const ServiceConfig& config) {
  if (config.policy != PlacementPolicy::kColocationAware) return 1;
  return std::clamp<std::uint32_t>(config.colocation.tenants_per_node, 1,
                                   Fleet::kMaxTenantsPerNode);
}

}  // namespace

Region::Region(const ServiceConfig& config, ProfileCache& cache,
               InterferenceTable& interference, Planner& planner,
               std::uint32_t index, std::uint32_t node_base,
               std::uint32_t node_count)
    : config_(config),
      cache_(cache),
      interference_(interference),
      planner_(planner),
      index_(index),
      node_base_(node_base),
      fleet_(node_count, tenants_for(config)),
      queue_(config.queue_capacity, config.defer_watermark) {
  if (config.capacity.enabled()) {
    // Per-(node, socket) pool sizes: the fleet-wide default, overridden
    // by any node whose DeviceSpec carries its own capacity
    // (heterogeneous DIMM populations). node_specs is indexed by the
    // global node id, hence the node_base offset.
    std::vector<std::vector<Bytes>> capacities(
        node_count,
        std::vector<Bytes>(kSocketsPerNode, config.capacity.pmem_per_socket));
    for (std::uint32_t n = 0; n < node_count; ++n) {
      const std::size_t global = node_base + n;
      if (global >= config.node_specs.size()) break;
      for (std::uint32_t s = 0; s < kSocketsPerNode; ++s) {
        capacities[n][s] =
            config.node_specs[global]
                .devices.for_socket(static_cast<topo::SocketId>(s))
                .capacity_or(config.capacity.pmem_per_socket);
      }
    }
    fleet_.init_residency(std::move(capacities));
  }
}

std::string Region::track_name(SlotRef ref) const {
  const std::uint32_t global = node_base_ + ref.node;
  return fleet_.tenants_per_node() > 1 ? format("node-%u.%u", global, ref.slot)
                                       : format("node-%u", global);
}

Expected<PlanResolver::Resolved> Region::resolve_profile(
    const Submission& submission, std::uint32_t node) {
  const std::uint64_t hits_before = cache_.stats().hits;
  auto profile =
      cache_.lookup_keyed(submission, device_fp_of(node), backend_of(node));
  if (!profile.has_value()) return Unexpected{profile.error()};
  return Resolved{*std::move(profile), cache_.stats().hits > hits_before};
}

Expected<PairInterference> Region::resolve_interference(
    const CachedProfile& a, const workflow::WorkflowSpec& spec_a,
    const CachedProfile& b, const workflow::WorkflowSpec& spec_b,
    std::uint32_t node) {
  return interference_.lookup_keyed(a, spec_a, b, spec_b, device_fp_of(node),
                                    backend_of(node));
}

void Region::seed(std::vector<Submission> submissions) {
  for (Submission& submission : submissions) {
    const SimTime at = submission.arrival_ns;
    events_.schedule(
        at, [this, submission = std::move(submission), at]() mutable {
          arrive(std::move(submission), 0, at);
        });
  }
}

void Region::inject(Submission submission, SimTime at) {
  events_.schedule(at,
                   [this, submission = std::move(submission), at]() mutable {
                     arrive(std::move(submission), 0, at);
                   });
}

void Region::advance_until(SimTime boundary) {
  while (!failure_.has_value() && !events_.empty() &&
         events_.next_time() < boundary) {
    auto [time, callback] = events_.pop();
    callback();
    ++des_events_;
  }
}

void Region::run_to_completion() {
  while (!failure_.has_value() && !events_.empty()) {
    auto [time, callback] = events_.pop();
    callback();
    ++des_events_;
  }
}

std::optional<SimTime> Region::next_event_time() const {
  if (events_.empty()) return std::nullopt;
  return events_.next_time();
}

bool Region::has_stealable_head(SimTime now) const {
  if (failure_.has_value() || queue_.empty()) return false;
  if (checkpoints_.contains(queue_.front().id)) return false;
  return !fleet_.has_idle_node(now);
}

bool Region::can_accept(SimTime now) const {
  if (failure_.has_value() || !queue_.empty()) return false;
  return fleet_.has_idle_node(now);
}

Submission Region::steal_head() { return queue_.pop(); }

std::vector<CompletionRecord> Region::take_completions() {
  for (CompletionRecord& record : completions_) record.node += node_base_;
  return std::move(completions_);
}

void Region::arrive(Submission submission, std::uint32_t attempt,
                    SimTime now) {
  if (failure_.has_value()) return;
  const SimTime earliest_free = fleet_.earliest_free_ns();
  const SimDuration retry_after =
      std::max(earliest_free > now ? earliest_free - now : SimDuration{0},
               kMinRetryNs);
  const std::uint64_t id = submission.id;
  Submission retry_copy = submission;  // used only on deferral/rejection
  const AdmissionDecision decision =
      queue_.submit(std::move(submission), retry_after);
  if (decision.verdict != AdmissionVerdict::kAdmitted) {
    if (config_.tracer != nullptr) {
      config_.tracer->instant(
          "service",
          format("%s #%llu", to_string(decision.verdict),
                 static_cast<unsigned long long>(id)),
          now);
    }
    // Deferred and rejected submissions share one retry budget:
    // retry_after_ns is exactly the advisory resubmit hint a real
    // client would honor, so the service honors it itself. Work that
    // exhausts the budget is accounted as dropped — the invariant is
    // completed + dropped == submissions.
    if (attempt < config_.max_retries) {
      ++retries_;
      const SimTime retry_at = now + decision.retry_after_ns;
      events_.schedule(retry_at, [this, retry = std::move(retry_copy),
                                  attempt, retry_at]() mutable {
        arrive(std::move(retry), attempt + 1, retry_at);
      });
    } else {
      ++dropped_;
    }
  }
  dispatch(now);
}

void Region::dispatch(SimTime now) {
  while (!failure_.has_value() && !queue_.empty()) {
    // Stage 1+2 (candidates + scoring) live in the planner; the window
    // is the first k queued submissions in dispatch order. A window
    // containing a checkpointed victim is never cached: the victim's
    // remaining work and snapshot location are not part of the key.
    const auto window = queue_.window(
        std::max<std::uint32_t>(1, config_.planner.window));
    bool cacheable = true;
    for (const Submission* submission : window) {
      if (checkpoints_.contains(submission->id)) {
        cacheable = false;
        break;
      }
    }
    auto plan = planner_.plan(*this, fleet_, window, now, cacheable);
    if (!plan.has_value()) {
      failure_ = plan.error();
      return;
    }
    if (plan->steps.empty()) {
      maybe_preempt(now);
      return;
    }
    for (const PlannedStep& step : plan->steps) {
      commit_step(step, now);
      if (failure_.has_value()) return;
    }
  }
}

void Region::commit_step(const PlannedStep& step, SimTime now) {
  Submission submission = queue_.take(step.id);
  const PlacementCandidate& choice = step.candidate;

  RunningTask task;
  SimDuration overhead = 0;    // a resume's restore and migration legs
  const char* tag = nullptr;  // trace-span tag; a pair's is its config
  const auto checkpointed = checkpoints_.find(submission.id);
  const bool resumed = checkpointed != checkpoints_.end();
  if (resumed) {
    // A resumed task brings its own record, remaining work and lease.
    // On a heterogeneous fleet the remaining solo work carries over
    // unscaled even when the resume lands on a different backend: a
    // checkpoint preserves progress, not a re-profile, and the restore /
    // migration legs use the fleet-wide CheckpointParams rates.
    ResumeState state = std::move(checkpointed->second);
    checkpoints_.erase(checkpointed);
    task = std::move(state.task);
    SimDuration migration = 0;
    if (choice.ref.node != state.checkpoint_node) {
      migration =
          transfer_time(state.snapshot_bytes, config_.checkpoint.migration_bw);
      ++task.record.migrations;
    }
    overhead = transfer_time(state.snapshot_bytes,
                             config_.checkpoint.restore_read_bw) +
               migration;
    task.record.restore_ns += overhead;
    tag = migration > 0 ? "resume, migrated" : "resume";
  } else {
    // A fresh task runs the chosen option of the profile the planner
    // resolved on its node.
    const CachedProfile& profile = *choice.profile;
    if (!profile.placeable()) {
      // No socket assignment fits this DAG's per-socket core demand on
      // any plan: the node shape, not transient load, is the blocker,
      // so retrying cannot help. Count it dropped (the completed +
      // dropped == submissions invariant holds) instead of asserting
      // in the fleet's slot accounting.
      ++dropped_;
      if (config_.tracer != nullptr) {
        config_.tracer->instant(
            "service",
            format("unplaceable #%llu",
                   static_cast<unsigned long long>(submission.id)),
            now);
      }
      return;
    }
    const OptionChoice picked =
        choose_option(config_, profile, choice.flip_placement);
    const PlanOption& option = profile.options[picked.index];
    task.record.id = submission.id;
    task.record.label = submission.dag != nullptr ? submission.dag->label
                                                  : submission.spec.label;
    task.record.priority = submission.priority;
    task.record.config = picked.config;
    task.record.cache_hit = choice.cache_hit;
    task.record.arrival_ns = submission.arrival_ns;
    task.record.start_ns = now;
    task.record.best_runtime_ns = profile.best_runtime_ns();
    task.record.dag = profile.dag;
    task.record.ephemeral_edges = option.ephemeral_edges;
    task.snapshot_bytes_per_iteration = profile.bytes_per_iteration;
    task.iterations = profile.iterations;
    task.remaining_ns = staged_runtime(
        option.runtime_ns, profile.bytes_per_iteration, profile.iterations);
    task.record.config_runtime_ns = task.remaining_ns;
    if (capacity_on()) {
      // Every policy pays for residency once the model is on; only
      // kCapacityAware *places* with it.
      task.lease_bytes = lease_for(config_.capacity, profile);
      task.lease_socket = option.lease_socket;
    }
    if (profile.dag) {
      tag = picked.index == kFusedOption ? "dag-fused" : "dag-spread";
    }
  }

  if (choice.packs) {
    // Charge the incumbent its measured slowdown before the joiner
    // starts: settle its solo-rate progress, stretch the rest.
    const SlotRef inc{choice.ref.node,
                      *fleet_.sole_tenant_slot(choice.ref.node)};
    ++fleet_.task_at(inc)->record.colocations;
    apply_interference(inc, now, choice.incumbent_factor);
    ++colocations_;
    ++task.record.colocations;
  }

  // One tail for every start: lease, segment overhead, trace span,
  // interference, launch.
  task.record.node = choice.ref.node;
  task.record.slot = choice.ref.slot;
  if (capacity_on() && task.lease_bytes > 0) {
    // A resume re-charges the lease released at preemption; either
    // start may need an eviction first. The cold residue is sized once,
    // against the first charge.
    overhead += charge_lease(task, choice.ref.node);
    if (!resumed) set_residue(task);
  }
  task.segment_overhead_ns = overhead;
  task.interference = choice.factor;
  task.submission = std::move(submission);
  if (config_.tracer != nullptr) {
    const std::string span_tag =
        tag != nullptr ? tag : task.record.config.label();
    config_.tracer->begin(
        track_name(choice.ref),
        format("%s [%s]", task.record.label.c_str(), span_tag.c_str()), now);
  }
  const SimDuration work_wall =
      interference_scaled(task.remaining_ns, choice.factor);
  if (choice.packs) {
    interference_delta_ns_ +=
        static_cast<std::int64_t>(work_wall - task.remaining_ns);
  }
  const SimDuration busy_ns = overhead + work_wall;
  const SimTime finish = now + busy_ns;
  task.record.finish_ns = finish;  // provisional until the event fires
  // The callback reads the finish time from the slot, not a captured
  // value: a re-timed finish event must see the re-timed clock.
  const SlotRef ref = choice.ref;
  task.finish_event = events_.schedule(finish, [this, ref] { on_finish(ref); });
  fleet_.start(ref, now, busy_ns, std::move(task));
}

SimDuration Region::charge_lease(RunningTask& task, std::uint32_t node) {
  const std::uint32_t socket = task.lease_socket;
  Bytes lease = task.lease_bytes;
  capacity::ResidencyTracker& residency = fleet_.residency();
  SimDuration overhead = 0;
  if (!residency.fits(node, socket, lease)) {
    // Make room by evicting cold finished-channel residue oldest-first;
    // the reclaim is a device rewrite charged as dispatch overhead.
    const Bytes evicted = residency.evict_cold(node, socket, lease);
    overhead += capacity::gc_drain_ns(evicted, config_.capacity.retention);
  }
  if (!residency.fits(node, socket, lease)) {
    // The lease exceeds even the emptied pool: the channel thrashes,
    // rewriting its overflow every iteration. Charge that churn and
    // clamp the lease so the pool booking stays consistent.
    const capacity::CapacityPool& pool = residency.pool(node, socket);
    const Bytes overflow = lease - pool.free();
    overhead += capacity::gc_drain_ns(overflow, config_.capacity.retention) *
                task.iterations;
    lease = pool.free();
  }
  if (lease > 0) {
    const Status acquired = residency.acquire(node, socket, lease);
    PMEMFLOW_ASSERT_MSG(acquired.has_value(),
                        "capacity lease must fit after eviction/clamp");
  }
  task.lease_bytes = lease;
  return overhead;
}

SimDuration Region::staged_runtime(SimDuration runtime, Bytes snapshot,
                                   std::uint32_t iterations) {
  if (!capacity_on() || !config_.capacity.staging.enabled() ||
      snapshot == 0 || snapshot > config_.capacity.staging.stage_bytes) {
    return runtime;
  }
  // An iteration's snapshot fits the DRAM staging tier: writes land at
  // DRAM rather than device write bandwidth and the drain overlaps the
  // next iteration's compute. The per-iteration saving is the bandwidth
  // delta, capped at half the runtime — staging cannot erase the
  // compute/read side of the pipeline.
  const SimDuration drain =
      transfer_time(snapshot, config_.capacity.staging.drain_write_bw);
  const SimDuration dram =
      transfer_time(snapshot, config_.capacity.staging.dram_write_bw);
  SimDuration saving = drain > dram ? (drain - dram) * iterations : 0;
  saving = std::min(saving, runtime / 2);
  stage_hits_ += iterations;
  return runtime - saving;
}

void Region::set_residue(RunningTask& task) const {
  const capacity::RetentionParams& retention = config_.capacity.retention;
  const Bytes snapshot = task.snapshot_bytes_per_iteration;
  // Residue left cold at finish: without GC the whole version volume
  // lingers; with retain-k GC only the retained window does.
  task.cold_bytes =
      !retention.gc
          ? task.lease_bytes
          : (retention.enabled()
                 ? std::min(task.lease_bytes,
                            capacity::retained_bytes(snapshot, task.iterations,
                                                     retention))
                 : Bytes{0});
  task.gc_bytes = retention.gc ? capacity::gc_reclaimable_bytes(
                                     snapshot, task.iterations, retention)
                               : Bytes{0};
}

void Region::apply_interference(SlotRef ref, SimTime now, double factor) {
  RunningTask* task = fleet_.task_at(ref);
  PMEMFLOW_ASSERT(task != nullptr);
  if (task->interference == factor) return;
  const SimTime old_finish = fleet_.node(ref.node).slots[ref.slot].free_at_ns;
  const SimTime new_finish = fleet_.retime(ref, now, factor);
  interference_delta_ns_ += static_cast<std::int64_t>(new_finish) -
                            static_cast<std::int64_t>(old_finish);
  task->record.finish_ns = new_finish;
  task->finish_event = events_.reschedule(task->finish_event, new_finish);
  PMEMFLOW_ASSERT_MSG(task->finish_event.valid(),
                      "re-timed a task whose finish event already fired");
}

void Region::on_finish(SlotRef ref) {
  const SimTime finish = fleet_.node(ref.node).slots[ref.slot].free_at_ns;
  RunningTask task = fleet_.complete(ref);
  task.record.finish_ns = finish;
  // The final segment ran to completion: all remaining work executed.
  task.record.work_executed_ns += task.remaining_ns;
  task.remaining_ns = 0;
  if (config_.tracer != nullptr) {
    config_.tracer->end(track_name(ref), finish);
  }
  // A departing tenant releases its co-tenant back to solo speed.
  if (config_.policy == PlacementPolicy::kColocationAware) {
    if (const auto other = fleet_.sole_tenant_slot(ref.node)) {
      apply_interference(SlotRef{ref.node, *other}, finish, 1.0);
    }
  }
  if (capacity_on() && task.lease_bytes > 0) {
    // The working lease frees, but the retained residue stays cold on
    // the socket until GC or a later eviction reclaims it.
    capacity::ResidencyTracker& residency = fleet_.residency();
    const Bytes cold = std::min(task.cold_bytes, task.lease_bytes);
    if (task.lease_bytes > cold) {
      residency.release(ref.node, task.lease_socket, task.lease_bytes - cold);
    }
    if (cold > 0) {
      residency.add_cold(ref.node, task.lease_socket, task.record.id, cold,
                         finish);
    }
    if (task.gc_bytes > 0) residency.note_gc(task.gc_bytes);
    task.lease_bytes = 0;
  }
  completions_.push_back(std::move(task.record));
  dispatch(finish);
}

bool Region::victim_frees_usable_slot(SlotRef victim, SimTime now) {
  // Preempting only helps the urgent head if the victim's slot is
  // actually usable afterwards: the node must end up empty (modulo the
  // drain) or keep a co-tenant the urgent is allowed to pack with.
  for (std::uint32_t s = 0; s < fleet_.tenants_per_node(); ++s) {
    if (s == victim.slot) continue;
    const SlotState& other = fleet_.node(victim.node).slots[s];
    if (other.running.has_value()) {
      // An urgent DAG needs the whole node, and a DAG co-tenant never
      // admits a packer: either way the freed slot is unusable.
      if (queue_.front().dag != nullptr) return false;
      if (other.running->submission.dag != nullptr) return false;
      auto urgent_profile = resolve_profile(queue_.front(), victim.node);
      if (!urgent_profile.has_value()) {
        failure_ = urgent_profile.error();
        return false;
      }
      auto co_profile = resolve_profile(other.running->submission, victim.node);
      if (!co_profile.has_value()) {
        failure_ = co_profile.error();
        return false;
      }
      if (!colocation_compatible(*co_profile->profile, *urgent_profile->profile,
                                 config_.colocation)) {
        return false;
      }
      auto pair = resolve_interference(
          *co_profile->profile, other.running->submission.spec,
          *urgent_profile->profile, queue_.front().spec, victim.node);
      if (!pair.has_value()) {
        failure_ = pair.error();
        return false;
      }
      if (!pair->feasible) return false;
    } else if (other.free_at_ns > now) {
      return false;  // another drain holds the mirrored sockets
    }
  }
  return true;
}

void Region::maybe_preempt(SimTime now) {
  if (config_.preemption != PreemptionPolicy::kCheckpointRestore) return;
  if (queue_.empty()) return;
  if (queue_.front().priority != Priority::kUrgent) return;
  // One preemption (== one node already draining) per waiting urgent:
  // a second urgent behind the same head must not trigger a second
  // checkpoint for work the first drain will already absorb.
  if (queue_.count_at_least(Priority::kUrgent) <= urgent_reservations_) {
    return;
  }

  // Without preempting, the urgent head waits for a whole node to free.
  // Under co-location a slot can be free yet unusable to it (beside an
  // incompatible incumbent or any DAG), so the earliest free slot says
  // nothing; with one tenant per node the two times are equal.
  const SimTime node_free = fleet_.earliest_node_free_ns();
  if (node_free <= now) return;
  const SimDuration wait_without = node_free - now;

  // Decision rule: preempting makes the urgent wait only for the
  // checkpoint drain, so it saves (wait_without - checkpoint). Displace
  // only when that saving exceeds the full checkpoint + restore cost
  // the fleet pays for it; among profitable victims take the cheapest,
  // lowest (node, slot) as the deterministic tiebreak.
  struct Candidate {
    SlotRef ref;
    Bytes snapshot_bytes;
    SimDuration checkpoint_ns;
    SimDuration cost_ns;
  };
  std::optional<Candidate> victim;
  for (std::uint32_t i = 0; i < fleet_.size(); ++i) {
    for (std::uint32_t s = 0; s < fleet_.tenants_per_node(); ++s) {
      const SlotRef ref{i, s};
      const RunningTask* task = fleet_.running(ref);
      if (task == nullptr) continue;  // free or already draining
      if (task->record.priority >= Priority::kUrgent) continue;
      // A DAG's in-flight state spans several channels on both sockets;
      // the single-snapshot checkpoint model does not cover it.
      if (task->submission.dag != nullptr) continue;
      if (config_.policy == PlacementPolicy::kColocationAware &&
          !victim_frees_usable_slot(ref, now)) {
        if (failure_.has_value()) return;
        continue;
      }
      const SimDuration remaining = fleet_.remaining_work_at(ref, now);
      const Bytes snapshot = task->snapshot_bytes(remaining);
      const SimDuration checkpoint =
          transfer_time(snapshot, config_.checkpoint.checkpoint_write_bw);
      if (checkpoint >= wait_without) continue;  // saves no wait at all
      const SimDuration restore =
          transfer_time(snapshot, config_.checkpoint.restore_read_bw);
      const SimDuration cost = checkpoint + restore;
      if (wait_without - checkpoint <= cost) continue;
      if (!victim.has_value() || cost < victim->cost_ns) {
        victim = Candidate{ref, snapshot, checkpoint, cost};
      }
    }
  }
  if (!victim.has_value()) return;

  // A co-located victim's pack charge covered stretch for all of its
  // remaining work; the part it will now re-run solo elsewhere never
  // materializes, so refund it.
  if (const RunningTask* task = fleet_.running(victim->ref);
      task->interference > 1.0) {
    const SimDuration remaining = fleet_.remaining_work_at(victim->ref, now);
    interference_delta_ns_ -= static_cast<std::int64_t>(
        interference_scaled(remaining, task->interference) - remaining);
  }

  RunningTask task = fleet_.preempt(victim->ref, now, victim->checkpoint_ns);
  const bool cancelled = events_.cancel(task.finish_event);
  PMEMFLOW_ASSERT_MSG(cancelled, "victim finish event already fired");

  // The checkpoint drain moves the channel off PMEM: its lease frees
  // now and is re-charged at resume (lease_bytes keeps the size).
  if (capacity_on() && task.lease_bytes > 0) {
    fleet_.residency().release(victim->ref.node, task.lease_socket,
                               task.lease_bytes);
  }

  // The departing victim releases its co-tenant back to solo speed.
  if (config_.policy == PlacementPolicy::kColocationAware) {
    if (const auto other = fleet_.sole_tenant_slot(victim->ref.node)) {
      apply_interference(SlotRef{victim->ref.node, *other}, now, 1.0);
    }
  }

  if (config_.tracer != nullptr) {
    const std::string track = track_name(victim->ref);
    config_.tracer->end(track, now);  // victim's segment ends here
    config_.tracer->begin(track,
                          format("ckpt %s", task.record.label.c_str()), now);
    config_.tracer->end(track, now + victim->checkpoint_ns);
    config_.tracer->instant(
        "service",
        format("preempt #%llu",
               static_cast<unsigned long long>(task.submission.id)),
        now);
  }

  Submission requeue = std::move(task.submission);
  checkpoints_.emplace(
      requeue.id,
      ResumeState{victim->snapshot_bytes, victim->ref.node, std::move(task)});
  queue_.reinstate(std::move(requeue));

  ++urgent_reservations_;
  const SimTime drain_done = now + victim->checkpoint_ns;
  events_.schedule(drain_done, [this, drain_done] {
    PMEMFLOW_ASSERT(urgent_reservations_ > 0);
    --urgent_reservations_;
    dispatch(drain_done);
  });
}

}  // namespace pmemflow::service
