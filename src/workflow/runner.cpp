#include "workflow/runner.hpp"

#include <algorithm>
#include <memory>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "stack/nova_channel.hpp"
#include "stack/nvstream.hpp"

namespace pmemflow::workflow {

const char* to_string(WorkflowSpec::Stack stack) noexcept {
  switch (stack) {
    case WorkflowSpec::Stack::kNvStream: return "nvstream";
    case WorkflowSpec::Stack::kNova: return "nova";
  }
  return "?";
}

namespace {

/// Verifies a read-back part against the model's ground truth. Returns
/// the number of mismatches (0 = clean).
std::uint64_t verify_part(const stack::SnapshotPart& expected,
                          const stack::SnapshotPart& actual) {
  if (const auto* run = std::get_if<stack::SyntheticRun>(&expected)) {
    const auto* actual_run = std::get_if<stack::SyntheticRun>(&actual);
    if (actual_run == nullptr) return run->count;
    return (*run == *actual_run) ? 0 : run->count;
  }
  const auto& expected_objects =
      std::get<std::vector<stack::ObjectData>>(expected);
  const auto* actual_objects =
      std::get_if<std::vector<stack::ObjectData>>(&actual);
  if (actual_objects == nullptr ||
      actual_objects->size() != expected_objects.size()) {
    return expected_objects.size();
  }
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < expected_objects.size(); ++i) {
    const auto& want = expected_objects[i];
    const auto& got = (*actual_objects)[i];
    if (want.index != got.index ||
        want.payload.checksum() != got.payload.checksum()) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Tracer label of one version's step, e.g. "wait v3".
std::string step(const char* what, std::uint64_t version) {
  return format("%s v%llu", what, static_cast<unsigned long long>(version));
}

struct EdgeState;

struct StageState {
  const JobStage* spec = nullptr;
  std::vector<EdgeState*> in_edges;   // edge-index order
  std::vector<EdgeState*> out_edges;  // edge-index order
  SimTime finish = 0;
};

/// Simulation state of one edge: its channel plus the synchronization
/// coupling the producer's ranks to the consumer's.
struct EdgeState {
  EdgeState(sim::Engine& engine, const JobEdge& edge,
            std::uint32_t producer_ranks)
      : spec(edge),
        ranks(producer_ranks),
        version_gate(engine),
        done(engine),
        producer_barrier(engine, producer_ranks),
        consumer_barrier(engine, producer_ranks),
        capacity_gate(engine),
        drain_gate(engine) {}

  const JobEdge& spec;
  const StageState* producer = nullptr;
  std::uint32_t ranks;  // producer ranks (the consumer pairs 1:1)
  std::unique_ptr<stack::StreamChannel> channel;
  devices::MemoryDevice* device = nullptr;  // the channel's device
  sim::VersionGate version_gate;  // committed versions
  sim::VersionGate done;          // 1 once the final version committed
  sim::Barrier producer_barrier;
  sim::Barrier consumer_barrier;
  std::optional<sim::Semaphore> capacity;  // empty when unbounded
  sim::VersionGate capacity_gate;

  /// Per-socket DRAM staging tier (shared across jobs on the socket);
  /// null when the job writes straight through.
  capacity::StagingTier* staging = nullptr;
  sim::VersionGate drain_gate;               // fully drained versions
  std::vector<std::uint32_t> drained_ranks;  // [version] drain count
  std::vector<bool> drain_complete;          // [version]
  std::uint64_t drained_through = 0;  // drain_gate is contiguous to here

  SimTime last_commit = 0;
  Bytes gc_bytes = 0;
};

/// Per-job simulation state for one (possibly multi-job) run.
struct JobState {
  const Job* spec = nullptr;
  std::vector<StageState> stages;  // sized once: ranks hold references
  std::vector<std::unique_ptr<EdgeState>> edges;
  JobResult result;  // verification counts accrue during the run
};

/// Publishes `version` of `edge` once every producer rank's part is
/// durable.
void commit(sim::Engine& engine, const Job& job, EdgeState& edge,
            std::uint64_t version, const char* note) {
  edge.channel->commit_version(version);
  if (job.tracer != nullptr) {
    job.tracer->instant(edge.spec.track, step("commit", version) + note,
                        engine.now());
  }
  edge.version_gate.advance_to(version);
  if (version == job.iterations) {
    edge.last_commit = engine.now();
    edge.done.advance_to(1);
  }
}

/// Background device write modelling retention GC rewriting `bytes`
/// of superseded snapshots out of the log. Runs off the critical path
/// but contends for the channel device's write bandwidth.
sim::Task gc_rewrite(EdgeState& edge, Bytes bytes) {
  sim::FlowSpec flow;
  flow.kind = sim::IoKind::kWrite;
  flow.total_bytes = bytes;
  flow.op_size = 256 * kKiB;
  co_await edge.device->io(edge.spec.socket, flow);
}

/// Run by the last consumer rank done with `version`: recycles it (or,
/// under retain-k, garbage-collects the version k behind it) and frees
/// its capacity slot.
void release(sim::Engine& engine, const Job& job, EdgeState& edge,
             std::uint64_t version) {
  const capacity::RetentionParams& retention = job.retention;
  if (!retention.enabled()) {
    edge.channel->recycle_version(version);
  } else if (retention.gc && version > retention.retain_versions) {
    // Retain-k: version v keeps the k most recent read versions live;
    // GC recycles v-k and rewrites it out of the log as a background
    // device write. The final k versions are never recycled — they are
    // the run's cold residue.
    const std::uint64_t victim = version - retention.retain_versions;
    const Bytes before = edge.channel->stats().bytes_reclaimed;
    edge.channel->recycle_version(victim);
    const Bytes reclaimed = edge.channel->stats().bytes_reclaimed - before;
    edge.gc_bytes += reclaimed;
    if (reclaimed > 0) {
      engine.spawn(gc_rewrite(edge, reclaimed));
    }
  }
  if (edge.capacity.has_value()) {
    edge.capacity->release();
  }
}

/// Background drain of one staged part: performs the real device write
/// (issued from the channel socket — the drain is device-side, so it
/// classifies local) and, when every rank of `version` has drained,
/// advances the drain gate contiguously.
sim::Task drain_part(EdgeState& edge, std::uint64_t version,
                     std::uint32_t rank, stack::SnapshotPart part,
                     Bytes staged_bytes) {
  co_await edge.channel->write_part(edge.spec.socket, version, rank,
                                    std::move(part), 0.0);
  if (staged_bytes > 0) edge.staging->drained(staged_bytes);
  edge.drained_ranks[version] += 1;
  if (edge.drained_ranks[version] == edge.ranks) {
    edge.drain_complete[version] = true;
    while (edge.drained_through + 1 < edge.drain_complete.size() &&
           edge.drain_complete[edge.drained_through + 1]) {
      edge.drained_through += 1;
      edge.drain_gate.advance_to(edge.drained_through);
    }
  }
}

/// Commits staged versions in order as their drains complete; under
/// staging this replaces the producer-barrier releaser's commit.
sim::Task commit_pump(sim::Engine& engine, const Job& job, EdgeState& edge) {
  for (std::uint64_t version = 1; version <= job.iterations; ++version) {
    co_await edge.drain_gate.wait_for(version);
    commit(engine, job, edge, version, " (drained)");
  }
}

/// One stage rank: per version, consume from every in-edge (reader
/// role), then produce on every out-edge (writer role; the bulk
/// compute rides the first out-edge).
sim::Task stage_rank(sim::Engine& engine, JobState& job, StageState& stage,
                     std::uint32_t rank) {
  const Job& spec = *job.spec;
  const JobStage& self = *stage.spec;
  trace::Tracer* tracer = spec.tracer;
  const std::string track =
      tracer != nullptr ? format("%s/rank%u", self.name.c_str(), rank)
                        : std::string();
  if (spec.serial) {
    for (EdgeState* edge : stage.in_edges) {
      if (tracer != nullptr) {
        tracer->begin(track, "wait all-writers", engine.now());
      }
      co_await edge->done.wait_for(1);
      if (tracer != nullptr) tracer->end(track, engine.now());
    }
  }
  for (std::uint64_t version = 1; version <= spec.iterations; ++version) {
    for (EdgeState* edge : stage.in_edges) {
      if (tracer != nullptr) {
        tracer->begin(track, step("wait", version), engine.now());
      }
      co_await edge->version_gate.wait_for(version);
      if (tracer != nullptr) tracer->end(track, engine.now());

      // The producer's (deterministic) model says what this rank reads:
      // the object granularity the analytics compute depends on, and
      // the ground truth the read is verified against.
      const stack::SnapshotPart expected =
          edge->producer->spec->simulation->part_for(rank, self.ranks,
                                                     version);
      const double compute_per_op =
          self.analytics->compute_ns_per_object(stack::part_op_size(expected));
      stack::SnapshotPart part;
      if (tracer != nullptr) {
        tracer->begin(track, step("read+analyze", version), engine.now());
      }
      co_await edge->channel->read_part(self.socket, version, rank, part,
                                        compute_per_op);
      if (tracer != nullptr) tracer->end(track, engine.now());

      if (spec.verify_reads) {
        job.result.verification_failures += verify_part(expected, part);
        job.result.objects_verified += stack::part_object_count(expected);
      }
      if (co_await edge->consumer_barrier.arrive_and_wait()) {
        release(engine, spec, *edge, version);
      }
    }

    if (stage.out_edges.empty()) continue;
    for (EdgeState* edge : stage.out_edges) {
      if (edge->capacity.has_value()) {
        // Finite channel: one slot per in-flight version, acquired by
        // the first rank on behalf of the stage.
        if (rank == 0) {
          if (tracer != nullptr) {
            tracer->begin(track, "wait capacity", engine.now());
          }
          co_await edge->capacity->acquire();
          if (tracer != nullptr) tracer->end(track, engine.now());
          edge->capacity_gate.advance_to(version);
        } else {
          co_await edge->capacity_gate.wait_for(version);
        }
      }
    }
    const double compute =
        self.simulation->compute_ns_per_iteration(rank, self.ranks);
    bool carries_compute = true;
    for (EdgeState* edge : stage.out_edges) {
      stack::SnapshotPart part =
          self.simulation->part_for(rank, self.ranks, version);
      const std::uint64_t objects = stack::part_object_count(part);
      const double edge_compute = carries_compute ? compute : 0.0;
      carries_compute = false;
      const double compute_per_op =
          (objects > 0) ? edge_compute / static_cast<double>(objects) : 0.0;
      if (objects == 0 && edge_compute > 0.0) {
        // Pure-compute iteration (no I/O this round).
        co_await sim::sleep_for(engine,
                                static_cast<SimDuration>(edge_compute));
      }
      if (tracer != nullptr) {
        tracer->begin(track, step("compute+write", version), engine.now());
      }
      if (edge->staging != nullptr) {
        // Staged cost path: run the iteration's compute, land the part
        // in the DRAM stage (DRAM rate while it has room, drain rate
        // for the overflow), and hand the real device write to a
        // background drain. The commit pump publishes the version once
        // every rank's drain completes.
        if (objects > 0 && edge_compute > 0.0) {
          co_await sim::sleep_for(engine,
                                  static_cast<SimDuration>(edge_compute));
        }
        const capacity::AbsorbResult absorbed =
            edge->staging->absorb(stack::part_bytes(part));
        if (absorbed.absorb_ns > 0) {
          co_await sim::sleep_for(engine, absorbed.absorb_ns);
        }
        engine.spawn(drain_part(*edge, version, rank, std::move(part),
                                absorbed.staged_bytes));
      } else {
        co_await edge->channel->write_part(self.socket, version, rank,
                                           std::move(part), compute_per_op);
      }
      if (tracer != nullptr) tracer->end(track, engine.now());
      if (co_await edge->producer_barrier.arrive_and_wait() &&
          edge->staging == nullptr) {
        commit(engine, spec, *edge, version, "");
      }
    }
  }
  stage.finish = std::max(stage.finish, engine.now());
}

Status validate_deployment(const topo::PlatformSpec& platform,
                           const WorkflowSpec& spec,
                           const RunOptions& options) {
  if (spec.simulation == nullptr || spec.analytics == nullptr) {
    return make_error("workflow spec is missing a component model");
  }
  if (spec.ranks == 0 || spec.iterations == 0) {
    return make_error("workflow needs at least one rank and one iteration");
  }
  if (options.writer_socket == options.reader_socket) {
    return make_error(
        "in situ components must be pinned to distinct sockets "
        "(same-socket deployments are out of scope, paper SII-A)");
  }
  if (options.writer_socket >= platform.sockets ||
      options.reader_socket >= platform.sockets ||
      options.channel_socket >= platform.sockets) {
    return make_error("deployment references a socket the platform lacks");
  }
  if (options.channel_socket != options.writer_socket &&
      options.channel_socket != options.reader_socket) {
    return make_error("channel must be local to one of the components");
  }
  if (spec.ranks > platform.cores_per_socket) {
    return make_error(format("%u ranks exceed the %u cores of a socket",
                             spec.ranks, platform.cores_per_socket));
  }
  if (options.serial && spec.channel_capacity != 0 &&
      spec.channel_capacity < spec.iterations) {
    return make_error(format(
        "serial execution keeps all %u versions live; channel capacity "
        "%u would deadlock the writers",
        spec.iterations, spec.channel_capacity));
  }
  return ok_status();
}

}  // namespace

Runner::Runner(topo::PlatformSpec platform, devices::NodeDevices devices)
    : platform_(std::move(platform)), devices_(std::move(devices)) {
  const auto& backends = platform_.socket_backends;
  if (backends.empty()) return;
  const auto& registry = devices::DeviceRegistry::builtin();
  for (std::size_t socket = 0; socket < backends.size(); ++socket) {
    auto preset = registry.find(backends[socket]);
    if (!preset.has_value()) {
      backend_error_ = preset.error().message;
      return;
    }
    if (socket == 0) {
      devices_ = devices::NodeDevices(preset->spec);
    } else {
      devices_.set_socket(static_cast<topo::SocketId>(socket),
                          preset->spec);
    }
  }
}

Runner::Runner(topo::PlatformSpec platform, pmemsim::OptaneParams optane,
               interconnect::UpiParams upi)
    : Runner(std::move(platform), devices::NodeDevices(optane, upi)) {}

Expected<RunResult> Runner::run(const WorkflowSpec& spec,
                                const RunOptions& options) const {
  const Deployment deployment{spec, options};
  auto colocated = run_colocated({&deployment, 1});
  if (!colocated.has_value()) return Unexpected{colocated.error()};
  return std::move(colocated->workflows.front());
}

Expected<ColocatedResult> Runner::run_colocated(
    std::span<const Deployment> deployments) const {
  if (deployments.empty()) {
    return make_error("no deployments given");
  }
  // Each deployment is a two-stage job: the simulation's ranks write
  // one channel named after the workflow, the analytics' ranks read it.
  std::vector<Job> jobs;
  jobs.reserve(deployments.size());
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    const auto& [spec, options] = deployments[i];
    auto valid = validate_deployment(platform_, spec, options);
    if (!valid.has_value()) return Unexpected{valid.error()};
    const std::string prefix =
        deployments.size() > 1 ? format("w%zu/", i) : std::string();
    Job& job = jobs.emplace_back();
    job.stages = {
        {prefix + "sim", spec.ranks, options.writer_socket,
         spec.simulation.get(), nullptr},
        {prefix + "ana", spec.ranks, options.reader_socket, nullptr,
         spec.analytics.get()}};
    job.edges = {{0, 1, options.channel_socket, spec.stack,
                  spec.cost_override,
                  options.serial ? 0u : spec.channel_capacity, spec.label,
                  prefix + "channel"}};
    job.iterations = spec.iterations;
    job.verify_reads = spec.verify_reads;
    job.serial = options.serial;
    job.staging = options.staging;
    job.retention = options.retention;
    job.tracer = options.tracer;
  }
  auto ran = run_jobs(jobs);
  if (!ran.has_value()) return Unexpected{ran.error()};

  ColocatedResult result;
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    const topo::SocketId socket = deployments[i].options.channel_socket;
    const JobResult& job = ran->jobs[i];
    RunResult& run = result.workflows.emplace_back();
    run.total_ns = job.total_ns;
    run.writer_span_ns = job.producer_span_ns;
    run.objects_verified = job.objects_verified;
    run.verification_failures = job.verification_failures;
    run.channel = job.edges.front();
    run.device = ran->devices.at(socket);
    if (const auto stage = ran->staging.find(socket);
        stage != ran->staging.end()) {
      run.staging = stage->second;
    }
    run.gc_bytes = job.gc_bytes;
    run.resident_bytes =
        run.channel.payload_bytes_written > run.channel.bytes_reclaimed
            ? run.channel.payload_bytes_written - run.channel.bytes_reclaimed
            : 0;
    run.engine_events = ran->engine_events;
    result.makespan_ns = std::max(result.makespan_ns, run.total_ns);
  }
  return result;
}

Expected<JobsResult> Runner::run_jobs(std::span<const Job> jobs) const {
  if (!backend_error_.empty()) {
    return make_error(backend_error_);
  }
  // Joint core-demand validation (allocations are released with the
  // Platform object; they exist to reject over-committed co-locations
  // and fused stages that do not fit one socket).
  topo::Platform platform(platform_);
  for (const Job& job : jobs) {
    for (const JobStage& stage : job.stages) {
      auto cores = platform.allocate_cores(stage.socket, stage.ranks);
      if (!cores.has_value()) return Unexpected{cores.error()};
    }
  }

  sim::Engine engine;

  // One device per socket that hosts at least one channel, each built
  // from that socket's backend spec, with its backing space sized by
  // the spec's own capacity (falling back to the platform DIMM
  // population when the spec leaves it 0). One DRAM staging tier per
  // such socket where any job asked for one (first job's parameters
  // win; the buffer is shared).
  std::map<topo::SocketId, std::unique_ptr<devices::MemoryDevice>> devices;
  std::map<topo::SocketId, std::unique_ptr<capacity::StagingTier>> stages;
  for (const Job& job : jobs) {
    for (const JobEdge& edge : job.edges) {
      if (!devices.contains(edge.socket)) {
        const devices::DeviceSpec& spec = devices_.for_socket(edge.socket);
        auto device = spec.instantiate(
            engine, edge.socket,
            spec.capacity_or(platform_.pmem_per_socket()));
        devices.emplace(edge.socket, std::move(device));
      }
      if (job.staging.enabled() && !stages.contains(edge.socket)) {
        stages.emplace(edge.socket,
                       std::make_unique<capacity::StagingTier>(job.staging));
      }
    }
  }

  std::vector<JobState> states(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    JobState& state = states[j];
    state.spec = &job;
    state.stages.resize(job.stages.size());
    for (std::size_t s = 0; s < job.stages.size(); ++s) {
      state.stages[s].spec = &job.stages[s];
    }
    for (const JobEdge& edge : job.edges) {
      const JobStage& producer = job.stages.at(edge.producer);
      const JobStage& consumer = job.stages.at(edge.consumer);
      PMEMFLOW_ASSERT_MSG(producer.simulation != nullptr &&
                              consumer.analytics != nullptr &&
                              producer.ranks == consumer.ranks,
                          "an edge needs both models and 1:1 rank pairing");
      const std::uint32_t ranks = producer.ranks;
      auto es = std::make_unique<EdgeState>(engine, edge, ranks);
      es->producer = &state.stages[edge.producer];
      es->device = devices.at(edge.socket).get();
      switch (edge.stack) {
        case WorkflowSpec::Stack::kNvStream:
          es->channel = std::make_unique<stack::NvStreamChannel>(
              *es->device, edge.channel, ranks,
              edge.cost.value_or(stack::nvstream_cost_model()));
          break;
        case WorkflowSpec::Stack::kNova:
          es->channel = std::make_unique<stack::NovaChannel>(
              *es->device, edge.channel, ranks,
              edge.cost.value_or(stack::nova_cost_model()));
          break;
      }
      if (edge.capacity != 0) es->capacity.emplace(engine, edge.capacity);
      if (job.staging.enabled()) {
        es->staging = stages.at(edge.socket).get();
        es->drained_ranks.assign(job.iterations + 1, 0);
        es->drain_complete.assign(job.iterations + 1, false);
      }
      state.stages[edge.producer].out_edges.push_back(es.get());
      state.stages[edge.consumer].in_edges.push_back(es.get());
      state.edges.push_back(std::move(es));
    }
  }

  // Per job, spawn rank-major across stages in spec order (a pair
  // interleaves writer0, reader0, writer1, reader1, …), then the commit
  // pumps of its staged edges.
  for (JobState& state : states) {
    std::uint32_t max_ranks = 0;
    for (const JobStage& stage : state.spec->stages) {
      max_ranks = std::max(max_ranks, stage.ranks);
    }
    for (std::uint32_t rank = 0; rank < max_ranks; ++rank) {
      for (StageState& stage : state.stages) {
        if (rank < stage.spec->ranks) {
          engine.spawn(stage_rank(engine, state, stage, rank));
        }
      }
    }
    for (auto& edge : state.edges) {
      if (edge->staging != nullptr) {
        engine.spawn(commit_pump(engine, *state.spec, *edge));
      }
    }
  }
  const sim::RunStats engine_stats = engine.run_to_completion();

  JobsResult result;
  for (JobState& state : states) {
    JobResult& job = state.result;
    for (const StageState& stage : state.stages) {
      job.total_ns = std::max(job.total_ns, stage.finish);
    }
    for (const auto& edge : state.edges) {
      job.producer_span_ns = std::max(job.producer_span_ns, edge->last_commit);
      job.gc_bytes += edge->gc_bytes;
      job.edges.push_back(edge->channel->stats());
    }
    result.jobs.push_back(std::move(job));
  }
  for (const auto& [socket, device] : devices) {
    allocator_counters_.solves += device->stats().rate_solves;
    result.devices.emplace(socket, device->stats());
  }
  for (const auto& [socket, stage] : stages) {
    result.staging.emplace(socket, stage->stats());
  }
  result.engine_events = engine_stats.events_processed;
  return result;
}

}  // namespace pmemflow::workflow
