#include "dag/runner.hpp"

#include "common/strings.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::dag {
namespace {

Status validate_run(const topo::PlatformSpec& platform, const DagSpec& dag,
                    const DagRunOptions& options) {
  if (auto status = validate(dag); !status) {
    return Unexpected{status.error()};
  }
  if (options.component_sockets.size() != dag.components.size()) {
    return make_error(
        format("placement pins %zu components but the dag has %zu",
               options.component_sockets.size(), dag.components.size()));
  }
  if (options.edge_sockets.size() != dag.edges.size()) {
    return make_error(format("placement pins %zu edges but the dag has %zu",
                             options.edge_sockets.size(), dag.edges.size()));
  }
  for (topo::SocketId socket : options.component_sockets) {
    if (socket >= platform.sockets) {
      return make_error("placement references a socket the platform lacks");
    }
  }
  for (std::size_t i = 0; i < dag.edges.size(); ++i) {
    const topo::SocketId socket = options.edge_sockets[i];
    if (socket >= platform.sockets) {
      return make_error("placement references a socket the platform lacks");
    }
    const DagEdge& edge = dag.edges[i];
    const topo::SocketId producer =
        options.component_sockets[*component_index(dag, edge.producer)];
    const topo::SocketId consumer =
        options.component_sockets[*component_index(dag, edge.consumer)];
    if (socket != producer && socket != consumer) {
      return make_error(
          format("edge %s -> %s channel must be local to one endpoint",
                 edge.producer.c_str(), edge.consumer.c_str()));
    }
  }
  return ok_status();
}

}  // namespace

Expected<DagRunResult> run(const workflow::Runner& runner, const DagSpec& dag,
                           const DagRunOptions& options) {
  if (auto valid = validate_run(runner.platform(), dag, options); !valid) {
    return Unexpected{valid.error()};
  }
  // One stage per component. Its part generator is the same
  // SyntheticSimulation to_pair_workflow builds, so a component's
  // payloads (and their checksums) are bit-identical to a pair
  // writer's built from the same fields.
  std::vector<workloads::SyntheticSimulation> simulations;
  std::vector<workloads::SyntheticAnalytics> analytics;
  simulations.reserve(dag.components.size());
  analytics.reserve(dag.components.size());
  workflow::Job job;
  for (std::size_t i = 0; i < dag.components.size(); ++i) {
    const DagComponent& component = dag.components[i];
    simulations.emplace_back(workloads::SyntheticSimulation::Params{
        .object_size = component.object_size,
        .objects_per_rank = component.objects_per_rank,
        .compute_ns = component.compute_ns,
        .seed = component.seed,
        .name = component.name});
    analytics.emplace_back(workloads::SyntheticAnalytics::Params{
        .compute_ns_per_object = component.analytics_ns_per_object,
        .name = component.name});
    job.stages.push_back({component.name, component.ranks,
                          options.component_sockets[i], &simulations.back(),
                          &analytics.back()});
  }
  DagRunResult result;
  for (std::size_t i = 0; i < dag.edges.size(); ++i) {
    const DagEdge& edge = dag.edges[i];
    const std::size_t producer = *component_index(dag, edge.producer);
    const std::size_t consumer = *component_index(dag, edge.consumer);
    if (options.component_sockets[producer] ==
        options.component_sockets[consumer]) {
      result.ephemeral_edges += 1;
    }
    // A single-edge DAG names its channel after the job, exactly like a
    // pair deployment; multi-edge DAGs qualify per edge.
    std::string channel =
        dag.edges.size() == 1
            ? dag.label
            : format("%s.%s-%s", dag.label.c_str(), edge.producer.c_str(),
                     edge.consumer.c_str());
    job.edges.push_back({producer, consumer, options.edge_sockets[i],
                         edge.stack, std::nullopt, edge.capacity, channel,
                         channel});
  }
  job.iterations = dag.iterations;
  job.verify_reads = dag.verify_reads;
  job.staging = options.staging;
  job.tracer = options.tracer;

  auto ran = runner.run_jobs({&job, 1});
  if (!ran.has_value()) return Unexpected{ran.error()};
  const workflow::JobResult& outcome = ran->jobs.front();
  result.total_ns = outcome.total_ns;
  result.producer_span_ns = outcome.producer_span_ns;
  result.objects_verified = outcome.objects_verified;
  result.verification_failures = outcome.verification_failures;
  result.edges = outcome.edges;
  result.devices.assign(ran->devices.begin(), ran->devices.end());
  for (const auto& [socket, stats] : ran->staging) {
    result.staging.writes += stats.writes;
    result.staging.hits += stats.hits;
    result.staging.bytes_staged += stats.bytes_staged;
    result.staging.bytes_throttled += stats.bytes_throttled;
  }
  result.engine_events = ran->engine_events;
  return result;
}

}  // namespace pmemflow::dag
