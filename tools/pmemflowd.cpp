// pmemflowd — the online workflow-scheduling service, as a CLI.
//
// Drives service::OnlineScheduler with either a synthetic Poisson
// submission stream or a recorded workload trace (tools/... are
// simulation drivers: arrivals, queueing, and placement all happen on
// the deterministic simulated clock). Prints the operator dashboard;
// optionally compares all placement policies on the identical stream,
// exports CSV, records the stream back out as a trace, and writes a
// Chrome trace of the fleet timeline.
//
//   pmemflowd --submissions 20000 --nodes 8 --compare
//   pmemflowd --policy recommender --chrome-trace fleet.json
//   pmemflowd --preemption --urgent-frac 0.2   # urgent work displaces batch
//   pmemflowd --trace prod.csv --compare       # replay a recorded trace
//   pmemflowd --trace prod.csv --time-scale 0.5 --limit 5000
//   pmemflowd --record-trace out.csv           # record this run's stream
//   pmemflowd --backend dram-like --compare    # fleet on another backend
//   pmemflowd --node-backends optane-gen1,cxl-like   # heterogeneous fleet
//   pmemflowd --pmem-capacity 64 --retain-versions 2 --policy capacity
//                                              # bounded per-socket pools
//   pmemflowd --dag examples/dags/fanout_analytics.dag --policy dag-fusion
//                                              # general DAG workflows
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "common/flags.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "dag/spec.hpp"
#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"
#include "traces/replay.hpp"
#include "traces/schema.hpp"

namespace {

using namespace pmemflow;

Expected<service::PlacementPolicy> parse_policy(const std::string& name) {
  if (name == "first-fit") return service::PlacementPolicy::kFirstFit;
  if (name == "least-loaded") return service::PlacementPolicy::kLeastLoaded;
  if (name == "recommender" || name == "recommender-aware") {
    return service::PlacementPolicy::kRecommenderAware;
  }
  if (name == "colocation" || name == "colocation-aware") {
    return service::PlacementPolicy::kColocationAware;
  }
  if (name == "capacity" || name == "capacity-aware") {
    return service::PlacementPolicy::kCapacityAware;
  }
  if (name == "dag-fusion" || name == "fusion") {
    return service::PlacementPolicy::kDagFusion;
  }
  return make_error("unknown policy '" + name +
                    "' (first-fit | least-loaded | recommender | colocation "
                    "| capacity | dag-fusion)");
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "pmemflowd: online PMEM workflow scheduling service (simulated)");
  flags.add_int("nodes", 4, "fleet size (dual-socket Optane nodes)");
  flags.add_int("queue-capacity", 64, "submission queue capacity");
  flags.add_string("policy", "recommender",
                   "placement policy: first-fit | least-loaded | recommender "
                   "| colocation | capacity | dag-fusion");
  flags.add_string("dag", "",
                   "comma-separated .dag files: general DAG workflow classes "
                   "(see docs/DAG.md). Synthetic streams convert a "
                   "deterministic --dag-frac slice of submissions to DAGs "
                   "round-robin; trace replays bind dag_fingerprint rows "
                   "against this pool");
  flags.add_double("dag-frac", 0.25,
                   "fraction of synthetic submissions converted to DAG "
                   "workflows (with --dag)");
  flags.add_double("pmem-capacity", 0.0,
                   "per-socket PMEM pool size in GB (0 = unbounded: the "
                   "capacity model stays off and schedules are unchanged)");
  flags.add_double("staging", 0.0,
                   "per-socket DRAM staging tier size in GB (with "
                   "--pmem-capacity; 0 = no staging)");
  flags.add_int("retain-versions", 0,
                "nvstream retain-k version retention: keep the k most "
                "recent snapshot versions live and GC the rest (with "
                "--pmem-capacity; 0 = recycle immediately, no GC traffic)");
  flags.add_bool("rule-based", false,
                 "recommender policy uses Table II rules instead of the "
                 "model-based estimate");
  flags.add_bool("preemption", false,
                 "urgent arrivals may checkpoint running batch/normal work "
                 "off a node (checkpoint-restore preemption)");
  flags.add_int("regions", 1,
                "epoch-synchronized fleet regions (semantic knob, clamped to "
                "--nodes)");
  flags.add_double("epoch-ms", 250.0,
                   "epoch barrier interval in simulated ms (with regions > 1)");
  flags.add_int("submissions", 2000, "number of submissions to generate");
  flags.add_int("classes", 12, "distinct workflow classes in the pool");
  flags.add_double("mean-gap-ms", 50.0,
                   "mean Poisson inter-arrival gap (simulated ms)");
  flags.add_int("seed", 42, "stream + pool seed");
  flags.add_double("urgent-frac", 0.10, "fraction of kUrgent submissions");
  flags.add_double("batch-frac", 0.30, "fraction of kBatch submissions");
  flags.add_int("cache-capacity", 1024, "profile cache capacity (classes)");
  flags.add_int("planner-window", 1,
                "lookahead window: submissions planned jointly per "
                "scheduler wake-up (1 = the queue head alone)");
  flags.add_bool("plan-cache", false,
                 "memoize window plans keyed on (window class sequence x "
                 "fleet/device/residency state); schedules are unchanged, "
                 "repeated states skip re-planning");
  flags.add_int("plan-cache-capacity", 1024,
                "memoized plans retained before the cache resets (with "
                "--plan-cache)");
  flags.add_string("backend", "optane-gen1",
                   "memory backend preset for every node (see docs/DEVICES.md;"
                   " 'a/b' selects per-socket backends)");
  flags.add_string("node-backends", "",
                   "comma-separated backend presets assigned round-robin "
                   "across nodes (heterogeneous fleet; overrides --backend "
                   "for placement-sensitive lookups)");
  flags.add_bool("compare", false,
                 "run every placement policy on the identical stream");
  flags.add_string("csv", "", "append per-policy metrics rows to this file");
  flags.add_string("trace", "",
                   "replay this workload trace instead of generating a "
                   "synthetic stream (class_id rows bind against the "
                   "--classes/--seed pool)");
  flags.add_double("time-scale", 1.0,
                   "multiply replayed arrival times (with --trace): < 1 "
                   "compresses, > 1 stretches");
  flags.add_double("horizon-ms", 0.0,
                   "drop replayed arrivals after this scaled time "
                   "(with --trace; 0 = no horizon)");
  flags.add_int("limit", 0,
                "replay at most this many submissions (with --trace; "
                "0 = all)");
  flags.add_string("record-trace", "",
                   "record the submission stream (synthetic or replayed) "
                   "to this trace file");
  flags.add_string("chrome-trace", "",
                   "write a Chrome trace of the fleet timeline here "
                   "(single-policy mode only)");
  auto status = flags.parse(argc, argv);
  if (!status.has_value()) {
    std::cerr << status.error().message << "\n";
    return status.error().message.find("usage:") != std::string::npos ? 0 : 2;
  }

  service::ArrivalParams arrivals;
  arrivals.count = static_cast<std::uint64_t>(flags.get_int("submissions"));
  arrivals.classes = static_cast<std::uint32_t>(flags.get_int("classes"));
  arrivals.mean_interarrival_ns = flags.get_double("mean-gap-ms") * 1e6;
  arrivals.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  arrivals.urgent_fraction = flags.get_double("urgent-frac");
  arrivals.batch_fraction = flags.get_double("batch-frac");

  // DAG workflow classes (satellites of the pair stream). For synthetic
  // streams a deterministic slice of submissions is converted below; for
  // trace replays the pool binds dag_fingerprint rows.
  std::vector<std::shared_ptr<const dag::DagSpec>> dag_pool;
  const std::string dag_paths = flags.get_string("dag");
  if (!dag_paths.empty()) {
    for (const auto& dag_path : split(dag_paths, ',')) {
      auto spec = dag::load_dag(dag_path);
      if (!spec.has_value()) {
        std::cerr << "error: --dag: " << spec.error().message << "\n";
        return 1;
      }
      dag_pool.push_back(
          std::make_shared<const dag::DagSpec>(std::move(*spec)));
    }
  }
  const double dag_frac = flags.get_double("dag-frac");
  if (!(dag_frac > 0.0) || dag_frac > 1.0) {
    std::cerr << "error: --dag-frac must be in (0, 1]\n";
    return 1;
  }

  std::vector<service::Submission> stream;
  std::string stream_origin;
  const std::string trace_path = flags.get_string("trace");
  if (!trace_path.empty()) {
    auto trace = traces::load_trace(trace_path);
    if (!trace.has_value()) {
      std::cerr << "error: " << trace.error().message << "\n";
      return 1;
    }
    traces::ReplayOptions options;
    options.time_scale = flags.get_double("time-scale");
    options.max_arrival_ns =
        static_cast<SimTime>(flags.get_double("horizon-ms") * 1e6);
    options.limit = static_cast<std::uint64_t>(flags.get_int("limit"));
    traces::TraceReplayer replayer(
        service::make_class_pool(arrivals.classes, arrivals.seed), options);
    if (!dag_pool.empty()) replayer.set_dag_pool(dag_pool);
    auto replayed = replayer.replay(*trace);
    if (!replayed.has_value()) {
      std::cerr << "error: " << trace_path << ": "
                << replayed.error().message << "\n";
      return 1;
    }
    stream = std::move(*replayed);
    stream_origin = format("trace %s", trace_path.c_str());
  } else {
    auto generated = service::make_submission_stream(arrivals);
    if (!generated.has_value()) {
      std::cerr << "error: " << generated.error().message << "\n";
      return 1;
    }
    stream = std::move(*generated);
    stream_origin = "synthetic stream";
    if (!dag_pool.empty()) {
      // Deterministic conversion: every stride-th submission becomes a
      // DAG, round-robin over the loaded classes, so the same flags
      // always produce the same mixed stream.
      const auto stride = static_cast<std::size_t>(
          std::max<long long>(1, std::llround(1.0 / dag_frac)));
      std::size_t next_dag = 0;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i % stride != 0) continue;
        stream[i].dag = dag_pool[next_dag++ % dag_pool.size()];
        stream[i].spec = workflow::WorkflowSpec{};
      }
      stream_origin += format(" + %zu dags", next_dag);
    }
  }

  const std::string record_path = flags.get_string("record-trace");
  if (!record_path.empty()) {
    const auto pool =
        service::make_class_pool(arrivals.classes, arrivals.seed);
    auto written =
        traces::write_trace(traces::record_trace(stream, pool), record_path);
    if (!written.has_value()) {
      std::cerr << "error: " << written.error().message << "\n";
      return 1;
    }
  }

  service::ServiceConfig config;
  config.nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  config.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue-capacity"));
  if (config.nodes == 0 || config.queue_capacity == 0) {
    std::cerr << "error: --nodes and --queue-capacity must be >= 1\n";
    return 1;
  }
  config.use_rule_based = flags.get_bool("rule-based");
  config.preemption = flags.get_bool("preemption")
                          ? service::PreemptionPolicy::kCheckpointRestore
                          : service::PreemptionPolicy::kNone;
  config.cache_capacity =
      static_cast<std::size_t>(flags.get_int("cache-capacity"));
  if (flags.get_int("planner-window") < 1 ||
      flags.get_int("plan-cache-capacity") < 1) {
    std::cerr << "error: --planner-window and --plan-cache-capacity must "
                 "be >= 1\n";
    return 1;
  }
  config.planner.window =
      static_cast<std::uint32_t>(flags.get_int("planner-window"));
  config.planner.plan_cache = flags.get_bool("plan-cache");
  config.planner.plan_cache_capacity =
      static_cast<std::size_t>(flags.get_int("plan-cache-capacity"));
  const double pmem_capacity_gb = flags.get_double("pmem-capacity");
  if (pmem_capacity_gb < 0.0 || flags.get_double("staging") < 0.0 ||
      flags.get_int("retain-versions") < 0) {
    std::cerr << "error: --pmem-capacity, --staging, and --retain-versions "
                 "must be >= 0\n";
    return 1;
  }
  config.capacity.pmem_per_socket =
      static_cast<Bytes>(pmem_capacity_gb * 1e9);
  config.capacity.staging.stage_bytes =
      static_cast<Bytes>(flags.get_double("staging") * 1e9);
  config.capacity.retention.retain_versions =
      static_cast<std::uint32_t>(flags.get_int("retain-versions"));

  if (flags.get_int("regions") < 1 || flags.get_double("epoch-ms") <= 0.0) {
    std::cerr << "error: --regions must be >= 1, --epoch-ms > 0\n";
    return 1;
  }
  config.sharding.regions =
      static_cast<std::uint32_t>(flags.get_int("regions"));
  config.sharding.epoch_ns =
      static_cast<SimDuration>(flags.get_double("epoch-ms") * 1e6);

  // Fleet memory backend(s). --backend sets the uniform fleet backend
  // (the scheduler executor's Runner); --node-backends builds a
  // heterogeneous fleet by assigning presets round-robin across nodes.
  const std::string backend_name = flags.get_string("backend");
  auto backend = devices::parse_backend(backend_name);
  if (!backend.has_value()) {
    std::cerr << "error: --backend: " << backend.error().message << "\n";
    return 1;
  }
  core::Executor executor{
      workflow::Runner(topo::PlatformSpec{}, *backend)};
  std::string fleet_desc = backend_name;
  const std::string node_backends = flags.get_string("node-backends");
  if (!node_backends.empty()) {
    const auto names = split(node_backends, ',');
    std::vector<service::NodeSpec> specs;
    for (std::uint32_t i = 0; i < config.nodes; ++i) {
      const std::string& name = names[i % names.size()];
      auto node_backend = devices::parse_backend(name);
      if (!node_backend.has_value()) {
        std::cerr << "error: --node-backends: "
                  << node_backend.error().message << "\n";
        return 1;
      }
      specs.push_back(service::NodeSpec{name, *node_backend});
    }
    config.node_specs = std::move(specs);
    fleet_desc = join(names, "+") + " (round-robin)";
  }

  CsvWriter csv(service::service_csv_header());

  if (flags.get_bool("compare")) {
    TextTable table({"Policy", "Mean delay", "P99 delay", "Makespan",
                     "Slowdown", "Util", "Plans", "Plan hits"},
                    {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                     Align::kRight, Align::kRight, Align::kRight,
                     Align::kRight});
    std::vector<service::PlacementPolicy> policies = {
        service::PlacementPolicy::kFirstFit,
        service::PlacementPolicy::kLeastLoaded,
        service::PlacementPolicy::kRecommenderAware,
        service::PlacementPolicy::kColocationAware};
    if (config.capacity.enabled()) {
      policies.push_back(service::PlacementPolicy::kCapacityAware);
    }
    if (std::any_of(stream.begin(), stream.end(),
                    [](const service::Submission& s) {
                      return s.dag != nullptr;
                    })) {
      policies.push_back(service::PlacementPolicy::kDagFusion);
    }
    for (const auto policy : policies) {
      config.policy = policy;
      service::OnlineScheduler scheduler(config, executor);
      auto result = scheduler.run(stream);
      if (!result.has_value()) {
        std::cerr << "error: " << result.error().message << "\n";
        return 1;
      }
      const auto& m = result->metrics;
      table.add_row({to_string(policy),
                     format("%.2f ms", m.queue_delay_ns.mean / 1e6),
                     format("%.2f ms", m.queue_delay_ns.p99 / 1e6),
                     format("%.3f s", static_cast<double>(m.makespan_ns) / 1e9),
                     format("%.3fx", m.slowdown.mean),
                     format("%.1f %%", 100.0 * m.mean_utilization),
                     format("%llu", static_cast<unsigned long long>(m.plans)),
                     format("%.1f %%", 100.0 * m.plan_cache_hit_rate())});
      append_service_csv_row(csv, to_string(policy), m);
    }
    std::cout << format(
        "=== %zu submissions (%s), %u nodes, backend %s, "
        "planner window %u%s ===\n\n",
        stream.size(), stream_origin.c_str(), config.nodes,
        fleet_desc.c_str(), config.planner.window,
        config.planner.plan_cache ? ", plan cache on" : "");
    table.write(std::cout);
  } else {
    auto policy = parse_policy(flags.get_string("policy"));
    if (!policy.has_value()) {
      std::cerr << "error: " << policy.error().message << "\n";
      return 1;
    }
    config.policy = *policy;
    trace::Tracer tracer;
    const std::string chrome_path = flags.get_string("chrome-trace");
    if (!chrome_path.empty()) config.tracer = &tracer;

    service::OnlineScheduler scheduler(config, executor);
    auto result = scheduler.run(stream);
    if (!result.has_value()) {
      std::cerr << "error: " << result.error().message << "\n";
      return 1;
    }
    print_service_report(
        std::cout,
        format("=== pmemflowd: %s, %zu submissions (%s), %u nodes, "
               "backend %s ===",
               to_string(config.policy), stream.size(),
               stream_origin.c_str(), config.nodes, fleet_desc.c_str()),
        result->metrics);
    append_service_csv_row(csv, to_string(config.policy), result->metrics);

    if (!chrome_path.empty() &&
        !tracer.write_chrome_trace_file(chrome_path)) {
      std::cerr << "error: could not write " << chrome_path << "\n";
      return 1;
    }
  }

  const std::string csv_path = flags.get_string("csv");
  if (!csv_path.empty() && !csv.write_file(csv_path)) {
    std::cerr << "error: could not write " << csv_path << "\n";
    return 1;
  }
  return 0;
}
