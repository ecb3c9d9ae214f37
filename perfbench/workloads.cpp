#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/units.hpp"
#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "topo/platform.hpp"

namespace perfbench {
namespace {

using namespace pmemflow;

/// splitmix64: the benchmark's own generator, so the inputs do not
/// move when the program's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Deals 0..size-1 in a random order, reshuffling when exhausted, so
/// every value appears equally often in any window of `size` draws.
/// Drawing classes this way keeps a stream's work mix (and with it the
/// offered load) the same for every seed; only the order and the
/// arrival times vary.
class Deck {
 public:
  Deck(std::size_t size, Rng& rng) : cards_(size), rng_(rng) {
    for (std::size_t i = 0; i < size; ++i) cards_[i] = i;
    next_ = size;
  }

  std::size_t deal() {
    if (next_ == cards_.size()) {
      for (std::size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng_.below(i)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<std::size_t> cards_;
  Rng& rng_;
  std::size_t next_ = 0;
};

constexpr std::uint64_t kPayloadSeed = 0x646167ULL;  // examples/dags

dag::DagComponent component(std::string name, std::uint32_t ranks,
                            Bytes object_size, std::uint64_t objects,
                            double compute_ns, double analytics_ns,
                            std::uint64_t seed) {
  dag::DagComponent c;
  c.name = std::move(name);
  c.ranks = ranks;
  c.object_size = object_size;
  c.objects_per_rank = objects;
  c.compute_ns = compute_ns;
  c.analytics_ns_per_object = analytics_ns;
  c.seed = seed;
  return c;
}

dag::DagEdge edge(std::string producer, std::string consumer,
                  std::uint32_t capacity) {
  dag::DagEdge e;
  e.producer = std::move(producer);
  e.consumer = std::move(consumer);
  e.capacity = capacity;
  return e;
}

/// examples/dags/fanout_analytics.dag generalized: one simulation
/// feeding `consumers` analytics stages.
dag::DagSpec fanout(std::string label, std::uint32_t iterations,
                    std::uint32_t consumers, Bytes sim_object,
                    std::uint64_t seed) {
  dag::DagSpec spec;
  spec.label = std::move(label);
  spec.iterations = iterations;
  spec.components.push_back(
      component("sim", 8, sim_object, 8, 250.0e6, 0.0, seed));
  const char* names[] = {"stats", "viz", "render"};
  const double analytics[] = {40000.0, 25000.0, 30000.0};
  for (std::uint32_t i = 0; i < consumers; ++i) {
    spec.components.push_back(
        component(names[i], 8, kMiB, 4, 0.0, analytics[i], seed));
    spec.edges.push_back(edge("sim", names[i], 4));
  }
  return spec;
}

/// examples/dags/two_stage_reduce.dag generalized over size and length.
dag::DagSpec reduce(std::string label, std::uint32_t iterations,
                    Bytes sim_object, std::uint64_t seed) {
  dag::DagSpec spec;
  spec.label = std::move(label);
  spec.iterations = iterations;
  spec.components.push_back(
      component("sim", 4, sim_object, 16, 400.0e6, 0.0, seed));
  spec.components.push_back(
      component("filter", 4, 2 * kMiB, 8, 50.0e6, 12000.0, seed));
  spec.components.push_back(
      component("reduce", 4, kMiB, 2, 0.0, 30000.0, seed));
  spec.edges.push_back(edge("sim", "filter", 2));
  spec.edges.push_back(edge("filter", "reduce", 2));
  return spec;
}

std::vector<std::shared_ptr<const dag::DagSpec>> make_dags(
    const WorkloadSpec& workload) {
  std::vector<std::shared_ptr<const dag::DagSpec>> dags;
  if (workload.dag_mix == DagMix::kExamples) {
    dags.push_back(std::make_shared<const dag::DagSpec>(
        fanout("fanout-analytics", 8, 2, 4 * kMiB, kPayloadSeed)));
    dags.push_back(std::make_shared<const dag::DagSpec>(
        reduce("two-stage-reduce", 10, 8 * kMiB, kPayloadSeed)));
  } else if (workload.dag_mix == DagMix::kVariants) {
    // Short runs and small objects keep a cold DAG characterization
    // near the cost of a pair one; the payload seed makes every
    // variant a distinct class even where the shape repeats.
    Rng rng(workload.pool_seed ^ 0x646167766172ULL);  // "dagvar"
    const Bytes sizes[] = {kMiB, 2 * kMiB, 4 * kMiB};
    for (std::uint32_t i = 0; i < workload.dag_variants; ++i) {
      const auto iterations = static_cast<std::uint32_t>(2 + rng.below(3));
      const Bytes size = sizes[rng.below(std::size(sizes))];
      const std::uint64_t seed = kPayloadSeed + i;
      char label[32];
      if (i % 2 == 0) {
        const auto consumers = static_cast<std::uint32_t>(1 + rng.below(3));
        std::snprintf(label, sizeof label, "pb-fanout-%u", i);
        dags.push_back(std::make_shared<const dag::DagSpec>(
            fanout(label, iterations, consumers, size, seed)));
      } else {
        std::snprintf(label, sizeof label, "pb-reduce-%u", i);
        dags.push_back(std::make_shared<const dag::DagSpec>(
            reduce(label, iterations, 2 * size, seed)));
      }
    }
  }
  return dags;
}

std::vector<service::NodeSpec> round_robin_backends(
    std::uint32_t nodes, const std::vector<std::string>& names) {
  std::vector<service::NodeSpec> specs;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    const std::string& name = names[i % names.size()];
    specs.push_back(service::NodeSpec{name, *devices::parse_backend(name)});
  }
  return specs;
}

/// Every workload, in the order BENCHMARK.json lists them.
std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> all;

  {
    WorkloadSpec w;
    w.name = "steady_pairs";
    w.config.nodes = 8;
    w.config.policy = service::PlacementPolicy::kRecommenderAware;
    w.submissions = 200000;
    w.classes = 24;
    w.pool_seed = 0x70666c6f77ULL;
    w.mean_gap_ns = 125.0e6;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "cold_classes";
    w.config.nodes = 8;
    w.config.policy = service::PlacementPolicy::kRecommenderAware;
    // Twice as many classes as cache entries, about three pair
    // submissions per class on top of the DAG slice. Half the service's
    // default cache (1024 entries, so 2048 classes) keeps the miss
    // pattern; the shorter replays give a run 12 samples instead of 6.
    w.config.cache_capacity = 512;
    w.classes = 1024;
    w.pool_seed = 0x636f6c64ULL;  // "cold"
    w.dag_fraction = 0.10;
    w.submissions = 3400;
    w.dag_mix = DagMix::kVariants;
    w.dag_variants = 128;
    w.mean_gap_ns = 110.0e6;
    w.urgent_tenths = 0;
    w.batch_tenths = 0;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "lookahead_hetero";
    w.config.nodes = 8;
    w.config.node_specs = round_robin_backends(
        8, {"optane-gen1", "dram-like", "cxl-like", "optane-gen2"});
    w.config.policy = service::PlacementPolicy::kColocationAware;
    w.config.planner.window = 8;
    w.config.planner.plan_cache = true;
    w.config.preemption = service::PreemptionPolicy::kCheckpointRestore;
    w.submissions = 8000;
    w.classes = 48;
    w.pool_seed = 0x6865746572ULL;  // "heter"
    w.dag_fraction = 0.20;
    w.dag_mix = DagMix::kExamples;
    w.mean_gap_ns = 120.0e6;
    // Normal priority only: urgent arrivals never preempt under this
    // policy, yet they double the p99's spread between seeds.
    w.urgent_tenths = 0;
    w.batch_tenths = 0;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "sharded_dense";
    // Regions of 17, 17, 16 and 16 nodes. With four equal regions,
    // whether the merged completion vector reallocates once more
    // (regions 2 + 3 completing more than 0 + 1) was a coin flip per
    // seed that moved the peak RSS by 10 %.
    w.config.nodes = 66;
    w.config.sharding.regions = 4;
    // One worker: the epoch barrier and stealing run at every boundary
    // all the same. With two workers on a shared 4-vCPU host, each
    // barrier waited on whichever thread the host descheduled, and the
    // throughput spread 25-30 % between runs. The traced run replays
    // with two workers (same fingerprint) for the worker speedup.
    w.config.sharding.threads = 1;
    w.config.policy = service::PlacementPolicy::kCapacityAware;
    w.config.preemption = service::PreemptionPolicy::kCheckpointRestore;
    w.config.capacity.pmem_per_socket = 64 * kGiB;
    w.config.capacity.retention.retain_versions = 2;
    w.config.capacity.retention.gc = true;
    w.config.capacity.staging.stage_bytes = 2 * kGiB;
    w.submissions = 100000;
    w.classes = 24;
    w.pool_seed = 0x70666c6f77ULL;
    w.mean_gap_ns = 20.0e6;
    // Urgent arrivals drive preemption; batch deferrals only widened
    // the queue-delay spread between seeds.
    w.batch_tenths = 0;
    all.push_back(std::move(w));
  }
  return all;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> all = build_workloads();
  for (const WorkloadSpec& workload : all) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

core::Executor make_executor() {
  return core::Executor(workflow::Runner(
      topo::PlatformSpec{}, *devices::parse_backend("optane-gen1")));
}

std::vector<service::Submission> generate(const WorkloadSpec& workload,
                                          std::uint64_t seed,
                                          SpanRecorder* spans) {
  std::vector<workflow::WorkflowSpec> pool;
  {
    SpanRecorder::Scope span(spans, "service.make_class_pool");
    pool = service::make_class_pool(workload.classes, workload.pool_seed);
  }
  std::vector<std::shared_ptr<const dag::DagSpec>> dags;
  {
    SpanRecorder::Scope span(spans, "bench.make_dags");
    dags = make_dags(workload);
  }
  SpanRecorder::Scope span(spans, "bench.make_stream");
  // Poisson arrivals. Classes, DAG slots and priorities come from
  // decks, so their shares are exact; one submission in every
  // round(1 / dag_fraction) is a DAG.
  Rng rng(seed ^ 0x6172726976ULL);  // "arriv"
  Deck classes(pool.size(), rng);
  Deck dag_classes(std::max<std::size_t>(1, dags.size()), rng);
  Deck dag_slots(dags.empty()
                     ? 1
                     : static_cast<std::size_t>(
                           std::lround(1.0 / workload.dag_fraction)),
                 rng);
  Deck priorities(10, rng);
  std::vector<service::Submission> stream;
  stream.reserve(workload.submissions);
  double clock_ns = 0.0;
  for (std::uint64_t i = 0; i < workload.submissions; ++i) {
    clock_ns += -workload.mean_gap_ns * std::log1p(-rng.uniform());
    service::Submission submission;
    submission.id = i;
    submission.arrival_ns = static_cast<SimTime>(clock_ns);
    if (!dags.empty() && dag_slots.deal() == 0) {
      submission.dag = dags[dag_classes.deal()];
    } else {
      submission.spec = pool[classes.deal()];
    }
    const std::size_t priority = priorities.deal();
    submission.priority =
        priority < workload.urgent_tenths ? service::Priority::kUrgent
        : priority < workload.urgent_tenths + workload.batch_tenths
            ? service::Priority::kBatch
            : service::Priority::kNormal;
    stream.push_back(std::move(submission));
  }
  span.set_count(stream.size());
  return stream;
}

}  // namespace perfbench
