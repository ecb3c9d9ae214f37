#include "dag/runner.hpp"

#include <gtest/gtest.h>

#include "dag/plan.hpp"
#include "workflow/runner.hpp"

namespace pmemflow::dag {
namespace {

DagSpec make_chain() {
  DagSpec spec;
  spec.label = "chain";
  spec.iterations = 3;
  DagComponent writer;
  writer.name = "writer";
  writer.ranks = 4;
  writer.object_size = 2 * kMiB;
  writer.objects_per_rank = 8;
  writer.compute_ns = 5e7;
  DagComponent reader;
  reader.name = "reader";
  reader.ranks = 4;
  reader.analytics_ns_per_object = 2000.0;
  spec.components = {writer, reader};
  spec.edges = {DagEdge{"writer", "reader", {}, 2}};
  return spec;
}

DagSpec make_fanout() {
  DagSpec spec;
  spec.label = "fanout";
  spec.iterations = 2;
  DagComponent sim;
  sim.name = "sim";
  sim.ranks = 4;
  sim.object_size = 4 * kMiB;
  sim.objects_per_rank = 4;
  sim.compute_ns = 2e7;
  DagComponent stats;
  stats.name = "stats";
  stats.ranks = 4;
  stats.analytics_ns_per_object = 1500.0;
  DagComponent viz = stats;
  viz.name = "viz";
  spec.components = {sim, stats, viz};
  spec.edges = {DagEdge{"sim", "stats", {}, 2}, DagEdge{"sim", "viz", {}, 2}};
  return spec;
}

// The pinned contract: a two-component chain deployed on distinct
// sockets replays byte-identically to the pre-DAG pair runner — same
// end-to-end time, same producer span, same verified objects, same
// channel traffic, same DES event count.
TEST(DagRunner, ChainReplaysPairByteIdentically) {
  const auto dag = make_chain();
  auto pair = to_pair_workflow(dag);
  ASSERT_TRUE(pair.has_value()) << pair.error().message;

  const topo::PlatformSpec platform;
  auto plan = plan_spread(dag, platform);
  ASSERT_TRUE(plan.has_value()) << plan.error().message;
  EXPECT_EQ(plan->ephemeral_edges, 0u);

  const workflow::Runner dag_runner(platform);
  auto dag_result = run(dag_runner, dag, plan->run_options());
  ASSERT_TRUE(dag_result.has_value()) << dag_result.error().message;

  workflow::Runner pair_runner(platform);
  workflow::RunOptions options;
  options.writer_socket = plan->component_sockets[0];
  options.reader_socket = plan->component_sockets[1];
  options.channel_socket = plan->edge_sockets[0];
  auto pair_result = pair_runner.run(*pair, options);
  ASSERT_TRUE(pair_result.has_value()) << pair_result.error().message;

  EXPECT_EQ(dag_result->total_ns, pair_result->total_ns);
  EXPECT_EQ(dag_result->producer_span_ns, pair_result->writer_span_ns);
  EXPECT_EQ(dag_result->objects_verified, pair_result->objects_verified);
  EXPECT_EQ(dag_result->verification_failures, 0u);
  EXPECT_EQ(dag_result->engine_events, pair_result->engine_events);
  ASSERT_EQ(dag_result->edges.size(), 1u);
  EXPECT_EQ(dag_result->edges[0].objects_written,
            pair_result->channel.objects_written);
  EXPECT_EQ(dag_result->edges[0].payload_bytes_written,
            pair_result->channel.payload_bytes_written);
  EXPECT_EQ(dag_result->edges[0].payload_bytes_read,
            pair_result->channel.payload_bytes_read);
  EXPECT_EQ(dag_result->edges[0].versions_committed,
            pair_result->channel.versions_committed);
}

TEST(DagRunner, RunsAreDeterministic) {
  const auto dag = make_fanout();
  const topo::PlatformSpec platform;
  auto plan = plan_fusion(dag, platform);
  ASSERT_TRUE(plan.has_value()) << plan.error().message;

  const workflow::Runner runner(platform);
  auto first = run(runner, dag, plan->run_options());
  auto second = run(runner, dag, plan->run_options());
  ASSERT_TRUE(first.has_value()) << first.error().message;
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->total_ns, second->total_ns);
  EXPECT_EQ(first->engine_events, second->engine_events);
  EXPECT_EQ(first->objects_verified, second->objects_verified);
}

TEST(DagRunner, FusedPlacementMakesEdgesEphemeral) {
  const auto dag = make_fanout();
  const topo::PlatformSpec platform;

  // All three components on socket 0: both edges ephemeral.
  DagRunOptions options;
  options.component_sockets = {0, 0, 0};
  options.edge_sockets = {0, 0};
  const workflow::Runner runner(platform);
  auto fused = run(runner, dag, options);
  ASSERT_TRUE(fused.has_value()) << fused.error().message;
  EXPECT_EQ(fused->ephemeral_edges, 2u);
  EXPECT_EQ(fused->verification_failures, 0u);
  EXPECT_GT(fused->objects_verified, 0u);

  auto spread = plan_spread(dag, platform);
  ASSERT_TRUE(spread.has_value());
  auto cut = run(runner, dag, spread->run_options());
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->ephemeral_edges, 0u);
  // Same payload either way; only the placement differs.
  EXPECT_EQ(fused->objects_verified, cut->objects_verified);
}

TEST(DagRunner, RejectsInvalidPlacements) {
  const auto dag = make_chain();
  const topo::PlatformSpec platform;
  const workflow::Runner runner(platform);

  DagRunOptions bad_socket;
  bad_socket.component_sockets = {0, 9};
  bad_socket.edge_sockets = {0};
  EXPECT_FALSE(run(runner, dag, bad_socket).has_value());

  DagRunOptions foreign_channel;
  foreign_channel.component_sockets = {0, 0};
  foreign_channel.edge_sockets = {1};  // neither endpoint's socket
  EXPECT_FALSE(run(runner, dag, foreign_channel).has_value());

  DagRunOptions wrong_arity;
  wrong_arity.component_sockets = {0};
  wrong_arity.edge_sockets = {0};
  EXPECT_FALSE(run(runner, dag, wrong_arity).has_value());
}

TEST(DagRunner, RejectsCoreOversubscription) {
  auto dag = make_chain();
  topo::PlatformSpec platform;
  platform.cores_per_socket = 4;
  const workflow::Runner runner(platform);

  DagRunOptions options;
  options.component_sockets = {0, 0};  // 8 ranks on a 4-core socket
  options.edge_sockets = {0};
  EXPECT_FALSE(run(runner, dag, options).has_value());

  options.component_sockets = {0, 1};  // 4 + 4: fits
  auto ok = run(runner, dag, options);
  EXPECT_TRUE(ok.has_value());
}

}  // namespace
}  // namespace pmemflow::dag
