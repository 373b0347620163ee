// Cross-feature interplay: the engine's orthogonal features (pipelined
// chunking, unrelated machines, custom paths, HDF weights) must compose.
#include <gtest/gtest.h>

#include "treesched/algo/anycast.hpp"
#include "treesched/algo/general_tree.hpp"
#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

TEST(Interplay, ChunkedUnrelatedHandCase) {
  // Router size 2 in unit chunks, leaf size 3 (unrelated): r1 streams
  // chunks at [0,1), [1,2); r2 at [1,2), [2,3); the machine waits for all
  // data (t=3) and runs 3 units: completion 6.
  Tree tree = builders::star_of_paths(1, 2);
  Instance inst(std::move(tree), {Job(0, 0.0, 2.0, {3.0})},
                EndpointModel::kUnrelated);
  sim::EngineConfig cfg;
  cfg.router_chunk_size = 1.0;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  eng.run_with_assignment({inst.tree().leaves()[0]});
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 6.0);
}

TEST(Interplay, ChunkedUnrelatedRandomValidates) {
  util::Rng rng(71);
  workload::WorkloadSpec spec;
  spec.jobs = 80;
  spec.load = 0.8;
  spec.endpoints = EndpointModel::kUnrelated;
  const Instance inst =
      workload::generate(rng, builders::fat_tree(2, 2, 2), spec);
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  cfg.router_chunk_size = 0.5;
  const SpeedProfile speeds = SpeedProfile::paper_unrelated(inst.tree(), 0.5);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine eng(inst, speeds, cfg);
  eng.run(policy);
  const auto res = sim::audit_run(inst, sim::make_run_log(inst, eng));
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(Interplay, ChunkedAnycastCompletesAndValidates) {
  util::Rng rng(73);
  workload::WorkloadSpec spec;
  spec.jobs = 50;
  spec.load = 0.6;
  spec.leaf_source_fraction = 0.5;
  const Instance inst =
      workload::generate(rng, builders::fat_tree(2, 1, 2), spec);
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  cfg.router_chunk_size = 1.0;
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);
  std::vector<std::vector<NodeId>> paths;
  sim::ScheduleRecorder recorder;
  const auto metrics =
      algo::run_anycast(inst, speeds, algo::AnycastStrategy::kLeastVolume,
                        cfg, &paths, &recorder);
  EXPECT_TRUE(metrics.all_completed());
  const auto res = sim::audit_run(
      inst, sim::make_run_log(inst, speeds, cfg, recorder, metrics, paths));
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(Interplay, HdfWithChunksKeepsJobLevelPriority) {
  // A heavy job (weight 8, size 4 => density 0.5) must preempt a light
  // size-1 job (density 1) on routers even while chunked.
  Tree tree = builders::star_of_paths(1, 1);
  std::vector<Job> jobs{Job(0, 0.0, 1.0), Job(1, 0.25, 4.0)};
  jobs[1].weight = 8.0;
  Instance inst(std::move(tree), std::move(jobs), EndpointModel::kIdentical);
  sim::EngineConfig cfg;
  cfg.node_policy = sim::NodePolicy::kHdf;
  cfg.router_chunk_size = 0.5;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  const NodeId leaf = inst.tree().leaves()[0];
  eng.run_with_assignment({leaf, leaf});
  // Job 1 preempts at t=0.25 and finishes router+leaf first.
  EXPECT_LT(eng.metrics().job(1).completion, eng.metrics().job(0).completion);
}

TEST(Interplay, WeightedAnycastWorkload) {
  util::Rng rng(79);
  workload::WorkloadSpec spec;
  spec.jobs = 60;
  spec.weights = workload::WeightModel::kInverseSize;
  spec.leaf_source_fraction = 0.3;
  const Instance inst =
      workload::generate(rng, builders::caterpillar(2, 2, 2), spec);
  sim::EngineConfig cfg;
  cfg.node_policy = sim::NodePolicy::kHdf;
  const auto metrics = algo::run_anycast(
      inst, SpeedProfile::uniform(inst.tree(), 1.5),
      algo::AnycastStrategy::kGreedy, cfg);
  EXPECT_TRUE(metrics.all_completed());
  EXPECT_GT(metrics.total_weighted_flow_time(), 0.0);
}

TEST(Interplay, MirrorPolicyWithChunkedOuterEngine) {
  // The mirror policy's internal broomstick runs unchunked (the analysis
  // is store-and-forward), but the outer engine may pipeline: assignments
  // still come from the broomstick and everything completes.
  util::Rng rng(83);
  workload::WorkloadSpec spec;
  spec.jobs = 60;
  const Instance inst =
      workload::generate(rng, builders::figure1_tree(), spec);
  algo::BroomstickMirrorPolicy mirror(inst, 0.5);
  sim::EngineConfig cfg;
  cfg.router_chunk_size = 0.5;
  sim::Engine eng(inst, SpeedProfile::paper_identical(inst.tree(), 0.5), cfg);
  eng.run(mirror);
  mirror.finish_simulation();
  EXPECT_TRUE(eng.metrics().all_completed());
}

}  // namespace
}  // namespace treesched
