// The arbitrary-source extension: path computation, engine admission via
// custom paths, and the anycast strategies.
#include <gtest/gtest.h>

#include "treesched/algo/anycast.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

TEST(PathBetween, RootSourceEqualsPathTo) {
  const Tree t = builders::figure1_tree();
  for (const NodeId leaf : t.leaves())
    EXPECT_EQ(t.path_between(t.root(), leaf), t.path_to(leaf));
}

TEST(PathBetween, SourceEqualsTargetLeaf) {
  const Tree t = builders::star_of_paths(2, 2);
  const NodeId leaf = t.leaves()[0];
  const auto path = t.path_between(leaf, leaf);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], leaf);
}

TEST(PathBetween, UpAndDownAcrossTheRoot) {
  // star_of_paths(2, 2): root -> r1 -> r2 -> m3, root -> r4 -> r5 -> m6.
  const Tree t = builders::star_of_paths(2, 2);
  const NodeId src = t.leaves()[0];
  const NodeId dst = t.leaves()[1];
  const auto path = t.path_between(src, dst);
  // Entered nodes: r2, r1, root, r4, r5, m6.
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(path[2], t.root());
  EXPECT_EQ(path.back(), dst);
  EXPECT_EQ(path.front(), t.parent(src));
}

TEST(PathBetween, WithinSubtreeAvoidsTheRoot) {
  const Tree t = builders::figure1_tree();
  // Two leaves under the same root child.
  const NodeId rc = t.root_children()[0];
  const auto leaves = t.leaves_under(rc);
  ASSERT_GE(leaves.size(), 2u);
  const auto path = t.path_between(leaves[0], leaves[1]);
  for (const NodeId v : path) EXPECT_NE(v, t.root());
  EXPECT_EQ(path.back(), leaves[1]);
}

TEST(PathBetween, LcaBasics) {
  const Tree t = builders::star_of_paths(2, 2);
  EXPECT_EQ(t.lca(t.leaves()[0], t.leaves()[1]), t.root());
  EXPECT_EQ(t.lca(t.leaves()[0], t.leaves()[0]), t.leaves()[0]);
  const NodeId rc = t.root_child_of(t.leaves()[0]);
  EXPECT_EQ(t.lca(rc, t.leaves()[0]), rc);
}

TEST(AnycastEngine, LeafBornJobRunsOnlyItsMachine) {
  Instance inst(builders::star_of_paths(2, 2), {Job(0, 0.0, 3.0)},
                EndpointModel::kIdentical);
  const NodeId leaf = inst.tree().leaves()[0];
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.admit_via_path(0, {leaf});
  eng.run_to_completion();
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 3.0);
}

TEST(AnycastEngine, CrossTreeTransferPaysEveryHop) {
  // Leaf 0 -> leaf 1 across the root: hops r2->r1->root->r4->r5->m6, each
  // processing size 1 at speed 1 => completion 6... wait, entered nodes are
  // r1(parent of src's parent chain)... path has 6 nodes, so completion 6.
  Instance inst(builders::star_of_paths(2, 2), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  const Tree& t = inst.tree();
  sim::Engine eng(inst, SpeedProfile::uniform(t, 1.0));
  eng.admit_via_path(0, t.path_between(t.leaves()[0], t.leaves()[1]));
  eng.run_to_completion();
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 6.0);
}

TEST(AnycastEngine, RejectsBadPaths) {
  Instance inst(builders::star_of_paths(2, 2),
                {Job(0, 0.0, 1.0), Job(1, 1.0, 1.0), Job(2, 2.0, 1.0)},
                EndpointModel::kIdentical);
  const Tree& t = inst.tree();
  const NodeId rc = t.root_children()[0];
  sim::Engine eng(inst, SpeedProfile::layered(t, 1.0, 1.0));
  // Does not end at a machine.
  EXPECT_THROW(eng.admit_via_path(0, {rc}), std::invalid_argument);
  // Non-adjacent hop.
  EXPECT_THROW(eng.admit_via_path(0, {rc, t.leaves()[1]}),
               std::invalid_argument);
  // Transit root with zero speed (layered profile gives the root 0).
  EXPECT_THROW(
      eng.admit_via_path(0, t.path_between(t.leaves()[0], t.leaves()[1])),
      std::invalid_argument);
}

TEST(AnycastStrategies, ClosestPrefersLocalMachine) {
  const Tree tree = builders::star_of_paths(2, 2);
  std::vector<Job> jobs{Job(0, 0.0, 1.0)};
  jobs[0].source = tree.leaves()[0];  // data already on a machine
  Instance inst(tree, std::move(jobs), EndpointModel::kIdentical);
  const auto m = algo::run_anycast(
      inst, SpeedProfile::uniform(inst.tree(), 1.0),
      algo::AnycastStrategy::kClosest);
  // Stays local: single machine-processing hop.
  EXPECT_DOUBLE_EQ(m.job(0).completion, 1.0);
}

TEST(AnycastStrategies, LeastVolumeEscapesCongestedSourceMachine) {
  // The source *machine* is backlogged (cheap to route, expensive to run —
  // unrelated model), so crossing the tree beats waiting locally. Note the
  // congestion must sit on the leaf, not the routers: an escape path climbs
  // the same routers the local backlog came through.
  const Tree tree = builders::star_of_paths(2, 1);
  std::vector<Job> jobs;
  for (int i = 0; i < 3; ++i)
    jobs.emplace_back(i, 0.01 * i, 0.2, std::vector<double>{20.0, 20.0});
  Job probe(3, 1.0, 0.2, std::vector<double>{1.0, 1.0});
  probe.source = tree.leaves()[0];
  jobs.push_back(probe);
  Instance inst(tree, std::move(jobs), EndpointModel::kUnrelated);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);

  sim::Engine eng(inst, speeds);
  for (int i = 0; i < 3; ++i) {
    eng.advance_to(inst.job(i).release);
    eng.admit(i, inst.tree().leaves()[0]);
  }
  eng.advance_to(1.0);
  const auto path = algo::choose_anycast_path(
      eng, inst.job(3), algo::AnycastStrategy::kLeastVolume);
  EXPECT_EQ(path.back(), inst.tree().leaves()[1]);
  eng.admit_via_path(3, path);
  eng.run_to_completion();
  // Waiting locally would cost ~60 (three 20-unit leaf hogs); crossing
  // costs four cheap hops plus one unit of processing.
  EXPECT_LT(eng.metrics().job(3).flow(), 10.0);
}

TEST(AnycastStrategies, RecordedAnycastScheduleValidates) {
  const Tree tree = builders::fat_tree(2, 1, 2);
  util::Rng rng(31);
  workload::WorkloadSpec spec;
  spec.jobs = 60;
  spec.load = 0.7;
  spec.leaf_source_fraction = 0.6;
  const Instance inst = workload::generate(rng, tree, spec);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  std::vector<std::vector<NodeId>> paths;
  sim::ScheduleRecorder recorder;
  const auto metrics =
      algo::run_anycast(inst, speeds, algo::AnycastStrategy::kGreedy, cfg,
                        &paths, &recorder);
  EXPECT_TRUE(metrics.all_completed());
  const auto res = sim::audit_run(
      inst, sim::make_run_log(inst, speeds, cfg, recorder, metrics, paths));
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(AnycastStrategies, AllStrategiesCompleteRandomWorkloads) {
  const Tree tree = builders::fat_tree(2, 2, 2);
  util::Rng rng(3);
  workload::WorkloadSpec spec;
  spec.jobs = 80;
  spec.load = 0.6;
  Instance base = workload::generate(rng, tree, spec);
  // Scatter sources over machines and routers.
  std::vector<Job> jobs = base.jobs();
  for (Job& j : jobs) {
    const auto& leaves = base.tree().leaves();
    if (j.id % 3 == 0)
      j.source = leaves[uidx(j.id) % leaves.size()];
    else if (j.id % 3 == 1)
      j.source = base.tree().root_children()[0];
  }
  Instance inst(base.tree_ptr(), std::move(jobs), base.model());
  for (const auto strategy :
       {algo::AnycastStrategy::kClosest, algo::AnycastStrategy::kLeastVolume,
        algo::AnycastStrategy::kGreedy}) {
    const auto m = algo::run_anycast(
        inst, SpeedProfile::uniform(inst.tree(), 1.5), strategy);
    EXPECT_TRUE(m.all_completed())
        << algo::anycast_strategy_name(strategy);
  }
}

}  // namespace
}  // namespace treesched
