// The Section 3.3 reduction and the Section 3.7 general-tree algorithm.
#include <gtest/gtest.h>

#include "treesched/algo/broomstick.hpp"
#include "treesched/algo/general_tree.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

TEST(Broomstick, RecognizerAcceptsBuilderOutput) {
  EXPECT_TRUE(algo::is_broomstick(builders::broomstick({2, 4}, {{2}, {2, 4}})));
  EXPECT_TRUE(algo::is_broomstick(builders::star_of_paths(2, 3)));
  // Machines directly below a root child violate Lemma 6's single-child
  // requirement, even though the topology is simulatable.
  EXPECT_FALSE(algo::is_broomstick(builders::broomstick({1, 4}, {{1}, {4}})));
}

TEST(Broomstick, RecognizerRejectsBranchingRouters) {
  EXPECT_FALSE(algo::is_broomstick(builders::fat_tree(2, 2, 1)));
  EXPECT_FALSE(algo::is_broomstick(builders::figure1_tree()));
}

TEST(Broomstick, ReductionDepthsGrowByExactlyTwo) {
  const Tree original = builders::figure1_tree();
  const auto red = algo::BroomstickReduction::reduce(original);
  EXPECT_TRUE(algo::is_broomstick(red.broomstick()));
  EXPECT_EQ(red.broomstick().leaves().size(), original.leaves().size());
  for (const NodeId leaf : original.leaves()) {
    const NodeId image = red.from_original(leaf);
    EXPECT_EQ(red.broomstick().depth(image), original.depth(leaf) + 2);
    EXPECT_EQ(red.to_original(image), leaf);
  }
}

TEST(Broomstick, ReductionPreservesRootChildCount) {
  const Tree original = builders::fat_tree(3, 2, 2);
  const auto red = algo::BroomstickReduction::reduce(original);
  EXPECT_EQ(red.broomstick().root_children().size(),
            original.root_children().size());
}

TEST(Broomstick, ReductionKeepsSubtreeMembership) {
  const Tree original = builders::figure1_tree();
  const auto red = algo::BroomstickReduction::reduce(original);
  // Leaves in the k-th original subtree map into the k-th broom.
  const auto& orig_rcs = original.root_children();
  const auto& broom_rcs = red.broomstick().root_children();
  ASSERT_EQ(orig_rcs.size(), broom_rcs.size());
  for (std::size_t k = 0; k < orig_rcs.size(); ++k) {
    for (const NodeId leaf : original.leaves_under(orig_rcs[k])) {
      const NodeId image = red.from_original(leaf);
      EXPECT_EQ(red.broomstick().root_child_of(image), broom_rcs[k]);
    }
  }
}

TEST(Broomstick, TransformRemapsUnrelatedLeafSizes) {
  const Tree original = builders::figure1_tree();
  const std::size_t L = original.leaves().size();
  std::vector<double> sizes(L);
  for (std::size_t i = 0; i < L; ++i) sizes[i] = 1.0 + static_cast<double>(i);
  Instance inst(original, {Job(0, 0.0, 1.0, sizes)},
                EndpointModel::kUnrelated);
  const auto red = algo::BroomstickReduction::reduce(original);
  const Instance image = red.transform(inst);
  for (const NodeId bleaf : red.broomstick().leaves()) {
    const NodeId oleaf = red.to_original(bleaf);
    EXPECT_DOUBLE_EQ(image.processing_time(0, bleaf),
                     inst.processing_time(0, oleaf));
  }
}

TEST(Broomstick, TransformKeepsIdenticalJobsUntouched) {
  const Tree original = builders::fat_tree(2, 2, 2);
  Instance inst(original, {Job(0, 0.5, 3.0), Job(1, 1.0, 2.0)},
                EndpointModel::kIdentical);
  const auto red = algo::BroomstickReduction::reduce(original);
  const Instance image = red.transform(inst);
  ASSERT_EQ(image.job_count(), inst.job_count());
  for (JobId j = 0; j < inst.job_count(); ++j) {
    EXPECT_DOUBLE_EQ(image.job(j).release, inst.job(j).release);
    EXPECT_DOUBLE_EQ(image.job(j).size, inst.job(j).size);
  }
}

class MirrorDomination
    : public testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(MirrorDomination, FlowOnTreeNeverExceedsBroomstick) {
  // Lemma 8: with matching speeds, every job finishes on T no later than on
  // the simulated broomstick T'.
  const auto [tree_id, seed] = GetParam();
  Tree tree = tree_id == 0   ? builders::figure1_tree()
              : tree_id == 1 ? builders::fat_tree(2, 2, 2)
                             : builders::caterpillar(2, 3, 1);
  util::Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.jobs = 80;
  spec.load = 0.8;
  spec.sizes.class_eps = 0.5;
  const Instance inst = workload::generate(rng, tree, spec);

  const double eps = 0.5;
  algo::BroomstickMirrorPolicy mirror(inst, eps);
  sim::Engine engine(inst, SpeedProfile::paper_identical(inst.tree(), eps));
  engine.run(mirror);
  mirror.finish_simulation();

  const auto rep = algo::domination_report(
      engine.metrics(), mirror.broomstick_engine().metrics());
  EXPECT_GT(rep.jobs, 0);
  EXPECT_EQ(rep.violations, 0) << "max excess " << rep.max_excess;
  EXPECT_GE(rep.mean_speedup, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MirrorDomination,
                         testing::Combine(testing::Values(0, 1, 2),
                                          testing::Values(11u, 12u, 13u)));

TEST(Mirror, AssignmentsFollowTheBroomstickChoice) {
  const Tree tree = builders::figure1_tree();
  util::Rng rng(5);
  workload::WorkloadSpec spec;
  spec.jobs = 30;
  const Instance inst = workload::generate(rng, tree, spec);
  algo::BroomstickMirrorPolicy mirror(inst, 0.5);
  sim::Engine engine(inst, SpeedProfile::paper_identical(inst.tree(), 0.5));
  engine.run(mirror);
  mirror.finish_simulation();
  const auto& red = mirror.reduction();
  for (const Job& job : inst.jobs()) {
    const NodeId on_tree = engine.assigned_leaf(job.id);
    const NodeId on_broom =
        mirror.broomstick_engine().assigned_leaf(job.id);
    EXPECT_EQ(on_tree, red.to_original(on_broom));
  }
}

}  // namespace
}  // namespace treesched
