// Assignment policies: the paper's greedy rule and the baselines.
#include <gtest/gtest.h>

#include <optional>

#include "treesched/algo/policies.hpp"
#include "treesched/algo/runner.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/workload/adversarial.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

TEST(PaperGreedy, EmptySystemPicksShallowestLeaf) {
  // Branch 0 has depth 2 leaves, branch 1 depth 5: with no queued work the
  // rule minimizes the 6/eps^2 * d_v * p_j term.
  Tree tree = builders::broomstick({1, 4}, {{1}, {4}});
  Instance inst(std::move(tree), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.advance_to(0.0);
  const NodeId chosen = policy.assign(eng, inst.job(0));
  EXPECT_EQ(inst.tree().d(chosen), 2);
  eng.admit(0, chosen);
  eng.run_to_completion();
}

TEST(PaperGreedy, FFormulaMatchesHandComputation) {
  // Queue j0 (size 4) on branch 0's router, then evaluate F for an arriving
  // size-2 job: F = hp_volume(0) + self(2) + 2 * |{larger}| = 2 + 2*1 = 4
  // on branch 0; F = 2 on the empty branch 1.
  Tree tree = builders::star_of_paths(2, 1);
  Instance inst(std::move(tree),
                {Job(0, 0.0, 4.0), Job(1, 1.0, 2.0)},
                EndpointModel::kIdentical);
  const NodeId leaf0 = inst.tree().leaves()[0];
  const NodeId leaf1 = inst.tree().leaves()[1];
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.admit(0, leaf0);
  eng.advance_to(1.0);
  const Job& j1 = inst.job(1);
  // j0 has 3 units left on its router at t=1 (but hp volume counts only
  // higher-priority jobs, and 4 > 2 so it contributes to count_larger).
  EXPECT_NEAR(algo::PaperGreedyPolicy::F(eng, j1, leaf0), 2.0 + 2.0 * 1, 1e-9);
  EXPECT_NEAR(algo::PaperGreedyPolicy::F(eng, j1, leaf1), 2.0, 1e-9);
  // F' is zero in the identical model.
  EXPECT_DOUBLE_EQ(algo::PaperGreedyPolicy::F_prime(eng, j1, leaf0), 0.0);
  // Assignment cost adds the depth penalty 6/eps^2 * d * p.
  algo::PaperGreedyPolicy policy(1.0);
  EXPECT_NEAR(policy.assignment_cost(eng, j1, leaf1), 2.0 + 6.0 * 2 * 2, 1e-9);
}

TEST(PaperGreedy, CachesFollowTheEngineNotItsAddress) {
  // A policy outlives the engine it first served, and the next engine is
  // built at the same address (std::optional re-emplacement). The policy's
  // leaf groups and F cache must be rebuilt for the new tree: node 3 is a
  // leaf of fat_tree(2, 1, 2) but a router of fat_tree(3, 1, 4).
  const Instance small(builders::fat_tree(2, 1, 2), {Job(0, 0.0, 1.0)},
                       EndpointModel::kIdentical);
  const Instance big(builders::fat_tree(3, 1, 4), {Job(0, 0.0, 1.0)},
                     EndpointModel::kIdentical);
  algo::PaperGreedyPolicy reused(0.5);
  std::optional<sim::Engine> eng;
  eng.emplace(small, SpeedProfile::uniform(small.tree(), 1.0));
  const sim::Engine* first_address = &*eng;
  EXPECT_TRUE(small.tree().is_leaf(reused.assign(*eng, small.job(0))));

  eng.emplace(big, SpeedProfile::uniform(big.tree(), 1.0));
  ASSERT_EQ(&*eng, first_address);
  algo::PaperGreedyPolicy fresh(0.5);
  const NodeId want = fresh.assign(*eng, big.job(0));
  EXPECT_TRUE(big.tree().is_leaf(want));
  EXPECT_EQ(reused.assign(*eng, big.job(0)), want);
}

TEST(PaperGreedy, UnrelatedRuleWeighsLeafCongestion) {
  // Two branches; leaf 0 fast but congested, leaf 1 slower but idle.
  Tree tree = builders::star_of_paths(2, 1);
  std::vector<Job> jobs;
  // Five big jobs head to leaf 0 first.
  for (int i = 0; i < 5; ++i)
    jobs.emplace_back(i, 0.01 * i, 4.0, std::vector<double>{4.0, 40.0});
  // The probe job: fast on both leaves, slightly faster on leaf 0.
  jobs.emplace_back(5, 1.0, 1.0, std::vector<double>{1.0, 1.5});
  Instance inst(std::move(tree), std::move(jobs), EndpointModel::kUnrelated);
  const NodeId leaf0 = inst.tree().leaves()[0];
  const NodeId leaf1 = inst.tree().leaves()[1];
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  for (int i = 0; i < 5; ++i) {
    eng.advance_to(inst.job(i).release);
    eng.admit(i, leaf0);
  }
  eng.advance_to(1.0);
  algo::PaperGreedyPolicy policy(0.5);
  // The congestion on branch 0 (router queue + leaf backlog) should push
  // the probe to leaf 1 despite its slightly larger processing time.
  EXPECT_EQ(policy.assign(eng, inst.job(5)), leaf1);
  eng.admit(5, leaf1);
  eng.run_to_completion();
}

TEST(Baselines, ClosestLeafMinimizesPathVolume) {
  Tree tree = builders::broomstick({1, 3}, {{1}, {3}});
  Instance inst(std::move(tree), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  algo::ClosestLeafPolicy policy;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  const NodeId chosen = policy.assign(eng, inst.job(0));
  EXPECT_EQ(inst.tree().d(chosen), 2);
}

TEST(Baselines, ClosestLeafUsesUnrelatedLeafTimes) {
  Tree tree = builders::star_of_paths(2, 1);
  // Deepest-equal branches; leaf 1 is much faster for this job.
  Instance inst(std::move(tree), {Job(0, 0.0, 1.0, {10.0, 1.0})},
                EndpointModel::kUnrelated);
  algo::ClosestLeafPolicy policy;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  EXPECT_EQ(policy.assign(eng, inst.job(0)), inst.tree().leaves()[1]);
}

TEST(Baselines, RoundRobinCycles) {
  Tree tree = builders::star_of_paths(3, 1);
  std::vector<Job> jobs;
  for (int i = 0; i < 6; ++i) jobs.emplace_back(i, 0.1 * i + 0.1, 1.0);
  Instance inst(std::move(tree), std::move(jobs), EndpointModel::kIdentical);
  algo::RoundRobinPolicy policy;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  std::vector<NodeId> picks;
  for (int i = 0; i < 6; ++i) {
    eng.advance_to(inst.job(i).release);
    const NodeId v = policy.assign(eng, inst.job(i));
    picks.push_back(v);
    eng.admit(i, v);
  }
  EXPECT_EQ(picks[0], picks[3]);
  EXPECT_EQ(picks[1], picks[4]);
  EXPECT_EQ(picks[2], picks[5]);
  EXPECT_NE(picks[0], picks[1]);
  eng.run_to_completion();
}

TEST(Baselines, RandomIsDeterministicPerSeed) {
  Tree tree = builders::star_of_paths(4, 1);
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.emplace_back(i, 0.1 * (i + 1), 1.0);
  Instance inst(std::move(tree), std::move(jobs), EndpointModel::kIdentical);
  const auto picks_for = [&inst](std::uint64_t seed) {
    algo::RandomLeafPolicy policy(seed);
    sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
    std::vector<NodeId> picks;
    for (const Job& j : inst.jobs()) {
      eng.advance_to(j.release);
      picks.push_back(policy.assign(eng, j));
      eng.admit(j.id, picks.back());
    }
    return picks;
  };
  EXPECT_EQ(picks_for(7), picks_for(7));
  EXPECT_NE(picks_for(7), picks_for(8));
}

TEST(Baselines, LeastCountAvoidsBusyBranch) {
  Tree tree = builders::star_of_paths(2, 1);
  Instance inst(std::move(tree),
                {Job(0, 0.0, 5.0), Job(1, 1.0, 1.0)},
                EndpointModel::kIdentical);
  const NodeId leaf0 = inst.tree().leaves()[0];
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.admit(0, leaf0);
  eng.advance_to(1.0);
  algo::LeastCountPolicy policy;
  EXPECT_EQ(policy.assign(eng, inst.job(1)), inst.tree().leaves()[1]);
}

TEST(Baselines, LeastVolumeAvoidsBusyBranch) {
  Tree tree = builders::star_of_paths(2, 1);
  Instance inst(std::move(tree),
                {Job(0, 0.0, 5.0), Job(1, 1.0, 1.0)},
                EndpointModel::kIdentical);
  const NodeId leaf0 = inst.tree().leaves()[0];
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.admit(0, leaf0);
  eng.advance_to(1.0);
  algo::LeastVolumePolicy policy;
  EXPECT_EQ(policy.assign(eng, inst.job(1)), inst.tree().leaves()[1]);
}

TEST(Baselines, TwoChoicePrefersTheLighterSample) {
  // With exactly two leaves every draw samples both (or a duplicate), so
  // two-choice must route around a loaded branch.
  Tree tree = builders::star_of_paths(2, 1);
  Instance inst(std::move(tree),
                {Job(0, 0.0, 8.0), Job(1, 1.0, 1.0)},
                EndpointModel::kIdentical);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.admit(0, inst.tree().leaves()[0]);
  eng.advance_to(1.0);
  algo::TwoChoicePolicy policy(3);
  int to_light = 0;
  for (int trial = 0; trial < 20; ++trial)
    to_light += (policy.assign(eng, inst.job(1)) == inst.tree().leaves()[1]);
  EXPECT_GT(to_light, 14);  // only duplicate draws of leaf 0 miss
}

TEST(PolicyFactory, KnownAndUnknownNames) {
  Tree tree = builders::star_of_paths(2, 1);
  Instance inst(std::move(tree), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  for (const char* name :
       {"paper", "closest", "random", "round-robin", "least-volume",
        "least-count", "two-choice", "broomstick-mirror"}) {
    auto p = algo::make_policy(name, inst, 0.5, 1);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_THROW(algo::make_policy("quantum", inst, 0.5, 1),
               std::invalid_argument);
}

TEST(Adversarial, GreedyBeatsClosestLeafOnCongestionTrap) {
  const Instance inst = workload::congestion_trap(40);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);
  // eps = 2 keeps the depth penalty small enough that the rule spills load
  // into the deep idle branch once the shallow one backs up.
  const auto greedy = algo::run_named_policy(inst, speeds, "paper", 2.0);
  const auto closest = algo::run_named_policy(inst, speeds, "closest", 2.0);
  EXPECT_LT(greedy.total_flow, closest.total_flow);
}

TEST(Adversarial, GreedyBeatsRoundRobinOnSizeMixer) {
  const Instance inst = workload::size_mixer(20);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);
  const auto greedy = algo::run_named_policy(inst, speeds, "paper", 0.5);
  const auto rr = algo::run_named_policy(inst, speeds, "round-robin", 0.5);
  EXPECT_LT(greedy.total_flow, rr.total_flow);
}

TEST(Adversarial, UnrelatedTrapPunishesLeafBlindness) {
  const Instance inst = workload::unrelated_trap(30);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);
  const auto greedy = algo::run_named_policy(inst, speeds, "paper", 0.5);
  const auto count = algo::run_named_policy(inst, speeds, "least-count", 0.5);
  // The greedy rule sees both router congestion and leaf speeds.
  EXPECT_LE(greedy.total_flow, count.total_flow * 1.05);
}

}  // namespace
}  // namespace treesched
