// Engine semantics against hand-computed schedules.
#include <gtest/gtest.h>

#include <memory>

#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"

namespace treesched {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::NodePolicy;

/// root -> router -> machine.
Instance two_level(std::vector<Job> jobs,
                   EndpointModel model = EndpointModel::kIdentical) {
  return Instance(builders::star_of_paths(1, 1), std::move(jobs), model);
}

TEST(Engine, SingleJobStoreAndForward) {
  // root -> r1 -> r2 -> leaf, size 2: completes 2 + 2 + 2 = 6.
  Instance inst(builders::star_of_paths(1, 2), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.run_with_assignment({inst.tree().leaves()[0]});
  const auto& rec = eng.metrics().job(0);
  EXPECT_DOUBLE_EQ(rec.completion, 6.0);
  EXPECT_DOUBLE_EQ(rec.flow(), 6.0);
  ASSERT_EQ(eng.metrics().node_completion(0).size(), 3u);
  EXPECT_DOUBLE_EQ(eng.metrics().node_completion(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(eng.metrics().node_completion(0)[1], 4.0);
  EXPECT_DOUBLE_EQ(eng.metrics().node_completion(0)[2], 6.0);
  // Fractional: fraction 1 during [0,4), then linear drain over [4,6].
  EXPECT_NEAR(rec.fractional_area, 4.0 + 2.0 * 0.5, 1e-9);
}

TEST(Engine, SpeedScalesCompletionTimes) {
  Instance inst(builders::star_of_paths(1, 2), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 2.0));
  eng.run_with_assignment({inst.tree().leaves()[0]});
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 3.0);
}

TEST(Engine, SjfPreemptionTwoJobs) {
  Instance inst = two_level({Job(0, 0.0, 4.0), Job(1, 1.0, 1.0)});
  const NodeId leaf = inst.tree().leaves()[0];
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.run_with_assignment({leaf, leaf});
  // Router: j0 [0,1) preempted, j1 [1,2), j0 resumes [2,5).
  // Leaf: j1 [2,3), j0 [5,9).
  EXPECT_DOUBLE_EQ(eng.metrics().job(1).completion, 3.0);
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 9.0);
  EXPECT_DOUBLE_EQ(eng.metrics().total_flow_time(), 9.0 + 2.0);
  // Fractional totals: j0 = 5 + 4*0.5 = 7, j1 = 1 + 0.5 = 1.5.
  EXPECT_NEAR(eng.metrics().total_fractional_flow_time(), 8.5, 1e-9);
}

TEST(Engine, SjfTieBreaksByRelease) {
  Instance inst = two_level({Job(0, 0.0, 2.0), Job(1, 0.5, 2.0)});
  const NodeId leaf = inst.tree().leaves()[0];
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.run_with_assignment({leaf, leaf});
  // Equal sizes: the earlier job never gets preempted.
  EXPECT_DOUBLE_EQ(eng.metrics().node_completion(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(eng.metrics().node_completion(1)[0], 4.0);
}

TEST(Engine, FifoDoesNotPreempt) {
  Instance inst = two_level({Job(0, 0.0, 4.0), Job(1, 1.0, 1.0)});
  const NodeId leaf = inst.tree().leaves()[0];
  EngineConfig cfg;
  cfg.node_policy = NodePolicy::kFifo;
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  eng.run_with_assignment({leaf, leaf});
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 8.0);
  EXPECT_DOUBLE_EQ(eng.metrics().job(1).completion, 9.0);
}

TEST(Engine, SrptDiffersFromSjfNearCompletion) {
  // At t=3 j0 has 1 unit left; SJF preempts for the size-2 arrival, SRPT
  // does not.
  std::vector<Job> jobs{Job(0, 0.0, 4.0), Job(1, 3.0, 2.0)};
  const auto run = [&](NodePolicy p) {
    Instance inst = two_level(jobs);
    const NodeId leaf = inst.tree().leaves()[0];
    EngineConfig cfg;
    cfg.node_policy = p;
    Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
    eng.run_with_assignment({leaf, leaf});
    return std::pair<double, double>{eng.metrics().job(0).completion,
                                     eng.metrics().job(1).completion};
  };
  const auto [sjf0, sjf1] = run(NodePolicy::kSjf);
  EXPECT_DOUBLE_EQ(sjf1, 7.0);
  EXPECT_DOUBLE_EQ(sjf0, 11.0);
  const auto [srpt0, srpt1] = run(NodePolicy::kSrpt);
  EXPECT_DOUBLE_EQ(srpt0, 8.0);
  EXPECT_DOUBLE_EQ(srpt1, 10.0);
}

TEST(Engine, UnrelatedLeafSizes) {
  Tree tree = builders::star_of_paths(2, 1);
  // Leaf 0 is slow for the job, leaf 1 fast.
  std::vector<Job> jobs{Job(0, 0.0, 1.0, {5.0, 2.0})};
  Instance inst(std::move(tree), std::move(jobs), EndpointModel::kUnrelated);
  const NodeId fast = inst.tree().leaves()[1];
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.run_with_assignment({fast});
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 1.0 + 2.0);
}

TEST(Engine, PipelinedRoutingOverlapsHops) {
  // Size 2 in unit chunks over r1 -> r2 -> leaf: r1 [0,1),[1,2);
  // r2 [1,2),[2,3); leaf starts at 3 once all data arrived, ends at 5.
  Instance inst(builders::star_of_paths(1, 2), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  EngineConfig cfg;
  cfg.router_chunk_size = 1.0;
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  eng.run_with_assignment({inst.tree().leaves()[0]});
  const auto& rec = eng.metrics().job(0);
  EXPECT_DOUBLE_EQ(eng.metrics().node_completion(0)[0], 2.0);
  EXPECT_DOUBLE_EQ(eng.metrics().node_completion(0)[1], 3.0);
  EXPECT_DOUBLE_EQ(rec.completion, 5.0);
}

TEST(Engine, PipelinedNeverSlowerForSingleJob) {
  for (double size : {1.0, 2.5, 7.0}) {
    Instance inst(builders::star_of_paths(1, 4), {Job(0, 0.0, size)},
                  EndpointModel::kIdentical);
    const NodeId leaf = inst.tree().leaves()[0];
    Engine plain(inst, SpeedProfile::uniform(inst.tree(), 1.0));
    plain.run_with_assignment({leaf});
    EngineConfig cfg;
    cfg.router_chunk_size = 0.5;
    Engine piped(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
    piped.run_with_assignment({leaf});
    EXPECT_LE(piped.metrics().job(0).completion,
              plain.metrics().job(0).completion + 1e-9);
  }
}

TEST(Engine, IncrementalDrivingMatchesOfflineRun) {
  Instance inst = two_level({Job(0, 0.0, 4.0), Job(1, 1.0, 1.0)});
  const NodeId leaf = inst.tree().leaves()[0];

  Engine offline(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  offline.run_with_assignment({leaf, leaf});

  Engine online(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  online.admit(0, leaf);
  online.advance_to(0.7);
  EXPECT_NEAR(online.remaining_on(0, inst.tree().path_to(leaf)[0]),
              4.0 - 0.7, 1e-9);
  online.admit(1, leaf);
  online.run_to_completion();
  EXPECT_DOUBLE_EQ(online.metrics().total_flow_time(),
                   offline.metrics().total_flow_time());
}

TEST(Engine, MidRunQueueQueries) {
  Instance inst = two_level({Job(0, 0.0, 4.0), Job(1, 1.0, 1.0)});
  const NodeId leaf = inst.tree().leaves()[0];
  const NodeId router = inst.tree().path_to(leaf)[0];
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.admit(0, leaf);
  eng.advance_to(1.0);
  eng.admit(1, leaf);
  eng.advance_to(1.5);
  // At t=1.5 j1 is running on the router (0.5 left), j0 waits with 3 left.
  EXPECT_EQ(eng.queue_size(router), 2u);
  EXPECT_NEAR(eng.remaining_on(1, router), 0.5, 1e-9);
  EXPECT_NEAR(eng.remaining_on(0, router), 3.0, 1e-9);
  EXPECT_NEAR(eng.remaining_on(0, leaf), 4.0, 1e-9);
  EXPECT_TRUE(eng.available_on(0, router));
  EXPECT_FALSE(eng.available_on(0, leaf));
  EXPECT_EQ(eng.current_path_index(0), 0);
  // Priority helpers: volume ahead of a hypothetical size-2 arrival.
  EXPECT_NEAR(eng.higher_priority_remaining(router, 2.0, 1.5, 99), 0.5, 1e-9);
  EXPECT_EQ(eng.count_larger(router, 2.0), 1);
  EXPECT_NEAR(eng.larger_residual_fraction(router, 2.0), 3.0 / 4.0, 1e-9);
  // Alphas: both jobs still have full leaf fractions.
  EXPECT_NEAR(eng.alpha_root_child(router), 2.0, 1e-9);
  EXPECT_NEAR(eng.alpha_leaf(leaf), 2.0, 1e-9);
  // Conservation of remaining work.
  EXPECT_NEAR(eng.total_remaining_work(), (3.0 + 4.0) + (0.5 + 1.0), 1e-9);
  eng.run_to_completion();
}

TEST(Engine, AdmitValidation) {
  Instance inst = two_level({Job(0, 1.0, 2.0), Job(1, 2.0, 2.0)});
  const NodeId leaf = inst.tree().leaves()[0];
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  EXPECT_THROW(eng.admit(0, inst.tree().root()), std::invalid_argument);
  EXPECT_THROW(eng.admit(5, leaf), std::invalid_argument);
  eng.admit(0, leaf);
  EXPECT_THROW(eng.admit(0, leaf), std::invalid_argument);
  eng.advance_to(5.0);
  EXPECT_THROW(eng.admit(1, leaf), std::invalid_argument);  // in the past
}

TEST(Engine, AdvanceBackwardsRejected) {
  Instance inst = two_level({Job(0, 0.0, 1.0)});
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.advance_to(3.0);
  EXPECT_THROW(eng.advance_to(1.0), std::invalid_argument);
}

TEST(Engine, RunToCompletionRequiresAllAdmitted) {
  Instance inst = two_level({Job(0, 0.0, 1.0)});
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  EXPECT_THROW(eng.run_to_completion(), std::invalid_argument);
}

TEST(Engine, RecordedScheduleValidates) {
  Instance inst = two_level({Job(0, 0.0, 4.0), Job(1, 1.0, 1.0)});
  const NodeId leaf = inst.tree().leaves()[0];
  EngineConfig cfg;
  cfg.record_schedule = true;
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);
  Engine eng(inst, speeds, cfg);
  eng.run_with_assignment({leaf, leaf});
  const auto res = sim::audit_run(inst, sim::make_run_log(inst, eng));
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(Engine, LayeredSpeedProfile) {
  Tree tree = builders::star_of_paths(1, 2);
  const SpeedProfile sp = SpeedProfile::paper_identical(tree, 1.0);
  for (const NodeId rc : tree.root_children()) EXPECT_DOUBLE_EQ(sp.speed(rc), 2.0);
  for (const NodeId leaf : tree.leaves()) EXPECT_DOUBLE_EQ(sp.speed(leaf), 4.0);
  const SpeedProfile scaled = sp.scaled(0.5);
  EXPECT_DOUBLE_EQ(scaled.speed(tree.leaves()[0]), 2.0);
}

TEST(Engine, FractionalCountsWaitingBeforeLeafAsOne) {
  // Two jobs on separate branches; no queueing: fractional area for each is
  // router time (fraction 1) + half the leaf time.
  Tree tree = builders::star_of_paths(2, 1);
  Instance inst(std::move(tree), {Job(0, 0.0, 2.0), Job(1, 0.0, 2.0)},
                EndpointModel::kIdentical);
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.run_with_assignment({inst.tree().leaves()[0], inst.tree().leaves()[1]});
  EXPECT_NEAR(eng.metrics().total_fractional_flow_time(), 2.0 * (2.0 + 1.0),
              1e-9);
}

}  // namespace
}  // namespace treesched
