// End-to-end integration: workload -> policy -> engine -> validation ->
// lower bounds, across the public API exactly as a downstream user would
// drive it.
#include <gtest/gtest.h>

#include "treesched/treesched.hpp"

namespace treesched {
namespace {

TEST(Integration, EveryPolicyCompletesAndValidates) {
  const Tree tree = builders::figure1_tree();
  util::Rng rng(101);
  workload::WorkloadSpec spec;
  spec.jobs = 100;
  spec.load = 0.8;
  const Instance inst = workload::generate(rng, tree, spec);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);

  for (const char* name : {"paper", "closest", "random", "round-robin",
                           "least-volume", "least-count",
                           "broomstick-mirror"}) {
    auto policy = algo::make_policy(name, inst, 0.5, 7);
    sim::EngineConfig cfg;
    cfg.record_schedule = true;
    sim::Engine engine(inst, speeds, cfg);
    engine.run(*policy);
    EXPECT_TRUE(engine.metrics().all_completed()) << name;
    const auto res = sim::audit_run(inst, sim::make_run_log(inst, engine));
    EXPECT_TRUE(res.ok) << name << ": " << res.summary();
    // Sanity: the bound certifies the speed-1 adversary, and uniformly
    // speeding every node by s shrinks any schedule's flow by at most s, so
    // the valid invariant at speed 1.5 is ALG * 1.5 >= LB (the unscaled
    // comparison can legitimately fail — augmented ALG may beat speed-1 OPT).
    EXPECT_GE(engine.metrics().total_flow_time() * 1.5 + 1e-9,
              lp::combined_lower_bound(inst));
  }
}

TEST(Integration, PaperPolicyStaysWithinModestFactorOfLowerBound) {
  const Tree tree = builders::fat_tree(2, 2, 2);
  util::Rng rng(55);
  workload::WorkloadSpec spec;
  spec.jobs = 300;
  spec.load = 0.7;
  spec.sizes.class_eps = 0.5;
  const Instance inst = workload::generate(rng, tree, spec);
  const auto r = experiments::measure_ratio(
      inst, SpeedProfile::paper_identical(inst.tree(), 0.5), "paper", 0.5);
  // With speed augmentation the algorithm may legitimately beat the
  // speed-1 lower bound, so ratios below 1 are fine — just not absurd ones.
  EXPECT_GT(r.ratio, 0.0);
  EXPECT_LT(r.ratio, 50.0) << "suspiciously bad competitive ratio";
}

TEST(Integration, MaxFlowAndNormMetricsAreConsistent) {
  const Tree tree = builders::star_of_paths(2, 2);
  util::Rng rng(42);
  workload::WorkloadSpec spec;
  spec.jobs = 120;
  const Instance inst = workload::generate(rng, tree, spec);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine engine(inst, SpeedProfile::uniform(inst.tree(), 1.3));
  engine.run(policy);
  const auto& m = engine.metrics();
  EXPECT_GE(m.max_flow_time(), m.mean_flow_time());
  // l_1 norm equals the total, l_inf-ish (large k) approaches the max.
  EXPECT_NEAR(m.lk_norm_flow_time(1.0), m.total_flow_time(), 1e-6);
  EXPECT_LE(m.lk_norm_flow_time(8.0), m.total_flow_time() + 1e-6);
  EXPECT_GE(m.lk_norm_flow_time(8.0), m.max_flow_time() - 1e-6);
  EXPECT_GE(m.makespan(), m.max_flow_time());
}

TEST(Integration, TraceRoundTripReproducesRun) {
  const Tree tree = builders::caterpillar(2, 2, 2);
  util::Rng rng(9);
  workload::WorkloadSpec spec;
  spec.jobs = 60;
  const Instance inst = workload::generate(rng, tree, spec);

  const std::string path = testing::TempDir() + "/treesched_trace.txt";
  workload::write_trace_file(path, inst);
  const Instance back = workload::read_trace_file(path);

  const SpeedProfile s1 = SpeedProfile::uniform(inst.tree(), 1.2);
  const SpeedProfile s2 = SpeedProfile::uniform(back.tree(), 1.2);
  const auto a = algo::run_named_policy(inst, s1, "paper", 0.5);
  const auto b = algo::run_named_policy(back, s2, "paper", 0.5);
  EXPECT_DOUBLE_EQ(a.total_flow, b.total_flow);
  EXPECT_DOUBLE_EQ(a.fractional_flow, b.fractional_flow);
}

TEST(Integration, QuickstartSnippetFromUmbrellaHeader) {
  // Mirrors the documented quickstart to keep the docs honest.
  Tree tree = builders::star_of_paths(2, 3);
  util::Rng rng(42);
  workload::WorkloadSpec spec;
  Instance inst = workload::generate(rng, tree, spec);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine engine(inst, SpeedProfile::uniform(inst.tree(), 1.5));
  engine.run(policy);
  EXPECT_GT(engine.metrics().total_flow_time(), 0.0);
}

TEST(Integration, StandardTreesAllRunnable) {
  for (const auto& [name, tree] : experiments::standard_trees()) {
    util::Rng rng(5);
    workload::WorkloadSpec spec;
    spec.jobs = 40;
    const Instance inst = workload::generate(rng, tree, spec);
    const auto r = algo::run_named_policy(
        inst, SpeedProfile::uniform(inst.tree(), 1.5), "paper", 0.5);
    EXPECT_GT(r.total_flow, 0.0) << name;
    EXPECT_TRUE(r.metrics.all_completed()) << name;
  }
}

}  // namespace
}  // namespace treesched
