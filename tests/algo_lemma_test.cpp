// Empirical verification of the structural lemmas (1, 2, 3/phi, 4).
#include <gtest/gtest.h>

#include <cstdint>

#include "treesched/algo/lemma_monitors.hpp"
#include "treesched/algo/policies.hpp"
#include "treesched/algo/potential.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/workload/adversarial.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

// gtest prints a parameter type without a PrintTo overload as its raw
// bytes, and that dump is part of each case's listed (and ctest) name. A
// 64-bit tree id leaves LemmaCase without padding, so every printed byte is
// a field value and the names do not change with leftover stack contents.
struct LemmaCase {
  std::int64_t tree_id;
  double eps;
  double load;
  std::uint64_t seed;
};

Tree lemma_tree(std::int64_t id) {
  switch (id) {
    case 0: return builders::star_of_paths(2, 4);
    case 1: return builders::fat_tree(2, 2, 2);
    default: return builders::caterpillar(2, 3, 2);
  }
}

class LemmaSweep : public testing::TestWithParam<LemmaCase> {};

/// Lemma 2: available higher-priority volume in front of a job on any
/// identical non-root-adjacent node stays below (2/eps) p_j — premises:
/// class-rounded sizes, speed >= (1+eps) above the root-adjacent layer.
TEST_P(LemmaSweep, Lemma2VolumeBoundHolds) {
  const LemmaCase& c = GetParam();
  util::Rng rng(c.seed);
  workload::WorkloadSpec spec;
  spec.jobs = 150;
  spec.load = c.load;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  spec.sizes.class_eps = c.eps;  // the lemma's class-rounding assumption
  const Instance inst = workload::generate(rng, lemma_tree(c.tree_id), spec);

  const SpeedProfile speeds =
      SpeedProfile::layered(inst.tree(), 1.0, 1.0 + c.eps);
  algo::PaperGreedyPolicy policy(c.eps);
  algo::Lemma2Monitor monitor(c.eps);
  sim::Engine engine(inst, speeds);
  engine.set_observer(&monitor);
  engine.run(policy);

  EXPECT_GT(monitor.checks(), 0);
  EXPECT_EQ(monitor.violations(), 0)
      << "max ratio " << monitor.max_ratio();
  EXPECT_LE(monitor.max_ratio(), 1.0 + 1e-9);
}

/// Lemma 1: total interior wait after leaving R(v) is below
/// (6/eps^2) p_j d_{v_e}.
TEST_P(LemmaSweep, Lemma1InteriorWaitBoundHolds) {
  const LemmaCase& c = GetParam();
  util::Rng rng(c.seed + 1000);
  workload::WorkloadSpec spec;
  spec.jobs = 150;
  spec.load = c.load;
  spec.sizes.class_eps = c.eps;
  const Instance inst = workload::generate(rng, lemma_tree(c.tree_id), spec);

  const SpeedProfile speeds =
      SpeedProfile::layered(inst.tree(), 1.0, 1.0 + c.eps);
  algo::PaperGreedyPolicy policy(c.eps);
  sim::Engine engine(inst, speeds);
  engine.run(policy);

  const auto rep = algo::interior_wait_report(engine, c.eps);
  EXPECT_GT(rep.jobs_measured, 0);
  EXPECT_EQ(rep.violations, 0) << "max ratio " << rep.max_ratio;
  EXPECT_LE(rep.max_ratio, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LemmaSweep,
    testing::Values(LemmaCase{0, 0.5, 0.8, 1}, LemmaCase{0, 1.0, 0.9, 2},
                    LemmaCase{1, 0.5, 0.7, 3}, LemmaCase{1, 0.25, 0.8, 4},
                    LemmaCase{2, 0.5, 0.9, 5}, LemmaCase{2, 1.0, 0.6, 6}),
    [](const testing::TestParamInfo<LemmaCase>& pi) {
      return "tree" + std::to_string(pi.param.tree_id) + "_eps" +
             std::to_string(static_cast<int>(pi.param.eps * 100)) + "_s" +
             std::to_string(pi.param.seed);
    });

TEST(Lemma2, MonitorDetectsViolationsWhenPremisesInvert) {
  // Control of the control: with a FAST root-adjacent layer feeding a SLOW
  // interior (the premise inverted), volume piles up past the bound and the
  // monitor must say so — proving the zero-violation results above are a
  // property of the algorithm, not of a toothless monitor.
  const double eps = 0.5;
  const Instance inst = workload::class_cascade(10, 6, eps);
  const Tree& tree = inst.tree();
  std::vector<double> speeds(uidx(tree.node_count()), 0.25);  // slow interior
  speeds[uidx(tree.root())] = 0.0;
  for (const NodeId rc : tree.root_children()) speeds[uidx(rc)] = 4.0;  // fast feed
  const SpeedProfile profile(tree, std::move(speeds));

  algo::PaperGreedyPolicy policy(eps);
  algo::Lemma2Monitor monitor(eps);
  sim::Engine engine(inst, profile);
  engine.set_observer(&monitor);
  engine.run(policy);
  EXPECT_GT(monitor.violations(), 0)
      << "inverted speeds should overfill interior queues (max ratio "
      << monitor.max_ratio() << ")";
}

TEST(Lemma2, ClassCascadeStressStaysBounded) {
  const double eps = 0.5;
  const Instance inst = workload::class_cascade(8, 4, eps);
  const SpeedProfile speeds =
      SpeedProfile::layered(inst.tree(), 1.0, 1.0 + eps);
  algo::PaperGreedyPolicy policy(eps);
  algo::Lemma2Monitor monitor(eps);
  sim::Engine engine(inst, speeds);
  engine.set_observer(&monitor);
  engine.run(policy);
  EXPECT_EQ(monitor.violations(), 0) << "max ratio " << monitor.max_ratio();
}

/// Lemma 3: after the last arrival, Phi_j upper-bounds the actual remaining
/// time to clear the identical nodes.
TEST(Phi, UpperBoundsRemainingInteriorTime) {
  const double eps = 0.5;
  const double s = 1.0 + eps;
  util::Rng rng(17);
  workload::WorkloadSpec spec;
  spec.jobs = 60;
  spec.load = 0.9;
  spec.sizes.class_eps = eps;
  const Instance inst =
      workload::generate(rng, builders::star_of_paths(2, 4), spec);

  const SpeedProfile speeds = SpeedProfile::layered(inst.tree(), 1.0, s);
  algo::PaperGreedyPolicy policy(eps);
  sim::Engine engine(inst, speeds);

  // Admit everything, then freeze (no further arrivals) and measure phi.
  for (const Job& job : inst.jobs()) {
    engine.advance_to(job.release);
    engine.admit(job.id, policy.assign(engine, job));
  }
  const Time t0 = engine.now();
  std::vector<double> bound(uidx(inst.job_count()), -1.0);
  for (const Job& job : inst.jobs()) {
    // Lemma 3's premise: the job is available on a node *not* adjacent to
    // the root (root children run at speed 1, below the lemma's s).
    if (!engine.completed(job.id) && engine.current_path_index(job.id) >= 1)
      bound[uidx(job.id)] = algo::phi(engine, job.id, eps, s);
  }
  engine.run_to_completion();

  int measured = 0;
  for (const Job& job : inst.jobs()) {
    if (bound[uidx(job.id)] < 0.0) continue;
    // Identical model: the last identical node is the leaf itself, so the
    // remaining interior time is completion - t0.
    const double actual = engine.metrics().job(job.id).completion - t0;
    EXPECT_LE(actual, bound[uidx(job.id)] + 1e-6)
        << "job " << job.id << " actual " << actual << " phi " << bound[uidx(job.id)];
    ++measured;
  }
  EXPECT_GT(measured, 0);
}

/// Lemma 4 / the assignment rule: the greedy cost computed at arrival upper
/// bounds the job's actual flow time when no later jobs arrive (checked by
/// replaying each prefix of the instance).
TEST(Lemma4, PredictionBoundsFlowOnPrefixes) {
  const double eps = 0.5;
  util::Rng rng(23);
  workload::WorkloadSpec spec;
  spec.jobs = 25;
  spec.load = 0.9;
  spec.sizes.class_eps = eps;
  const Tree tree = builders::star_of_paths(2, 3);
  const Instance full = workload::generate(rng, tree, spec);

  // The Lemma 4 premises: root children speed s, deeper nodes (1+eps)s.
  const double s = 1.0 + eps;
  const SpeedProfile speeds =
      SpeedProfile::layered(tree, s, (1.0 + eps) * s);

  for (JobId k = 0; k < full.job_count(); ++k) {
    std::vector<Job> prefix(full.jobs().begin(),
                            full.jobs().begin() + k + 1);
    Instance inst(full.tree_ptr(), std::move(prefix), full.model());
    algo::PaperGreedyPolicy policy(eps);
    sim::Engine engine(inst, speeds);
    double predicted = -1.0;
    for (const Job& job : inst.jobs()) {
      engine.advance_to(job.release);
      const NodeId leaf = policy.assign(engine, job);
      if (job.id == k) {
        // Lemma 4's wait components sum to at most the assignment cost
        // (the per-component speed divisors are all >= 1 here).
        predicted = policy.assignment_cost(engine, job, leaf);
      }
      engine.admit(job.id, leaf);
    }
    engine.run_to_completion();
    const double actual = engine.metrics().job(k).flow();
    EXPECT_LE(actual, predicted + 1e-6)
        << "prefix " << k << ": flow " << actual << " bound " << predicted;
  }
}

}  // namespace
}  // namespace treesched
