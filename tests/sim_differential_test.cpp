// Differential testing: the event Engine against the naive reference
// simulator (independent implementation of the same semantics). Any
// divergence in completion times flags a bug in one of them. The paper
// grid cases use class-rounded sizes and layered speeds 1 / 1+eps, where
// equal-time events are common: they pin the same-instant tie rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/reference.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

using sim::NodePolicy;

// gtest prints a parameter type without a PrintTo overload as its raw
// bytes, and that dump is part of each case's listed (and ctest) name, so
// the padding is an explicit zeroed field.
struct DiffCase {
  std::int32_t tree_id;
  NodePolicy policy;
  /// >0: a paper-grid case at eps = 1 / grid_eps, over 40 seeds from `seed`.
  std::uint8_t grid_eps = 0;
  /// >0: the paper grid with every release shifted by 10^shift_log10, so
  /// the tie rule is exercised where the clock's rounding exceeds any
  /// fixed work tolerance.
  std::uint8_t shift_log10 = 0;
  std::uint8_t zero_pad = 0;
  double load;
  std::uint64_t seed;
  double chunk = 0.0;  ///< >0: pipelined-routing differential
};

Tree diff_tree(int id) {
  util::Rng rng(1234 + static_cast<std::uint64_t>(id));
  switch (id) {
    case 0: return builders::star_of_paths(2, 3);
    case 1: return builders::fat_tree(2, 2, 2);
    case 2: return builders::caterpillar(2, 2, 2);
    case 3: return builders::figure1_tree();
    case 5: return builders::caterpillar(2, 3, 2);
    default: return builders::random_tree(rng, 6, 8);
  }
}

/// The paper grid: class-rounded sizes (class_eps = eps), layered speeds
/// 1 / 1+eps and PaperGreedyPolicy(eps), 200 jobs per seed. Every run must
/// validate and match the reference within 1e-9 relative.
void check_paper_grid(const DiffCase& c) {
  const double eps = 1.0 / c.grid_eps;
  const Tree tree = diff_tree(c.tree_id);
  for (std::uint64_t seed = c.seed; seed < c.seed + 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    workload::WorkloadSpec spec;
    spec.jobs = 200;
    spec.load = c.load;
    spec.sizes.class_eps = eps;
    const Instance generated = workload::generate(rng, tree, spec);
    const double shift =
        c.shift_log10 > 0 ? std::pow(10.0, c.shift_log10) : 0.0;
    std::vector<Job> jobs = generated.jobs();
    for (Job& job : jobs) job.release += shift;
    const Instance inst(generated.tree_ptr(), std::move(jobs),
                        generated.model());
    const SpeedProfile speeds =
        SpeedProfile::layered(inst.tree(), 1.0, 1.0 + eps);
    sim::EngineConfig cfg;
    cfg.record_schedule = true;
    algo::PaperGreedyPolicy policy(eps);
    sim::Engine engine(inst, speeds, cfg);
    engine.run(policy);
    const auto valid = sim::audit_run(inst, sim::make_run_log(inst, engine));
    EXPECT_TRUE(valid.ok) << valid.summary();
    std::vector<NodeId> assignment(uidx(inst.job_count()));
    for (JobId j = 0; j < inst.job_count(); ++j)
      assignment[uidx(j)] = engine.assigned_leaf(j);
    const auto ref = sim::simulate_reference(inst, speeds, assignment);
    const auto near = [](double got, double want) {
      return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
    };
    for (JobId j = 0; j < inst.job_count(); ++j) {
      EXPECT_PRED2(near, engine.metrics().job(j).completion,
                   ref.completion[uidx(j)])
          << "job " << j;
      const auto stamps = engine.metrics().node_completion(j);
      ASSERT_EQ(stamps.size(), ref.node_completion[uidx(j)].size());
      for (std::size_t i = 0; i < stamps.size(); ++i)
        EXPECT_PRED2(near, stamps[i], ref.node_completion[uidx(j)][i])
            << "job " << j << " node " << i;
    }
  }
}

class Differential : public testing::TestWithParam<DiffCase> {};

TEST_P(Differential, EngineMatchesReference) {
  const DiffCase& c = GetParam();
  if (c.grid_eps > 0) {
    check_paper_grid(c);
    return;
  }
  const Tree tree = diff_tree(c.tree_id);
  util::Rng rng(c.seed);
  workload::WorkloadSpec spec;
  spec.jobs = 60;
  spec.load = c.load;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  const Instance inst = workload::generate(rng, tree, spec);

  // Fix assignments with a deterministic policy first (round-robin over
  // leaves) so both simulators schedule the identical problem.
  std::vector<NodeId> assignment;
  for (const Job& job : inst.jobs()) {
    const auto& leaves = inst.tree().leaves();
    assignment.resize(uidx(inst.job_count()));
    assignment[uidx(job.id)] = leaves[uidx(job.id) % leaves.size()];
  }

  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.25);

  sim::EngineConfig cfg;
  cfg.node_policy = c.policy;
  cfg.router_chunk_size = c.chunk;
  sim::Engine engine(inst, speeds, cfg);
  engine.run_with_assignment(assignment);

  const auto ref =
      sim::simulate_reference(inst, speeds, assignment, c.policy, c.chunk);

  for (JobId j = 0; j < inst.job_count(); ++j) {
    const auto& rec = engine.metrics().job(j);
    ASSERT_TRUE(rec.completed());
    EXPECT_NEAR(rec.completion, ref.completion[uidx(j)], 1e-6)
        << "job " << j << " diverges";
    const auto stamps = engine.metrics().node_completion(j);
    ASSERT_EQ(stamps.size(), ref.node_completion[uidx(j)].size());
    for (std::size_t i = 0; i < stamps.size(); ++i)
      EXPECT_NEAR(stamps[i], ref.node_completion[uidx(j)][i], 1e-6)
          << "job " << j << " node " << i;
  }
  EXPECT_NEAR(engine.metrics().total_flow_time(), ref.total_flow, 1e-4);
}

std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  std::uint64_t seed = 100;
  for (std::int32_t tree = 0; tree < 5; ++tree)
    for (const NodePolicy p : {NodePolicy::kSjf, NodePolicy::kFifo})
      for (const double load : {0.6, 0.95})
        cases.push_back(
            {.tree_id = tree, .policy = p, .load = load, .seed = ++seed});
  // Pipelined-routing differentials.
  for (std::int32_t tree = 0; tree < 5; ++tree)
    for (const NodePolicy p : {NodePolicy::kSjf, NodePolicy::kFifo})
      for (const double chunk : {2.0, 0.5})
        cases.push_back({.tree_id = tree,
                         .policy = p,
                         .load = 0.8,
                         .seed = ++seed,
                         .chunk = chunk});
  // The paper grid (each case runs 40 seeds from 1000).
  for (const std::int32_t tree : {0, 1, 5})
    for (const std::uint8_t grid_eps : {1, 2, 4})
      for (const double load : {0.6, 1.2})
        cases.push_back({.tree_id = tree,
                         .policy = NodePolicy::kSjf,
                         .grid_eps = grid_eps,
                         .load = load,
                         .seed = 1000});
  // The same grid with releases shifted by 1e7.
  for (const std::int32_t tree : {0, 1, 5})
    for (const std::uint8_t grid_eps : {1, 2, 4})
      for (const double load : {0.6, 1.2})
        cases.push_back({.tree_id = tree,
                         .policy = NodePolicy::kSjf,
                         .grid_eps = grid_eps,
                         .shift_log10 = 7,
                         .load = load,
                         .seed = 1000});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Differential, testing::ValuesIn(diff_cases()),
    [](const testing::TestParamInfo<DiffCase>& pi) {
      std::string name =
          "tree" + std::to_string(pi.param.tree_id) + "_" +
          sim::node_policy_name(pi.param.policy) + "_load" +
          std::to_string(static_cast<int>(pi.param.load * 100)) + "_s" +
          std::to_string(pi.param.seed);
      if (pi.param.chunk > 0.0)
        name += "_chunk" + std::to_string(
                               static_cast<int>(pi.param.chunk * 100));
      if (pi.param.grid_eps > 0)
        name += "_paper_eps" + std::to_string(100 / pi.param.grid_eps);
      if (pi.param.shift_log10 > 0)
        name += "_shift1e" + std::to_string(pi.param.shift_log10);
      return name;
    });

TEST(DifferentialPaperPolicy, GreedyAssignmentsAlsoMatch) {
  // Same cross-check but with the paper's greedy assignments (recorded from
  // an engine run, then replayed on both simulators).
  const Tree tree = builders::fat_tree(2, 2, 2);
  util::Rng rng(777);
  workload::WorkloadSpec spec;
  spec.jobs = 80;
  spec.load = 0.9;
  const Instance inst = workload::generate(rng, tree, spec);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);

  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine engine(inst, speeds);
  engine.run(policy);
  std::vector<NodeId> assignment(uidx(inst.job_count()));
  for (JobId j = 0; j < inst.job_count(); ++j)
    assignment[uidx(j)] = engine.assigned_leaf(j);

  const auto ref = sim::simulate_reference(inst, speeds, assignment);
  for (JobId j = 0; j < inst.job_count(); ++j)
    EXPECT_NEAR(engine.metrics().job(j).completion, ref.completion[uidx(j)], 1e-6);
}

TEST(Reference, RejectsUnsupportedPolicy) {
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  EXPECT_THROW(sim::simulate_reference(
                   inst, SpeedProfile::uniform(inst.tree(), 1.0),
                   {inst.tree().leaves()[0]}, sim::NodePolicy::kSrpt),
               std::invalid_argument);
}

}  // namespace
}  // namespace treesched
