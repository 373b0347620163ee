// Differential testing: the event Engine against the naive reference
// simulator (independent implementation of the same semantics). Any
// divergence in completion times flags a bug in one of them.
#include <gtest/gtest.h>

#include <cstdint>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/reference.hpp"
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
  std::uint8_t zero_pad[3] = {};
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
    default: return builders::random_tree(rng, 6, 8);
  }
}

class Differential : public testing::TestWithParam<DiffCase> {};

TEST_P(Differential, EngineMatchesReference) {
  const DiffCase& c = GetParam();
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
