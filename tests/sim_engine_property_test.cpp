// Property-based engine tests: invariants that must hold on every schedule
// the engine produces, across topologies x node policies x workloads x seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <tuple>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

using sim::EngineConfig;
using sim::NodePolicy;
using workload::UnrelatedModel;

constexpr const char* kTreeNames[] = {"star", "fat", "cater", "spine",
                                      "figure1"};

// gtest prints a parameter type without a PrintTo overload as its raw
// bytes, and that dump is part of each case's listed (and ctest) name. So
// every byte is a value: the tree is an index into kTreeNames (a name
// pointer would print an address that moves with ASLR and binary layout)
// and the padding is an explicit zeroed field.
struct Case {
  std::int64_t tree;  ///< index into kTreeNames
  NodePolicy policy;
  std::uint8_t zero_pad[7] = {};
  double load;
  std::uint64_t seed;
  double chunk;  // 0 = store-and-forward
};

Case make_case(const std::string& tree, NodePolicy policy, double load,
               std::uint64_t seed, double chunk) {
  const auto* it =
      std::find(std::begin(kTreeNames), std::end(kTreeNames), tree);
  return {.tree = it - std::begin(kTreeNames),
          .policy = policy,
          .load = load,
          .seed = seed,
          .chunk = chunk};
}

const char* tree_name(const Case& c) {
  return kTreeNames[static_cast<std::size_t>(c.tree)];
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = std::string(tree_name(c)) + "_" +
                     sim::node_policy_name(c.policy) + "_load" +
                     std::to_string(static_cast<int>(c.load * 100)) + "_s" +
                     std::to_string(c.seed);
  if (c.chunk > 0) name += "_chunked";
  return name;
}

Tree make_tree(const std::string& name) {
  if (name == std::string("star")) return builders::star_of_paths(2, 3);
  if (name == std::string("fat")) return builders::fat_tree(2, 2, 2);
  if (name == std::string("cater")) return builders::caterpillar(2, 2, 2);
  if (name == std::string("spine")) return builders::star_of_paths(1, 6);
  return builders::figure1_tree();
}

class EngineProperty : public testing::TestWithParam<Case> {};

TEST_P(EngineProperty, ScheduleIsFeasibleAndConservative) {
  const Case& c = GetParam();
  const Tree tree = make_tree(tree_name(c));
  util::Rng rng(c.seed);

  workload::WorkloadSpec spec;
  spec.jobs = 120;
  spec.load = c.load;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  spec.sizes.scale = 1.0;
  spec.sizes.spread = 32.0;
  const Instance inst = workload::generate(rng, tree, spec);

  EngineConfig cfg;
  cfg.node_policy = c.policy;
  cfg.record_schedule = true;
  cfg.router_chunk_size = c.chunk;
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.3);

  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine engine(inst, speeds, cfg);
  engine.run(policy);

  // Everything completes and the schedule replays cleanly.
  EXPECT_TRUE(engine.metrics().all_completed());
  const auto res = sim::audit_run(inst, sim::make_run_log(inst, engine));
  EXPECT_TRUE(res.ok) << res.summary();

  // Work conservation: recorded bursts sum to exactly the required work.
  double recorded = 0.0;
  for (const auto& s : engine.recorder().segments()) recorded += s.work();
  double required = 0.0;
  for (const Job& job : inst.jobs()) {
    const NodeId leaf = engine.assigned_leaf(job.id);
    for (const NodeId v : inst.tree().path_to(leaf))
      required += inst.processing_time(job.id, v);
  }
  EXPECT_NEAR(recorded, required, 1e-5 * std::max(1.0, required));

  for (const Job& job : inst.jobs()) {
    const auto& rec = engine.metrics().job(job.id);
    // Flow lower bounds: store-and-forward pays the whole path volume; the
    // pipelined extension overlaps hops, so only the slowest single hop is
    // a valid bound there.
    double max_speed = 0.0;
    double slowest_hop = 0.0;
    for (const NodeId v : inst.tree().path_to(rec.leaf)) {
      max_speed = std::max(max_speed, speeds.speed(v));
      slowest_hop = std::max(
          slowest_hop, inst.processing_time(job.id, v) / speeds.speed(v));
    }
    if (c.chunk <= 0.0) {
      EXPECT_GE(rec.flow() + 1e-9,
                inst.path_processing_time(job.id, rec.leaf) / max_speed);
    } else {
      EXPECT_GE(rec.flow() + 1e-9, slowest_hop);
    }
    // Fractional contribution never exceeds the flow time.
    EXPECT_LE(rec.fractional_area, rec.flow() + 1e-9);
    EXPECT_GT(rec.fractional_area, 0.0);
    // Node completions strictly increase along the path.
    const auto stamps = engine.metrics().node_completion(job.id);
    for (std::size_t i = 1; i < stamps.size(); ++i)
      EXPECT_GE(stamps[i], stamps[i - 1] - 1e-9);
    // The job never finishes before release + its own work.
    EXPECT_GE(rec.completion, job.release);
  }

  // No leftover internal work.
  EXPECT_NEAR(engine.total_remaining_work(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineProperty,
    testing::Values(
        make_case("star", NodePolicy::kSjf, 0.5, 1, 0.0),
        make_case("star", NodePolicy::kSjf, 0.9, 2, 0.0),
        make_case("star", NodePolicy::kFifo, 0.7, 3, 0.0),
        make_case("star", NodePolicy::kSrpt, 0.7, 4, 0.0),
        make_case("star", NodePolicy::kLcfs, 0.7, 5, 0.0),
        make_case("fat", NodePolicy::kSjf, 0.6, 6, 0.0),
        make_case("fat", NodePolicy::kSrpt, 0.9, 7, 0.0),
        make_case("cater", NodePolicy::kSjf, 0.8, 8, 0.0),
        make_case("cater", NodePolicy::kFifo, 0.5, 9, 0.0),
        make_case("spine", NodePolicy::kSjf, 0.7, 10, 0.0),
        make_case("figure1", NodePolicy::kSjf, 0.7, 11, 0.0),
        make_case("figure1", NodePolicy::kSrpt, 0.5, 12, 0.0),
        make_case("star", NodePolicy::kSjf, 0.7, 13, 1.0),
        make_case("spine", NodePolicy::kSjf, 0.7, 14, 0.5),
        make_case("fat", NodePolicy::kFifo, 0.6, 15, 2.0)),
    case_name);

struct UnrelatedCase {
  workload::UnrelatedModel model;
  std::uint32_t zero_pad = 0;  // explicit padding: part of the listed name
  std::uint64_t seed;
};

class EngineUnrelatedProperty
    : public testing::TestWithParam<UnrelatedCase> {};

TEST_P(EngineUnrelatedProperty, UnrelatedRunsValidate) {
  const auto& c = GetParam();
  const Tree tree = builders::fat_tree(2, 2, 2);
  util::Rng rng(c.seed);
  workload::WorkloadSpec spec;
  spec.jobs = 80;
  spec.load = 0.6;
  spec.endpoints = EndpointModel::kUnrelated;
  spec.unrelated.model = c.model;
  const Instance inst = workload::generate(rng, tree, spec);

  EngineConfig cfg;
  cfg.record_schedule = true;
  const SpeedProfile speeds = SpeedProfile::paper_unrelated(inst.tree(), 0.5);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine engine(inst, speeds, cfg);
  engine.run(policy);
  EXPECT_TRUE(engine.metrics().all_completed());
  const auto res = sim::audit_run(inst, sim::make_run_log(inst, engine));
  EXPECT_TRUE(res.ok) << res.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Models, EngineUnrelatedProperty,
    testing::Values(
        UnrelatedCase{.model = UnrelatedModel::kUniformFactor, .seed = 21},
        UnrelatedCase{.model = UnrelatedModel::kRelated, .seed = 22},
        UnrelatedCase{.model = UnrelatedModel::kAffinity, .seed = 23},
        UnrelatedCase{.model = UnrelatedModel::kRestricted, .seed = 24}),
    [](const testing::TestParamInfo<UnrelatedCase>& param_info) {
      workload::UnrelatedSpec s;
      s.model = param_info.param.model;
      std::string name = std::string(s.name()) + "_s" +
                         std::to_string(param_info.param.seed);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(EngineDeterminism, SameSeedSameSchedule) {
  const Tree tree = builders::fat_tree(2, 2, 2);
  const auto run_once = [&tree]() {
    util::Rng rng(99);
    workload::WorkloadSpec spec;
    spec.jobs = 60;
    const Instance inst = workload::generate(rng, tree, spec);
    algo::PaperGreedyPolicy policy(0.5);
    sim::Engine engine(inst, SpeedProfile::uniform(inst.tree(), 1.2));
    engine.run(policy);
    return engine.metrics().total_flow_time();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace treesched
