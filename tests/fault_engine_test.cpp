// Engine failure semantics against hand-computed schedules: crash revert,
// failure-aware re-dispatch, slowdown compositing, link outages — plus
// reproducibility and offline auditability of fault runs.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/fault/model.hpp"
#include "treesched/fault/plan.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/util/rng.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using sim::Engine;
using sim::EngineConfig;

TEST(FaultEngine, RouterCrashRevertsToParentCopy) {
  // root(0) -> r1(1) -> r2(2) -> leaf(3), size 2, unit speeds.
  // Fault-free: r1 [0,2], r2 [2,4], leaf [4,6].
  // r2 crashes at t=3 having done 1 of 2: that partial progress is lost
  // (revert to r1's fully forwarded copy), r2 redoes all 2 units after
  // recovering at t=5 -> r2 [5,7], leaf [7,9].
  Instance inst(builders::star_of_paths(1, 2), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  FaultPlan plan;
  plan.events.push_back({3.0, FaultKind::kNodeDown, 2, 1.0});
  plan.events.push_back({5.0, FaultKind::kNodeUp, 2, 1.0});
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.set_fault_plan(&plan);
  eng.run_with_assignment({inst.tree().leaves()[0]});
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 9.0);
  ASSERT_EQ(eng.fault_log().size(), 2u);
  EXPECT_EQ(eng.fault_log()[0].kind, sim::FaultRecord::Kind::kNodeDown);
}

TEST(FaultEngine, LeafCrashRedispatchesToLiveLeaf) {
  // Two branches: root(0) -> r(1) -> leaf(2) and root -> r(3) -> leaf(4).
  // Job on leaf 4: r3 [0,2], leaf4 starts at 2, crashes at t=3 with 1 unit
  // done. Re-dispatch to leaf 2 shares no path prefix, so the router work
  // restarts: r1 [3,5], leaf2 [5,7].
  Instance inst(builders::star_of_paths(2, 1), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  FaultPlan plan;
  plan.events.push_back({3.0, FaultKind::kNodeDown, 4, 1.0});
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.set_fault_plan(&plan);
  eng.run_with_assignment({4});
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 7.0);
  EXPECT_EQ(eng.assigned_leaf(0), 2);
  // The applied timeline carries the re-dispatch record.
  bool redispatched = false;
  for (const auto& fr : eng.fault_log())
    if (fr.kind == sim::FaultRecord::Kind::kRedispatch) {
      redispatched = true;
      EXPECT_EQ(fr.job, 0);
      EXPECT_EQ(fr.node, 4);
      EXPECT_EQ(fr.to, 2);
    }
  EXPECT_TRUE(redispatched);
}

TEST(FaultEngine, SlowdownScalesAndRecovers) {
  // root(0) -> r(1) -> leaf(2), size 2. Leaf at factor 0.5 from t=0,
  // restored at t=4: router [0,2]; leaf does 1 unit over [2,4] at rate 0.5,
  // the last unit over [4,5] at full speed.
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  FaultPlan plan;
  plan.events.push_back({0.0, FaultKind::kSlow, 2, 0.5});
  plan.events.push_back({4.0, FaultKind::kSlow, 2, 1.0});
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.set_fault_plan(&plan);
  eng.run_with_assignment({2});
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 5.0);
}

TEST(FaultEngine, EdgeOutageDefersDelivery) {
  // root(0) -> r(1) -> leaf(2), size 2. Edge into the leaf down over [1,3]:
  // the router finishes at 2 but cannot deliver until 3; leaf [3,5].
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  FaultPlan plan;
  plan.events.push_back({1.0, FaultKind::kEdgeDown, 2, 1.0});
  plan.events.push_back({3.0, FaultKind::kEdgeUp, 2, 1.0});
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.set_fault_plan(&plan);
  eng.run_with_assignment({2});
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 5.0);
}

TEST(FaultEngine, RejectsLatePlansAndChunkedRouting) {
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  FaultPlan plan;
  plan.events.push_back({1.0, FaultKind::kSlow, 1, 0.5});

  EngineConfig chunked;
  chunked.router_chunk_size = 1.0;
  Engine eng_chunked(inst, SpeedProfile::uniform(inst.tree(), 1.0), chunked);
  EXPECT_THROW(eng_chunked.set_fault_plan(&plan), std::invalid_argument);

  Engine eng_started(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng_started.admit(0, 2);
  EXPECT_THROW(eng_started.set_fault_plan(&plan), std::invalid_argument);
}

/// A realistic faulty run on a generated workload, driven by the policy +
/// re-dispatch pair treesched_sweep uses.
struct FaultyRun {
  Instance inst;
  FaultPlan plan;
  std::string run_log_text;
  double total_flow = 0.0;
};

FaultyRun faulty_run(std::uint64_t seed) {
  util::Rng rng(seed);
  workload::WorkloadSpec wspec;
  wspec.jobs = 120;
  wspec.load = 0.9;
  auto tree = std::make_shared<const Tree>(builders::caterpillar(2, 2, 2));
  FaultyRun out{workload::generate(rng, tree, wspec), {}, "", 0.0};

  fault::FaultModel model;
  model.node_failure_rate = 0.01;
  model.edge_failure_rate = 0.005;
  model.slow_rate = 0.01;
  model.horizon = 200.0;
  out.plan = fault::generate_plan(*tree, model, util::split_seed(~seed, 1));

  EngineConfig cfg;
  cfg.record_schedule = true;
  algo::FaultAwareGreedy policy(0.5);
  Engine eng(out.inst, SpeedProfile::paper_identical(*tree, 0.5), cfg);
  eng.set_fault_plan(&out.plan, &policy);
  eng.run(policy);
  out.total_flow = eng.metrics().total_flow_time();

  std::ostringstream os;
  sim::write_run_log(os, sim::make_run_log(out.inst, eng));
  out.run_log_text = os.str();
  return out;
}

TEST(FaultEngine, FaultyRunsAreReproducible) {
  const FaultyRun a = faulty_run(11);
  const FaultyRun b = faulty_run(11);
  EXPECT_EQ(a.run_log_text, b.run_log_text);  // byte-identical serialization
  EXPECT_DOUBLE_EQ(a.total_flow, b.total_flow);
  const FaultyRun c = faulty_run(12);
  EXPECT_NE(a.run_log_text, c.run_log_text);
}

TEST(FaultEngine, FaultyRunsPassTheOfflineAudit) {
  const FaultyRun run = faulty_run(21);
  const sim::RunLog log = sim::read_run_log(run.run_log_text);
  EXPECT_FALSE(log.faults.empty());
  const sim::AuditReport report = sim::audit_run(run.inst, log);
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(FaultEngine, AuditCatchesTamperedFaultRun) {
  const FaultyRun run = faulty_run(31);
  sim::RunLog log = sim::read_run_log(run.run_log_text);
  ASSERT_FALSE(log.segments.empty());
  log.segments.front().rate *= 2.0;  // claim work faster than the speed
  const sim::AuditReport report = sim::audit_run(run.inst, log);
  EXPECT_FALSE(report.ok);
}

}  // namespace
}  // namespace treesched
