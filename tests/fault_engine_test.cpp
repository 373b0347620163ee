// Engine failure semantics against hand-computed schedules: crash revert,
// failure-aware re-dispatch, slowdown compositing, link outages — plus
// reproducibility and offline auditability of fault runs.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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

/// Records a fault run with a fixed assignment and captures its run log.
sim::RunLog recorded_fault_run(const Instance& inst, const FaultPlan& plan,
                               const std::vector<NodeId>& assignment) {
  EngineConfig cfg;
  cfg.record_schedule = true;
  Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  eng.set_fault_plan(&plan);
  eng.run_with_assignment(assignment);
  return sim::make_run_log(inst, eng);
}

bool any_violation_contains(const sim::AuditReport& rep,
                            const std::string& needle) {
  for (const auto& v : rep.violations)
    if (v.find(needle) != std::string::npos) return true;
  return false;
}

TEST(FaultEngine, AuditCatchesEveryTamperedRecoveryInvariant) {
  // Router crash: root(0) -> r1(1) -> r2(2) -> leaf(3), size 2, r2 down over
  // [3,5]. Bursts: r1 [0,2], r2 [2,3], r2 [5,7], leaf [7,9].
  Instance crash(builders::star_of_paths(1, 2), {Job(0, 0.0, 2.0)},
                 EndpointModel::kIdentical);
  FaultPlan crash_plan;
  crash_plan.events.push_back({3.0, FaultKind::kNodeDown, 2, 1.0});
  crash_plan.events.push_back({5.0, FaultKind::kNodeUp, 2, 1.0});
  // Leaf crash: the job on leaf 4 is re-dispatched to leaf 2 at t=3.
  // Bursts: r3 [0,2], leaf4 [2,3], r1 [3,5], leaf2 [5,7].
  Instance moved(builders::star_of_paths(2, 1), {Job(0, 0.0, 2.0)},
                 EndpointModel::kIdentical);
  FaultPlan moved_plan;
  moved_plan.events.push_back({3.0, FaultKind::kNodeDown, 4, 1.0});
  // Slowdown: the leaf runs at factor 0.5 over [0,4].
  // Bursts: r1 [0,2], leaf [2,4] at rate 0.5, leaf [4,5] at rate 1.
  Instance slowed(builders::star_of_paths(1, 1), {Job(0, 0.0, 2.0)},
                  EndpointModel::kIdentical);
  FaultPlan slow_plan;
  slow_plan.events.push_back({0.0, FaultKind::kSlow, 2, 0.5});
  slow_plan.events.push_back({4.0, FaultKind::kSlow, 2, 1.0});

  const sim::RunLog crash_log = recorded_fault_run(crash, crash_plan, {3});
  const sim::RunLog moved_log = recorded_fault_run(moved, moved_plan, {4});
  const sim::RunLog slow_log = recorded_fault_run(slowed, slow_plan, {2});

  auto segment = [](sim::RunLog& log, NodeId node, Time t0) -> sim::Segment& {
    for (sim::Segment& s : log.segments)
      if (s.node == node && s.t0 == t0) return s;
    ADD_FAILURE() << "no burst on node " << node << " at t=" << t0;
    return log.segments.front();
  };
  struct Row {
    const char* what;
    const Instance* inst;
    const sim::RunLog* log;
    std::function<void(sim::RunLog&)> tamper;
    const char* message;
  };
  const std::vector<Row> rows = {
      {"burst inside a down window", &crash, &crash_log,
       [&](sim::RunLog& log) {
         sim::Segment& s = segment(log, 2, 5.0);
         s.t0 = 4.0;
         s.t1 = 6.0;
       },
       "during its down window"},
      {"rate != speed x factor", &slowed, &slow_log,
       [&](sim::RunLog& log) { segment(log, 2, 2.0).rate = 1.0; },
       "speed x slowdown"},
      {"re-dispatch away from a live node", &moved, &moved_log,
       [](sim::RunLog& log) {
         std::erase_if(log.faults, [](const sim::FaultRecord& fr) {
           return fr.kind == sim::FaultRecord::Kind::kNodeDown;
         });
       },
       "which was not down"},
      {"chain ends off the recorded final leaf", &moved, &moved_log,
       [&](sim::RunLog& log) {
         const auto& p = moved.tree().path_to(4);
         log.paths[0].assign(p.begin(), p.end());
       },
       "re-dispatch chain ends at node 2"},
      {"final-epoch machine work shortfall", &moved, &moved_log,
       [&](sim::RunLog& log) { segment(log, 2, 5.0).t1 = 6.5; },
       "final-epoch machine work"},
      {"machine work before the last router burst", &crash, &crash_log,
       [&](sim::RunLog& log) {
         sim::Segment& s = segment(log, 3, 7.0);
         s.t0 = 6.0;
         s.t1 = 8.0;
       },
       "precedence violated across recovery"},
      {"shed and re-dispatched", &moved, &moved_log,
       [](sim::RunLog& log) {
         log.shed.policy = overload::ShedPolicy::kLargestFirst;
         log.shed.queue_cap = 100.0;
         sim::ShedRecord sr;
         sr.kind = sim::ShedRecord::Kind::kShed;
         sr.t = 6.0;
         sr.job = 0;
         log.sheds.push_back(sr);
       },
       "was both shed and re-dispatched"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    const sim::AuditReport clean = sim::audit_run(*row.inst, *row.log);
    ASSERT_TRUE(clean.ok) << clean.summary();
    sim::RunLog log = *row.log;
    row.tamper(log);
    const sim::AuditReport rep = sim::audit_run(*row.inst, log);
    EXPECT_FALSE(rep.ok);
    EXPECT_TRUE(any_violation_contains(rep, row.message)) << rep.summary();
  }
}

TEST(FaultEngine, AuditRejectsRedispatchToARouter) {
  // A log (untrusted input) claiming a re-dispatch to router 1 is flagged;
  // the audit must not follow the chain to a path the router does not have.
  Instance inst(builders::star_of_paths(2, 1), {Job(0, 0.0, 2.0)},
                EndpointModel::kIdentical);
  FaultPlan plan;
  plan.events.push_back({3.0, FaultKind::kNodeDown, 4, 1.0});
  sim::RunLog log = recorded_fault_run(inst, plan, {4});
  for (sim::FaultRecord& fr : log.faults)
    if (fr.kind == sim::FaultRecord::Kind::kRedispatch) fr.to = 1;
  const sim::AuditReport rep = sim::audit_run(inst, log);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "to node 1 which is not a live "
                                          "machine"))
      << rep.summary();
}

TEST(FaultEngine, AuditFlagsOnlyBurstsSpanningASlowdownStep) {
  // root(0) -> r(1) -> leaf(2), size 4, released at t=1e5; the router slows
  // to 0.5 at t=1e5+2, so its first burst ends exactly at the step:
  // r [1e5,1e5+2) at rate 1, r [1e5+2,1e5+6) at rate 0.5, leaf [1e5+6,1e5+10).
  // At this magnitude t1 - 1e-12 rounds back to t1, so only a strict
  // interior test keeps the burst that ends at the step clean.
  const Time r = 100000.0;
  Instance inst(builders::star_of_paths(1, 1), {Job(0, r, 4.0)},
                EndpointModel::kIdentical);
  FaultPlan plan;
  plan.events.push_back({r + 2.0, FaultKind::kSlow, 1, 0.5});
  const sim::RunLog log = recorded_fault_run(inst, plan, {2});
  const sim::AuditReport rep = sim::audit_run(inst, log);
  EXPECT_TRUE(rep.ok) << rep.summary();

  // A burst that really runs across the step is still flagged.
  sim::RunLog spans = log;
  for (sim::Segment& s : spans.segments)
    if (s.node == 1 && s.t0 == r) s.t1 = r + 3.0;
  const sim::AuditReport bad = sim::audit_run(inst, spans);
  EXPECT_FALSE(bad.ok);
  EXPECT_TRUE(any_violation_contains(bad, "spans a slowdown change"))
      << bad.summary();
}

}  // namespace
}  // namespace treesched
