// Edge-case coverage for surfaces the mainline tests exercise only
// implicitly: speed profiles, metrics corners, engine query preconditions,
// gantt windows, opt-search options, trace file errors, harness helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "treesched/treesched.hpp"

namespace treesched {
namespace {

TEST(SpeedProfile, ValidatesShapeAndPositivity) {
  const Tree tree = builders::star_of_paths(1, 1);
  EXPECT_THROW(SpeedProfile(tree, {1.0}), std::invalid_argument);  // size
  EXPECT_THROW(SpeedProfile(tree, {1.0, 0.0, 1.0}),
               std::invalid_argument);  // zero on a router
  // Zero on the root is fine (unused in the base model).
  const SpeedProfile ok(tree, {0.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(ok.speed(2), 2.0);
  EXPECT_THROW(SpeedProfile::uniform(tree, -1.0), std::invalid_argument);
  EXPECT_THROW(ok.scaled(0.0), std::invalid_argument);
}

TEST(Metrics, EmptyAndPartialStates) {
  sim::Metrics m;
  m.reset(2);
  EXPECT_FALSE(m.all_completed());
  EXPECT_EQ(m.completed_count(), 0u);
  EXPECT_DOUBLE_EQ(m.total_flow_time(), 0.0);
  // Completed-job averages of an empty set are NaN by contract (a "0" here
  // would read as "jobs finished instantly" in overload experiments).
  EXPECT_TRUE(std::isnan(m.mean_flow_time()));
  EXPECT_TRUE(std::isnan(m.goodput()));
  EXPECT_DOUBLE_EQ(m.max_flow_time(), 0.0);
  EXPECT_DOUBLE_EQ(m.makespan(), 0.0);
  EXPECT_THROW(m.lk_norm_flow_time(0.5), std::invalid_argument);
  m.job(0).completion = 5.0;
  m.job(0).release = 1.0;
  EXPECT_EQ(m.completed_count(), 1u);
  EXPECT_DOUBLE_EQ(m.total_flow_time(), 4.0);
}

TEST(EngineQueries, RejectUnadmittedJobs) {
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  const NodeId router = inst.tree().root_children()[0];
  EXPECT_THROW(eng.remaining_on(0, router), std::invalid_argument);
  EXPECT_THROW(eng.available_on(0, router), std::invalid_argument);
  EXPECT_THROW(eng.current_path_index(0), std::invalid_argument);
}

TEST(EngineQueries, RejectOffPathNodes) {
  Instance inst(builders::star_of_paths(2, 1), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.admit(0, inst.tree().leaves()[0]);
  const NodeId other_leaf = inst.tree().leaves()[1];
  EXPECT_THROW(eng.remaining_on(0, other_leaf), std::invalid_argument);
}

TEST(Gantt, WindowingClampsToRange) {
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 4.0)},
                EndpointModel::kIdentical);
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  eng.run_with_assignment({inst.tree().leaves()[0]});
  sim::GanttOptions opt;
  opt.t_begin = 2.0;
  opt.t_end = 6.0;
  opt.width = 40;
  const std::string g = sim::render_gantt(inst, eng.recorder(), opt);
  EXPECT_NE(g.find("2 .. 6"), std::string::npos);
  sim::GanttOptions bad;
  bad.width = 2;
  EXPECT_THROW(sim::render_gantt(inst, eng.recorder(), bad),
               std::invalid_argument);
}

TEST(OptSearch, ValidatesOptions) {
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  lp::OptSearchOptions opt;
  opt.restarts = 0;
  EXPECT_THROW(lp::search_opt_upper_bound(
                   inst, SpeedProfile::uniform(inst.tree(), 1.0), opt),
               std::invalid_argument);
}

TEST(TraceIo, FileErrorsSurface) {
  EXPECT_THROW(workload::read_trace_file("/nonexistent/trace.txt"),
               std::runtime_error);
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  EXPECT_THROW(workload::write_trace_file("/nonexistent/dir/x.txt", inst),
               std::runtime_error);
}

TEST(TraceIo, PreservesWeightAndSource) {
  Tree tree = builders::star_of_paths(2, 1);
  Job j(0, 0.0, 2.0);
  j.weight = 3.5;
  j.source = tree.leaves()[1];
  Instance inst(std::move(tree), {j}, EndpointModel::kIdentical);
  std::stringstream ss;
  workload::write_trace(ss, inst);
  const Instance back = workload::read_trace(ss.str());
  EXPECT_DOUBLE_EQ(back.job(0).weight, 3.5);
  EXPECT_EQ(back.job(0).source, inst.tree().leaves()[1]);
}

TEST(Harness, MeasureRatioAndRepeat) {
  util::Rng rng(2);
  workload::WorkloadSpec spec;
  spec.jobs = 30;
  const Instance inst =
      workload::generate(rng, builders::star_of_paths(2, 1), spec);
  const auto r = experiments::measure_ratio(
      inst, SpeedProfile::uniform(inst.tree(), 1.5), "paper", 0.5);
  EXPECT_GT(r.alg_flow, 0.0);
  EXPECT_GT(r.lower_bound, 0.0);
  EXPECT_GT(r.ratio, 0.0);
  const auto reps = experiments::repeat(
      7, 5, [](std::uint64_t s) { return static_cast<double>(s % 10); });
  EXPECT_EQ(reps.size(), 5u);
  EXPECT_FALSE(experiments::epsilon_sweep().empty());
  EXPECT_FALSE(experiments::standard_trees().empty());
}

TEST(Engine, ObserverCallbacksFire) {
  struct Counter : sim::EngineObserver {
    int events = 0, admits = 0, completes = 0;
    void on_event(const sim::Engine&, Time) override { ++events; }
    void on_job_admitted(const sim::Engine&, JobId) override { ++admits; }
    void on_job_completed(const sim::Engine&, JobId) override { ++completes; }
  };
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 1.0), Job(1, 0.5, 1.0)},
                EndpointModel::kIdentical);
  Counter counter;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  eng.set_observer(&counter);
  const NodeId leaf = inst.tree().leaves()[0];
  eng.run_with_assignment({leaf, leaf});
  EXPECT_EQ(counter.admits, 2);
  EXPECT_EQ(counter.completes, 2);
  // Each job completes on 2 nodes => at least 4 events.
  EXPECT_GE(counter.events, 4);
}

TEST(Policies, UnrelatedGreedyOnEveryUnrelatedModel) {
  // The paper rule must behave across all leaf-size generators.
  for (const auto model :
       {workload::UnrelatedModel::kUniformFactor,
        workload::UnrelatedModel::kRelated, workload::UnrelatedModel::kAffinity,
        workload::UnrelatedModel::kRestricted}) {
    util::Rng rng(11);
    workload::WorkloadSpec spec;
    spec.jobs = 40;
    spec.endpoints = EndpointModel::kUnrelated;
    spec.unrelated.model = model;
    const Instance inst =
        workload::generate(rng, builders::star_of_paths(2, 2), spec);
    const auto r = algo::run_named_policy(
        inst, SpeedProfile::paper_unrelated(inst.tree(), 0.5), "paper", 0.5);
    EXPECT_TRUE(r.metrics.all_completed());
  }
}

TEST(Broomstick, MirrorWorksOnUnrelatedInstances) {
  util::Rng rng(21);
  workload::WorkloadSpec spec;
  spec.jobs = 50;
  spec.endpoints = EndpointModel::kUnrelated;
  const Instance inst =
      workload::generate(rng, builders::figure1_tree(), spec);
  algo::BroomstickMirrorPolicy mirror(inst, 0.5);
  sim::Engine engine(inst, SpeedProfile::paper_unrelated(inst.tree(), 0.5));
  engine.run(mirror);
  mirror.finish_simulation();
  const auto rep = algo::domination_report(
      engine.metrics(), mirror.broomstick_engine().metrics());
  EXPECT_EQ(rep.violations, 0) << "max excess " << rep.max_excess;
}

}  // namespace
}  // namespace treesched
