// Overload protection: admission-control policies, Engine::shed invariants,
// shed-record run-log round-trips, audit acceptance/tamper detection, the
// saturation estimator, goodput metrics, and determinism of degraded runs
// under the per-event query oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>

#include "treesched/treesched.hpp"
#include "support/query_oracle.hpp"

namespace treesched {
namespace {

sim::EngineConfig shed_cfg(overload::ShedPolicy policy, double cap,
                           double slack = 8.0) {
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  cfg.shed.policy = policy;
  cfg.shed.queue_cap = cap;
  cfg.shed.deadline_slack = slack;
  return cfg;
}

TEST(ShedConfig, ValidationCatchesBadKnobs) {
  overload::ShedConfig ok;  // none needs nothing
  EXPECT_NO_THROW(overload::validate_shed_config(ok));
  overload::ShedConfig bq;
  bq.policy = overload::ShedPolicy::kBoundedQueue;
  EXPECT_THROW(overload::validate_shed_config(bq), std::invalid_argument);
  bq.queue_cap = 4.0;
  EXPECT_NO_THROW(overload::validate_shed_config(bq));
  overload::ShedConfig lf;
  lf.policy = overload::ShedPolicy::kLargestFirst;
  lf.queue_cap = -1.0;
  EXPECT_THROW(overload::validate_shed_config(lf), std::invalid_argument);
  overload::ShedConfig dl;
  dl.policy = overload::ShedPolicy::kDeadline;
  dl.deadline_slack = 0.0;
  EXPECT_THROW(overload::validate_shed_config(dl), std::invalid_argument);
  EXPECT_THROW(overload::parse_shed_policy("drop-random"),
               std::invalid_argument);
  EXPECT_EQ(overload::parse_shed_policy("largest-first"),
            overload::ShedPolicy::kLargestFirst);
}

TEST(BoundedQueue, RejectsArrivalOverCap) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 4.0), Job(1, 0.0, 4.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kBoundedQueue, 5.0);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);

  EXPECT_FALSE(eng.job_rejected(0));
  EXPECT_TRUE(eng.job_rejected(1));
  EXPECT_FALSE(eng.job_shed(1));
  // j0 alone: router [0,4], leaf [4,8].
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 8.0);
  EXPECT_EQ(eng.metrics().rejected_count(), 1u);
  EXPECT_EQ(eng.metrics().shed_count(), 0u);
  EXPECT_DOUBLE_EQ(eng.metrics().shed_volume(), 4.0);
  EXPECT_DOUBLE_EQ(eng.metrics().goodput(), 1.0 / 8.0);

  ASSERT_EQ(eng.shed_log().size(), 1u);
  const sim::ShedRecord& rec = eng.shed_log()[0];
  EXPECT_EQ(rec.kind, sim::ShedRecord::Kind::kReject);
  EXPECT_EQ(rec.job, 1);
  EXPECT_DOUBLE_EQ(rec.t, 0.0);
}

TEST(LargestFirst, EvictsLargestInflightJob) {
  // j0 (size 6) is admitted; when j1 (size 2) arrives at t=1 the backlog is
  // 5 + 2 > cap 6, and j0 is the largest candidate -> j0 is shed, j1 runs
  // on a clean path: router [1,3], leaf [3,5].
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 6.0), Job(1, 1.0, 2.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kLargestFirst, 6.0);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);

  EXPECT_TRUE(eng.job_shed(0));
  EXPECT_FALSE(eng.job_rejected(0));
  EXPECT_FALSE(eng.job_shed(1));
  EXPECT_DOUBLE_EQ(eng.metrics().job(1).completion, 5.0);
  EXPECT_LT(eng.metrics().job(0).completion, 0.0);  // never completes
  EXPECT_EQ(eng.metrics().shed_count(), 1u);
  EXPECT_DOUBLE_EQ(eng.metrics().shed_volume(), 6.0);
  EXPECT_DOUBLE_EQ(eng.metrics().goodput(), 1.0 / 5.0);

  ASSERT_EQ(eng.shed_log().size(), 1u);
  EXPECT_EQ(eng.shed_log()[0].kind, sim::ShedRecord::Kind::kShed);
  EXPECT_EQ(eng.shed_log()[0].job, 0);
  EXPECT_DOUBLE_EQ(eng.shed_log()[0].t, 1.0);
}

TEST(LargestFirst, RejectsArrivalWhenItIsLargest) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 2.0), Job(1, 1.0, 10.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kLargestFirst, 6.0);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);

  EXPECT_TRUE(eng.job_rejected(1));
  EXPECT_FALSE(eng.job_shed(0));
  // j0 is undisturbed: router [0,2], leaf [2,4].
  EXPECT_DOUBLE_EQ(eng.metrics().job(0).completion, 4.0);
}

/// Victim oracle for largest-first shedding: the rule as a full scan over
/// per-job state, independent of the dispatch index the controller walks.
/// A root child's queue is every admitted, unfinished, unshed job still at
/// path index 0; the victim is the largest (p_j, r_j, j) among them that
/// was not re-dispatched, unless the arrival is larger.
class FullScanLargestFirst : public sim::AdmissionPolicy {
 public:
  explicit FullScanLargestFirst(double cap) : cap_(cap) {}

  bool admit(sim::Engine& engine, const Job& job) override {
    for (;;) {
      if (overload::AdmissionController::root_backlog(engine) + job.size <=
          cap_)
        return true;
      JobId best = job.id;
      bool best_is_arrival = true;
      JobId top = kInvalidJob;  // largest queued job, re-dispatched or not
      for (JobId j = 0; j < engine.instance().job_count(); ++j) {
        if (!engine.admitted(j) || engine.completed(j) || engine.job_shed(j) ||
            engine.current_path_index(j) != 0)
          continue;
        if (top == kInvalidJob || larger(engine, j, top)) top = j;
        if (engine.job_redispatched(j)) continue;
        if (larger(engine, j, best, job)) {
          best = j;
          best_is_arrival = false;
        }
      }
      if (top != kInvalidJob && engine.job_redispatched(top) &&
          larger(engine, top, job.id, job))
        ++exempt_tops_;
      if (best_is_arrival) {
        engine.reject(job.id);
        return false;
      }
      engine.shed(best);
      ++evictions_;
    }
  }
  const char* name() const override { return "full-scan-largest-first"; }

  int evictions() const { return evictions_; }
  /// Victim searches where the largest queued job was re-dispatched
  /// (exempt) and outranked the arrival, so the pick came from below it.
  int exempt_tops() const { return exempt_tops_; }

 private:
  /// Today's comparison: a > b by p_j, then release, then id. `arrival`
  /// stands in for b when b is the not-yet-admitted arrival.
  static bool larger(const sim::Engine& engine, JobId a, JobId b,
                     const Job& arrival) {
    const Job& ja = engine.instance().job(a);
    const Job& jb = b == arrival.id ? arrival : engine.instance().job(b);
    return ja.size > jb.size ||
           (ja.size == jb.size &&
            (ja.release > jb.release ||
             (ja.release == jb.release && a > b)));
  }
  static bool larger(const sim::Engine& engine, JobId a, JobId b) {
    return larger(engine, a, b, engine.instance().job(b));
  }

  double cap_;
  int evictions_ = 0;
  int exempt_tops_ = 0;
};

struct VictimRun {
  std::vector<sim::ShedRecord> shed_log;
  std::string run_log;
};

/// Runs `inst` under largest-first shedding with either the production
/// controller or the full-scan oracle, optionally under a fault plan with
/// greedy re-dispatch.
VictimRun run_largest_first(const Instance& inst, double cap,
                            const fault::FaultPlan* plan,
                            FullScanLargestFirst* oracle) {
  const auto cfg = shed_cfg(overload::ShedPolicy::kLargestFirst, cap);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed);
  eng.set_admission(oracle != nullptr
                        ? static_cast<sim::AdmissionPolicy*>(oracle)
                        : &ctl);
  algo::FaultAwareGreedy greedy(0.5);
  if (plan != nullptr) eng.set_fault_plan(plan, &greedy);
  eng.run(greedy);
  std::stringstream ss;
  sim::write_run_log(ss, sim::make_run_log(inst, eng));
  return {eng.shed_log(), ss.str()};
}

/// Every eviction of the index-walking controller must name the victim the
/// full scan names. Both runs are deterministic, so identical decisions up
/// to eviction k leave identical engine states for eviction k + 1: the
/// first differing shed-log record is the first divergent victim.
void expect_same_victims(const Instance& inst, double cap,
                         const fault::FaultPlan* plan,
                         FullScanLargestFirst& oracle) {
  const VictimRun got = run_largest_first(inst, cap, plan, nullptr);
  const VictimRun want = run_largest_first(inst, cap, plan, &oracle);
  const std::size_t n = std::min(got.shed_log.size(), want.shed_log.size());
  for (std::size_t i = 0; i < n; ++i) {
    const sim::ShedRecord& a = got.shed_log[i];
    const sim::ShedRecord& b = want.shed_log[i];
    ASSERT_TRUE(a.kind == b.kind && a.job == b.job && a.t == b.t)
        << "decision " << i << " at t=" << b.t << ": controller "
        << (a.kind == sim::ShedRecord::Kind::kShed ? "shed" : "rejected")
        << " job " << a.job << ", full scan "
        << (b.kind == sim::ShedRecord::Kind::kShed ? "shed" : "rejected")
        << " job " << b.job;
  }
  EXPECT_EQ(got.shed_log.size(), want.shed_log.size());
  EXPECT_EQ(got.run_log, want.run_log);
  EXPECT_GT(oracle.evictions(), 0);
}

Instance overload_instance(const Tree& tree, int jobs,
                           EndpointModel endpoints, std::uint64_t seed) {
  util::Rng rng(seed);
  workload::WorkloadSpec spec;
  spec.jobs = jobs;
  spec.load = 2.5;  // sustained overload
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  spec.endpoints = endpoints;
  return workload::generate(rng, tree, spec);
}

TEST(LargestFirstVictims, FatTreeMatchesFullScan) {
  const Instance inst = overload_instance(
      builders::fat_tree(3, 2, 2), 300,
      EndpointModel::kIdentical, 5);
  FullScanLargestFirst oracle(12.0);
  expect_same_victims(inst, 12.0, nullptr, oracle);
}

TEST(LargestFirstVictims, ReDispatchedJobsAtTheTopAreSkipped) {
  const Instance inst = overload_instance(
      builders::fat_tree(2, 1, 3), 300,
      EndpointModel::kIdentical, 9);
  fault::FaultModel model;
  model.node_failure_rate = 0.05;
  model.node_mttr = 6.0;
  model.fail_routers = false;  // leaf crashes re-dispatch queued jobs
  model.horizon = 150.0;
  const fault::FaultPlan plan = fault::generate_plan(inst.tree(), model, 3);
  FullScanLargestFirst oracle(30.0);
  expect_same_victims(inst, 30.0, &plan, oracle);
  EXPECT_GT(oracle.exempt_tops(), 0);
}

TEST(LargestFirstVictims, UnrelatedLeavesDoNotReorderCandidates) {
  // Every root child of a star is a router keyed by p_j; the machines'
  // unrelated sizes must not leak into the victim order.
  const Instance inst = overload_instance(
      builders::star_of_paths(4, 1), 300,
      EndpointModel::kUnrelated, 13);
  FullScanLargestFirst oracle(10.0);
  expect_same_victims(inst, 10.0, nullptr, oracle);
}

/// Share of the arrivals a largest-first run turned away (shed or
/// rejected).
double turned_away_share(const VictimRun& run, const Instance& inst) {
  const auto n = std::count_if(
      run.shed_log.begin(), run.shed_log.end(), [](const sim::ShedRecord& r) {
        return r.kind != sim::ShedRecord::Kind::kAdmit;
      });
  return static_cast<double>(n) / static_cast<double>(inst.job_count());
}

TEST(LargestFirstVictims, WideTreeMatchesFullScanWithAndWithoutFaults) {
  // 20 root children, each a router over 5 machines, at rho ~ 4: the
  // controller answers each root child from the key its index keeps on top,
  // and under a fault plan walks below a re-dispatched top.
  util::Rng rng(17);
  workload::WorkloadSpec spec;
  spec.jobs = 600;
  spec.load = 4.0;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  const Instance inst =
      workload::generate(rng, builders::fat_tree(20, 1, 5), spec);
  constexpr double kCap = 60.0;

  FullScanLargestFirst clean(kCap);
  expect_same_victims(inst, kCap, nullptr, clean);
  EXPECT_GE(turned_away_share(run_largest_first(inst, kCap, nullptr, nullptr),
                              inst),
            0.2);

  fault::FaultModel model;
  model.node_failure_rate = 0.05;
  model.node_mttr = 6.0;
  model.fail_routers = false;  // leaf crashes re-dispatch queued jobs
  model.horizon = 150.0;
  const fault::FaultPlan plan = fault::generate_plan(inst.tree(), model, 5);
  FullScanLargestFirst faulty(kCap);
  expect_same_victims(inst, kCap, &plan, faulty);
  EXPECT_GT(faulty.exempt_tops(), 0);
  EXPECT_GE(
      turned_away_share(run_largest_first(inst, kCap, &plan, nullptr), inst),
      0.2);
}

TEST(Deadline, AdmitsIffLemma4BoundWithinSlack) {
  // Two unit jobs at t=0, slack 1.5: the first sees an empty system
  // (F = p_j <= 1.5), the second queues behind it (F > 1.5) and is rejected.
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 1.0), Job(1, 0.0, 1.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kDeadline, 0.0, 1.5);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed, 0.5);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);

  EXPECT_FALSE(eng.job_rejected(0));
  EXPECT_TRUE(eng.job_rejected(1));
  // Every deadline decision carries its evaluated F and the slack*p_j bound.
  ASSERT_EQ(eng.shed_log().size(), 2u);
  const sim::ShedRecord& admit = eng.shed_log()[0];
  const sim::ShedRecord& reject = eng.shed_log()[1];
  EXPECT_EQ(admit.kind, sim::ShedRecord::Kind::kAdmit);
  EXPECT_EQ(admit.job, 0);
  EXPECT_DOUBLE_EQ(admit.bound, 1.5);
  EXPECT_LE(admit.f, admit.bound);
  EXPECT_EQ(reject.kind, sim::ShedRecord::Kind::kReject);
  EXPECT_EQ(reject.job, 1);
  EXPECT_DOUBLE_EQ(reject.bound, 1.5);
  EXPECT_GT(reject.f, reject.bound);
}

TEST(Deadline, GenerousSlackAdmitsEverything) {
  Instance inst(builders::star_of_paths(2, 2),
                {Job(0, 0.0, 1.0), Job(1, 0.0, 2.0), Job(2, 0.5, 1.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kDeadline, 0.0, 100.0);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed, 0.5);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);
  EXPECT_TRUE(eng.metrics().all_completed());
  EXPECT_EQ(eng.metrics().rejected_count(), 0u);
}

TEST(Deadline, RepresentativesFollowTheEngineNotItsAddress) {
  // The controller first serves an engine over fat_tree(2, 1, 2), then one
  // over fat_tree(3, 1, 4) built at the same address. Its per-root-child
  // representative leaves must be rebuilt: root children 1 and 3 of the new
  // tree carry a larger queued job (F = 2 for a unit arrival), root child 2
  // is empty (F = 1). With slack 1 the unit arrival fits only via rack 2.
  const Instance small(builders::fat_tree(2, 1, 2), {Job(0, 0.0, 1.0)},
                       EndpointModel::kIdentical);
  const Instance big(builders::fat_tree(3, 1, 4),
                     {Job(0, 0.0, 4.0), Job(1, 0.0, 4.0), Job(2, 0.0, 1.0)},
                     EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kDeadline, 0.0, 1.0);
  overload::AdmissionController ctl(cfg.shed, 0.5);
  std::optional<sim::Engine> eng;
  eng.emplace(small, SpeedProfile::uniform(small.tree(), 1.0), cfg);
  const sim::Engine* first_address = &*eng;
  EXPECT_TRUE(ctl.admit(*eng, small.job(0)));

  eng.emplace(big, SpeedProfile::uniform(big.tree(), 1.0), cfg);
  ASSERT_EQ(&*eng, first_address);
  const auto& rcs = big.tree().root_children();
  ASSERT_EQ(rcs.size(), 3u);
  eng->admit(0, big.tree().leaves_under(rcs[0]).front());
  eng->admit(1, big.tree().leaves_under(rcs[2]).front());
  EXPECT_TRUE(ctl.admit(*eng, big.job(2)));
  ASSERT_EQ(eng->shed_log().size(), 1u);
  EXPECT_EQ(eng->shed_log()[0].kind, sim::ShedRecord::Kind::kAdmit);
  EXPECT_DOUBLE_EQ(eng->shed_log()[0].f, 1.0);
}

TEST(RunLog, ShedRecordsRoundTripAndAuditPasses) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 6.0), Job(1, 1.0, 2.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kLargestFirst, 6.0);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);

  const sim::RunLog log = sim::make_run_log(inst, eng);
  std::stringstream ss;
  sim::write_run_log(ss, log);
  const sim::RunLog back = sim::read_run_log(ss.str());

  EXPECT_EQ(back.shed.policy, overload::ShedPolicy::kLargestFirst);
  EXPECT_DOUBLE_EQ(back.shed.queue_cap, 6.0);
  ASSERT_EQ(back.sheds.size(), log.sheds.size());
  for (std::size_t i = 0; i < back.sheds.size(); ++i) {
    EXPECT_EQ(back.sheds[i].kind, log.sheds[i].kind);
    EXPECT_EQ(back.sheds[i].job, log.sheds[i].job);
    EXPECT_DOUBLE_EQ(back.sheds[i].t, log.sheds[i].t);
    EXPECT_DOUBLE_EQ(back.sheds[i].f, log.sheds[i].f);
    EXPECT_DOUBLE_EQ(back.sheds[i].bound, log.sheds[i].bound);
  }

  const sim::AuditReport rep = sim::audit_run(inst, back);
  EXPECT_TRUE(rep.ok) << rep.summary();
}

TEST(Audit, FlagsShedJobProcessedAfterEviction) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 6.0), Job(1, 1.0, 2.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kLargestFirst, 6.0);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);
  ASSERT_TRUE(eng.job_shed(0));

  sim::RunLog log = sim::make_run_log(inst, eng);
  ASSERT_TRUE(sim::audit_run(inst, log).ok);

  // Tamper: a burst for the shed job AFTER its shed time must be caught.
  sim::Segment forged;
  forged.node = inst.tree().root_children()[0];
  forged.job = 0;
  forged.t0 = 2.0;
  forged.t1 = 3.0;
  forged.rate = 1.0;
  log.segments.push_back(forged);
  const sim::AuditReport rep = sim::audit_run(inst, log);
  EXPECT_FALSE(rep.ok);
}

TEST(Audit, FlagsRejectedJobWithRecordedPath) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 6.0), Job(1, 1.0, 2.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kLargestFirst, 6.0);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);

  sim::RunLog log = sim::make_run_log(inst, eng);
  // Tamper: claim the completed job j1 was rejected — it has a recorded
  // path and segments, so the overload rules must refuse the log.
  sim::ShedRecord forged;
  forged.kind = sim::ShedRecord::Kind::kReject;
  forged.t = 1.0;
  forged.job = 1;
  log.sheds.push_back(forged);
  EXPECT_FALSE(sim::audit_run(inst, log).ok);
}

TEST(RunLog, NoShedLinesWithoutShedding) {
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  eng.run_with_assignment({inst.tree().leaves()[0]});
  std::stringstream ss;
  sim::write_run_log(ss, sim::make_run_log(inst, eng));
  const std::string text = ss.str();
  EXPECT_EQ(text.find("shedcfg"), std::string::npos);
  EXPECT_EQ(text.find("shed "), std::string::npos);
}

TEST(Determinism, ShedDecisionsIdenticalUnderQueryOracle) {
  // The shed decision stream must be a pure function of the aggregates the
  // query oracle checks per event: a run shadowed by the oracle and an
  // unobserved run produce byte-identical degraded run logs.
  util::Rng rng(7);
  workload::WorkloadSpec spec;
  spec.jobs = 80;
  spec.load = 2.5;  // sustained overload
  const Instance inst =
      workload::generate(rng, builders::star_of_paths(3, 2), spec);

  auto run_mode = [&](test::QueryOracle* oracle) {
    const auto cfg = shed_cfg(overload::ShedPolicy::kLargestFirst, 12.0);
    sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
    if (oracle != nullptr) eng.set_observer(oracle);
    overload::AdmissionController ctl(cfg.shed);
    eng.set_admission(&ctl);
    algo::PaperGreedyPolicy policy(0.5);
    eng.run(policy);
    std::stringstream ss;
    sim::write_run_log(ss, sim::make_run_log(inst, eng));
    EXPECT_GT(eng.metrics().shed_count() + eng.metrics().rejected_count(), 0u);
    return ss.str();
  };
  test::QueryOracle oracle;
  EXPECT_EQ(run_mode(&oracle), run_mode(nullptr));
  EXPECT_GT(oracle.answers_checked(), 0u);
}

TEST(Estimator, WindowedRhoMatchesOfferedWork) {
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 4.0)},
                EndpointModel::kIdentical);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0));
  overload::SaturationEstimator est(/*window=*/100.0);
  eng.set_observer(&est);
  eng.run_with_assignment({inst.tree().leaves()[0]});
  const NodeId router = inst.tree().root_children()[0];
  // 4 units of work over now()=8 of simulated time at speed 1.
  EXPECT_NEAR(est.rho_hat(eng, router), 0.5, 1e-12);
  EXPECT_NEAR(est.max_root_child_rho(eng), 0.5, 1e-12);
  // Everything drained: no instantaneous backlog left.
  EXPECT_DOUBLE_EQ(eng.root_backlog(), 0.0);
}

TEST(Workload, OfferedLoadMatchesRootCutArithmetic) {
  // 3 jobs, 12 volume, releases spanning [0, 4], root cut capacity 2.
  Instance inst(builders::star_of_paths(2, 1),
                {Job(0, 0.0, 4.0), Job(1, 2.0, 4.0), Job(2, 4.0, 4.0)},
                EndpointModel::kIdentical);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);
  EXPECT_DOUBLE_EQ(workload::offered_load(inst, speeds), 12.0 / (4.0 * 2.0));
  // Degenerate horizon (all releases at 0) => infinite instantaneous load.
  Instance burst(builders::star_of_paths(2, 1),
                 {Job(0, 0.0, 4.0), Job(1, 0.0, 4.0)},
                 EndpointModel::kIdentical);
  EXPECT_TRUE(std::isinf(workload::offered_load(
      burst, SpeedProfile::uniform(burst.tree(), 1.0))));
  Instance empty(builders::star_of_paths(2, 1), {},
                 EndpointModel::kIdentical);
  EXPECT_DOUBLE_EQ(workload::offered_load(
                       empty, SpeedProfile::uniform(empty.tree(), 1.0)),
                   0.0);
}

TEST(Metrics, GoodputAndPercentilesUnderShedding) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 4.0), Job(1, 0.0, 4.0)},
                EndpointModel::kIdentical);
  const auto cfg = shed_cfg(overload::ShedPolicy::kBoundedQueue, 5.0);
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  overload::AdmissionController ctl(cfg.shed);
  eng.set_admission(&ctl);
  algo::PaperGreedyPolicy policy(0.5);
  eng.run(policy);

  const sim::Metrics& m = eng.metrics();
  EXPECT_EQ(m.admitted_count(), 1u);
  EXPECT_DOUBLE_EQ(m.mean_flow_time_admitted(), 8.0);
  EXPECT_DOUBLE_EQ(m.flow_percentile(0.99), 8.0);
  EXPECT_DOUBLE_EQ(m.flow_percentile(0.0), 8.0);
  EXPECT_THROW(m.flow_percentile(1.5), std::invalid_argument);
}

TEST(Sweep, ShedDimensionReportsGoodputPerPolicy) {
  exec::SweepSpec spec;
  spec.policies = {"paper"};
  spec.trees = {"star-4x2"};
  spec.eps_grid = {1.0};
  spec.seeds = 2;
  spec.jobs = 60;
  spec.load = 2.0;
  spec.shed_policies = {"none", "largest-first"};
  spec.queue_cap = 10.0;
  spec.threads = 2;
  const exec::SweepResult r = exec::run_sweep(spec);
  ASSERT_EQ(r.cells.size(), 2u);
  ASSERT_EQ(r.tasks.size(), 4u);
  std::size_t none_shed = 0, lf_shed = 0;
  for (const auto& t : r.tasks) {
    if (r.spec.shed_policies[t.shed_i] == "none")
      none_shed += t.shed_jobs;
    else
      lf_shed += t.shed_jobs;
  }
  EXPECT_EQ(none_shed, 0u);
  EXPECT_GT(lf_shed, 0u);  // rho=2 must trigger shedding
  const std::string json = exec::sweep_json(r, /*include_timing=*/false);
  EXPECT_NE(json.find("\"shed_policies\""), std::string::npos);
  EXPECT_NE(json.find("\"goodput\""), std::string::npos);
}

TEST(Sweep, NoShedDimensionKeepsJsonFreeOfOverloadKeys) {
  exec::SweepSpec spec;
  spec.policies = {"paper"};
  spec.trees = {"star-4x2"};
  spec.eps_grid = {1.0};
  spec.seeds = 1;
  spec.jobs = 30;
  const exec::SweepResult r = exec::run_sweep(spec);
  const std::string json = exec::sweep_json(r, /*include_timing=*/false);
  EXPECT_EQ(json.find("shed"), std::string::npos);
  EXPECT_EQ(json.find("goodput"), std::string::npos);
}

}  // namespace
}  // namespace treesched
