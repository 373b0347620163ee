// Query-oracle differential suite. "Fast" is the engine's incremental
// dispatch-index answers to the five aggregate queries; "slow" is the
// test-side QueryOracle (support/query_oracle.hpp), which rescans Q_v after
// every event and admission and checks each answer, naming the first
// divergent query and event. Every assignment policy runs on random
// instances with the oracle attached, and the shadowed run's serialized run
// log (assignments, burst segments, completions, fault timeline) must equal
// an unobserved run's byte for byte — the oracle only reads.
//
// Two sweep shortcuts have their own per-leaf references here:
// PaperGreedyPolicy's grouped leaf sweep against PerLeafGreedy (every leaf,
// single-query F), and the deadline controller's root-child minimum against
// the minimum of single-query F over all leaves. Under both, and under
// FaultAwareGreedy's assignments and re-dispatches, SweepChecked compares
// every entry of the per-decision Lemma-4 sweep with the single-query F at
// its root child, bit for bit, at every decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/fault/model.hpp"
#include "treesched/overload/controller.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/util/rng.hpp"
#include "treesched/workload/generator.hpp"
#include "support/query_oracle.hpp"

namespace treesched {
namespace {

// Assignment policies under test, by their make_policy names.
constexpr const char* kPolicies[] = {
    "paper",        "closest",     "random",     "round-robin",
    "least-volume", "least-count", "two-choice", "fault-greedy",
    "broomstick-mirror"};
constexpr std::int32_t kPaper = 0;
constexpr std::int32_t kLeastVolume = 4;
static_assert(std::string_view(kPolicies[kPaper]) == "paper");
static_assert(std::string_view(kPolicies[kLeastVolume]) == "least-volume");

// gtest prints a parameter type without a PrintTo overload as its raw
// bytes, and that dump is part of each case's listed (and ctest) name. So
// every byte is a value: the policy is an index into kPolicies (a name
// pointer would print an address that moves with ASLR and binary layout)
// and the padding is an explicit zeroed field.
struct FastSlowCase {
  std::int32_t policy;
  std::int32_t tree_id;
  EndpointModel endpoints;
  bool faults;
  std::uint8_t zero_pad[6] = {};
  double chunk = 0.0;
  std::uint64_t seed = 7;
};

const char* policy_name(const FastSlowCase& c) {
  return kPolicies[static_cast<std::size_t>(c.policy)];
}

std::string case_name(const testing::TestParamInfo<FastSlowCase>& info) {
  const FastSlowCase& c = info.param;
  std::string name = policy_name(c);
  for (char& ch : name)
    if (ch == '-') ch = '_';
  name += c.endpoints == EndpointModel::kIdentical ? "_ident" : "_unrel";
  name += "_tree";
  name += std::to_string(c.tree_id);
  if (c.faults) name += "_faults";
  if (c.chunk > 0.0) name += "_chunked";
  return name;
}

Tree case_tree(int id) {
  switch (id) {
    case 0: return builders::fat_tree(3, 2, 2);
    case 1: return builders::caterpillar(3, 2, 2);
    default: return builders::star_of_paths(4, 2);
  }
}

struct RunResult {
  std::string log;
  double flow = 0.0;
  double makespan = 0.0;
};

RunResult result_of(const Instance& inst, const sim::Engine& engine) {
  std::ostringstream os;
  sim::write_run_log(os, sim::make_run_log(inst, engine));
  return {os.str(), engine.metrics().total_flow_time(),
          engine.metrics().makespan()};
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.makespan, b.makespan);
}

fault::FaultPlan case_fault_plan(const Tree& tree, std::uint64_t seed) {
  fault::FaultModel model;
  model.node_failure_rate = 0.02;
  model.node_mttr = 8.0;
  model.edge_failure_rate = 0.01;
  model.slow_rate = 0.01;
  model.slow_factor = 0.5;
  model.horizon = 60.0;
  return fault::generate_plan(tree, model, seed + 17);
}

/// Runs one case under `policy`; `oracle` (nullable) shadows the engine per
/// event. Fault cases re-dispatch through `redispatch`, or through a fresh
/// FaultAwareGreedy when it is null.
RunResult run_with(const Instance& inst, const SpeedProfile& speeds,
                   const FastSlowCase& c, sim::AssignmentPolicy& policy,
                   test::QueryOracle* oracle,
                   sim::RedispatchPolicy* redispatch = nullptr) {
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  cfg.router_chunk_size = c.chunk;
  sim::Engine engine(inst, speeds, cfg);
  if (oracle != nullptr) engine.set_observer(oracle);

  fault::FaultPlan plan;
  algo::FaultAwareGreedy fault_greedy(0.5);
  if (c.faults) {
    // Crash, link, and slowdown events plus greedy re-dispatch.
    plan = case_fault_plan(inst.tree(), c.seed);
    engine.set_fault_plan(&plan,
                          redispatch != nullptr ? redispatch : &fault_greedy);
  }

  engine.run(policy);
  return result_of(inst, engine);
}

/// Runs one case under a fresh instance of its policy: rotation counters
/// and RNG streams restart on every call.
RunResult run_once(const Instance& inst, const SpeedProfile& speeds,
                   const FastSlowCase& c, test::QueryOracle* oracle) {
  auto policy = algo::make_policy(policy_name(c), inst, 0.5, c.seed);
  return run_with(inst, speeds, c, *policy, oracle);
}

Instance case_instance(const FastSlowCase& c) {
  util::Rng rng(c.seed);
  workload::WorkloadSpec spec;
  spec.jobs = 70;
  spec.load = 1.2;  // enough backlog that the aggregate queries matter
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  spec.endpoints = c.endpoints;
  return workload::generate(rng, case_tree(c.tree_id), spec);
}

class FastSlow : public testing::TestWithParam<FastSlowCase> {};

TEST_P(FastSlow, RunLogsAreByteIdentical) {
  const FastSlowCase& c = GetParam();
  const Instance inst = case_instance(c);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);

  test::QueryOracle oracle;
  const RunResult shadowed = run_once(inst, speeds, c, &oracle);
  EXPECT_GT(oracle.answers_checked(), 0u);
  expect_same_run(shadowed, run_once(inst, speeds, c, nullptr));
}

std::vector<FastSlowCase> all_cases() {
  std::vector<FastSlowCase> cases;
  for (std::int32_t p = 0; p < std::ssize(kPolicies); ++p) {
    for (std::int32_t tree_id = 0; tree_id < 3; ++tree_id) {
      for (const EndpointModel m :
           {EndpointModel::kIdentical, EndpointModel::kUnrelated}) {
        cases.push_back({.policy = p, .tree_id = tree_id, .endpoints = m,
                         .faults = false});
      }
    }
    // Fault runs (whole-job forwarding required): crash, link, and slowdown
    // events plus greedy re-dispatch, both endpoint models.
    cases.push_back({.policy = p, .tree_id = 0,
                     .endpoints = EndpointModel::kIdentical, .faults = true});
    cases.push_back({.policy = p, .tree_id = 1,
                     .endpoints = EndpointModel::kUnrelated, .faults = true});
  }
  // Pipelined routing exercises the chunked index updates.
  cases.push_back({.policy = kPaper, .tree_id = 0,
                   .endpoints = EndpointModel::kIdentical, .faults = false,
                   .chunk = 0.75});
  cases.push_back({.policy = kLeastVolume, .tree_id = 1,
                   .endpoints = EndpointModel::kUnrelated, .faults = false,
                   .chunk = 0.75});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FastSlow, testing::ValuesIn(all_cases()),
                         case_name);

// ---------------------------------------------------------------------------
// Event-queue stress battery: workloads crafted around the event order —
// dense same-instant bursts (seq-order ties, batched release epochs),
// far-future fault events long after the completion traffic — plus
// snapshot round-trips, all shadowed by the query oracle.
// ---------------------------------------------------------------------------

/// Jobs in bursts: `per_burst` jobs share each release instant exactly.
Instance burst_instance(std::shared_ptr<const Tree> tree, int bursts,
                        int per_burst, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Job> jobs;
  JobId id = 0;
  for (int b = 0; b < bursts; ++b) {
    const Time release = static_cast<Time>(b) * 3.0;
    for (int k = 0; k < per_burst; ++k)
      jobs.emplace_back(id++, release, rng.bounded_pareto(0.5, 40.0, 1.3));
  }
  return Instance(std::move(tree), std::move(jobs),
                  EndpointModel::kIdentical);
}

TEST(FastSlowStress, SameInstantReleaseStorms) {
  // 8 bursts x 30 jobs at the same instant: every burst is one release
  // epoch whose completions pile onto shared instants downstream, so the
  // queue drains long same-(t) runs that must pop in seq order.
  const auto tree = std::make_shared<const Tree>(builders::fat_tree(4, 2, 2));
  const Instance inst = burst_instance(tree, 8, 30, 0x5707);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);
  const FastSlowCase c{.policy = kPaper, .tree_id = 0,
                       .endpoints = EndpointModel::kIdentical,
                       .faults = false};

  test::QueryOracle oracle;
  const RunResult shadowed = run_once(inst, speeds, c, &oracle);
  EXPECT_GT(oracle.answers_checked(), 0u);
  expect_same_run(shadowed, run_once(inst, speeds, c, nullptr));
}

TEST(FastSlowStress, FarFutureFaultEventsCrossBucketBoundaries) {
  // A long, sparse fault horizon: recovery events land thousands of time
  // units past the job events and surface after the completion traffic
  // drains.
  const auto tree = std::make_shared<const Tree>(builders::fat_tree(3, 2, 2));
  util::Rng rng(0xfafa);
  workload::WorkloadSpec spec;
  spec.jobs = 60;
  spec.load = 1.1;
  spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  const Instance inst = workload::generate(rng, *tree, spec);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);

  auto run_with_far_faults = [&](test::QueryOracle* oracle) {
    sim::EngineConfig cfg;
    cfg.record_schedule = true;
    sim::Engine engine(inst, speeds, cfg);
    if (oracle != nullptr) engine.set_observer(oracle);
    algo::PaperGreedyPolicy policy(0.5);
    algo::FaultAwareGreedy redispatch(0.5);
    fault::FaultModel model;
    model.node_failure_rate = 0.002;
    model.node_mttr = 4000.0;  // recoveries far beyond the last completion
    model.slow_rate = 0.002;
    model.slow_factor = 0.5;
    model.horizon = 9000.0;
    const fault::FaultPlan plan =
        fault::generate_plan(inst.tree(), model, 0x90);
    engine.set_fault_plan(&plan, &redispatch);
    engine.run(policy);
    return result_of(inst, engine);
  };

  test::QueryOracle oracle;
  const RunResult shadowed = run_with_far_faults(&oracle);
  EXPECT_GT(oracle.answers_checked(), 0u);
  expect_same_run(shadowed, run_with_far_faults(nullptr));
}

// ---------------------------------------------------------------------------
// Snapshot save -> load -> replay byte-identity under shedding and chunked
// routing, with the query oracle checking the resumed engine's rebuilt
// dispatch indices from the first event after load_state on.
// ---------------------------------------------------------------------------

/// Padding is an explicit zeroed field: see FastSlowCase.
struct ReplayCase {
  bool slow;       ///< the oracle also shadows the saving engine throughout
  bool shed;       ///< bounded-queue admission armed on both engines
  std::uint8_t zero_pad[6] = {};
  double chunk;    ///< router chunk size (0 = whole-job forwarding)
};

std::string replay_name(const testing::TestParamInfo<ReplayCase>& info) {
  std::string name = info.param.slow ? "slow" : "fast";
  if (info.param.shed) name += "_shedding";
  if (info.param.chunk > 0.0) name += "_chunked";
  return name;
}

class SnapshotReplay : public testing::TestWithParam<ReplayCase> {};

TEST_P(SnapshotReplay, SaveLoadReplayIsByteIdentical) {
  const ReplayCase& rc = GetParam();
  const auto tree = std::make_shared<const Tree>(builders::fat_tree(3, 2, 2));
  const Instance inst = burst_instance(tree, 10, 12, 0xbeef);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);

  sim::EngineConfig cfg;
  cfg.router_chunk_size = rc.chunk;
  overload::ShedConfig shed;
  if (rc.shed) {
    shed.policy = overload::ShedPolicy::kBoundedQueue;
    shed.queue_cap = 120.0;
    cfg.shed = shed;
  }

  // Mirrors Engine::run's batch loop so the reference and the resumed run
  // drive admissions identically on either side of the snapshot point.
  const auto drive = [&](sim::Engine& engine, sim::AssignmentPolicy& policy,
                         overload::AdmissionController* adm, std::size_t from,
                         std::size_t to) {
    const std::vector<Job>& all = inst.jobs();
    for (std::size_t i = from; i < to;) {
      const Time release = all[i].release;
      engine.advance_to(release);
      do {
        const Job& job = all[i];
        if (adm != nullptr && !adm->admit(engine, job)) {
          // reject() recorded by the controller
        } else {
          engine.admit(job.id, policy.assign(engine, job));
        }
        ++i;
      } while (i < to && all[i].release == release);
    }
  };

  const std::size_t cut = 64;  // mid-burst: splits a same-instant batch

  // Reference: drives straight through.
  algo::PaperGreedyPolicy p_ref(0.5);
  overload::AdmissionController adm_ref(cfg.shed);
  sim::Engine ref(inst, speeds, cfg);
  test::QueryOracle ref_oracle;
  if (rc.slow) ref.set_observer(&ref_oracle);
  if (rc.shed) ref.set_admission(&adm_ref);
  drive(ref, p_ref, rc.shed ? &adm_ref : nullptr, 0, cut);
  std::string snap;
  ref.save_state(snap);
  drive(ref, p_ref, rc.shed ? &adm_ref : nullptr, cut, inst.jobs().size());
  ref.run_to_completion();

  // Resumed: loads the mid-run snapshot, must converge to the same bytes.
  algo::PaperGreedyPolicy p_res(0.5);
  overload::AdmissionController adm_res(cfg.shed);
  sim::Engine res(inst, speeds, cfg);
  test::QueryOracle res_oracle;
  if (rc.shed) res.set_admission(&adm_res);
  res.load_state(snap);
  res.set_observer(&res_oracle);
  drive(res, p_res, rc.shed ? &adm_res : nullptr, cut, inst.jobs().size());
  res.run_to_completion();
  EXPECT_GT(res_oracle.answers_checked(), 0u);
  if (rc.slow) {
    EXPECT_GT(ref_oracle.answers_checked(), 0u);
  }

  // Byte-level: the final serialized engine states and metrics agree.
  std::string final_ref, final_res, m_ref, m_res;
  ref.save_state(final_ref);
  res.save_state(final_res);
  ref.metrics().save(m_ref);
  res.metrics().save(m_res);
  EXPECT_EQ(final_res, final_ref);
  EXPECT_EQ(m_res, m_ref);
  EXPECT_EQ(res.metrics().total_flow_time(), ref.metrics().total_flow_time());
  EXPECT_EQ(res.metrics().makespan(), ref.metrics().makespan());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SnapshotReplay,
    testing::ValuesIn(std::vector<ReplayCase>{
        {.slow = false, .shed = false, .chunk = 0.0},
        {.slow = true, .shed = false, .chunk = 0.0},
        {.slow = false, .shed = true, .chunk = 0.0},
        {.slow = true, .shed = true, .chunk = 0.0},
        {.slow = false, .shed = false, .chunk = 0.75},
        {.slow = true, .shed = false, .chunk = 0.75},
    }),
    replay_name);

// ---------------------------------------------------------------------------
// The oracle's comparator: a perturbed answer must fail with a message that
// names the event time, node, query and candidate.
// ---------------------------------------------------------------------------

TEST(QueryOracleComparator, PerturbedAnswerIsNamed) {
  using test::QueryOracle;
  EXPECT_EQ(QueryOracle::mismatch(2.5, 3, "count_larger", 7, 4.0, 4.0, true),
            "");
  // Ulp-level reassociation noise is inside the tolerance...
  EXPECT_EQ(QueryOracle::mismatch(2.5, 3, "pending_remaining", kInvalidJob,
                                  10.0, 10.0 * (1.0 + 7e-16), false),
            "");
  // ...one count off, or a sum off by more than 1e-12 relative, is not.
  const std::string count =
      QueryOracle::mismatch(2.5, 3, "count_larger", 7, 4.0, 5.0, true);
  const std::string sum = QueryOracle::mismatch(
      0.125, 11, "higher_priority_remaining", 42, 1000.0, 1000.0 + 1e-8,
      false);
  const std::string alpha = QueryOracle::mismatch(6.0, 9, "alpha_leaf",
                                                  kInvalidJob, 0.5, 0.75,
                                                  false);
  ASSERT_FALSE(count.empty());
  ASSERT_FALSE(sum.empty());
  ASSERT_FALSE(alpha.empty());
  for (const char* part : {"t=2.5", "node 3", "count_larger", "job 7",
                           "naive 4", "engine 5"})
    EXPECT_NE(count.find(part), std::string::npos) << count;
  for (const char* part : {"t=0.125", "node 11", "higher_priority_remaining",
                           "job 42", "naive 1000 ", "engine 1000.00000001"})
    EXPECT_NE(sum.find(part), std::string::npos) << sum;
  for (const char* part : {"t=6", "node 9", "alpha_leaf", "candidate -"})
    EXPECT_NE(alpha.find(part), std::string::npos) << alpha;
}

// ---------------------------------------------------------------------------
// The per-decision Lemma-4 sweep against single-query F.
// ---------------------------------------------------------------------------

/// Compares every entry of `greedy`'s last sweep with the single-query
/// PaperGreedyPolicy::F at that root child, bit for bit. Run right after a
/// decision, before the engine moves on, so both read the same state.
class SweepCheck {
 public:
  explicit SweepCheck(const algo::PaperGreedyPolicy& greedy)
      : greedy_(greedy) {}

  void operator()(const sim::Engine& engine, const Job& job) {
    const Tree& tree = engine.tree();
    const std::vector<NodeId>& rcs = tree.root_children();
    const std::vector<double>& swept = greedy_.swept_F();
    ASSERT_EQ(swept.size(), rcs.size()) << "job " << job.id;
    for (std::size_t k = 0; k < rcs.size(); ++k) {
      const NodeId leaf = tree.leaves_under(rcs[k]).front();
      const double single = algo::PaperGreedyPolicy::F(engine, job, leaf);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(swept[k]),
                std::bit_cast<std::uint64_t>(single))
          << "job " << job.id << ", root child " << rcs[k] << " at t="
          << engine.now() << ": swept " << swept[k] << ", F " << single;
    }
    ++checked_;
  }
  int checked() const { return checked_; }

 private:
  const algo::PaperGreedyPolicy& greedy_;
  int checked_ = 0;
};

/// Decorates a policy built on a PaperGreedyPolicy (the policy itself, or
/// a FaultAwareGreedy in both roles): every assignment and re-dispatch is
/// passed through unchanged and then SweepCheck'ed.
class SweepChecked : public sim::AssignmentPolicy,
                     public sim::RedispatchPolicy {
 public:
  SweepChecked(sim::AssignmentPolicy& assign, sim::RedispatchPolicy* redispatch,
               const algo::PaperGreedyPolicy& greedy)
      : assign_(assign), redispatch_(redispatch), check_(greedy) {}

  NodeId assign(const sim::Engine& engine, const Job& job) override {
    const NodeId leaf = assign_.assign(engine, job);
    check_(engine, job);
    return leaf;
  }
  NodeId reassign(const sim::Engine& engine, JobId job,
                  NodeId dead_leaf) override {
    const NodeId leaf = redispatch_->reassign(engine, job, dead_leaf);
    check_(engine, engine.instance().job(job));
    return leaf;
  }
  const char* name() const override { return assign_.name(); }

  int checked() const { return check_.checked(); }

 private:
  sim::AssignmentPolicy& assign_;
  sim::RedispatchPolicy* redispatch_;
  SweepCheck check_;
};

// ---------------------------------------------------------------------------
// Per-leaf reference for PaperGreedyPolicy's grouped sweep.
// ---------------------------------------------------------------------------

/// Test-only reference: the Lemma-4 rule by its per-leaf definition. Every
/// leaf is evaluated with the single-query F and F', plus the 6/eps^2
/// depth penalty, under the same two-pass strict-min plus rotation
/// tie-break as PaperGreedyPolicy.
class PerLeafGreedy : public sim::AssignmentPolicy {
 public:
  PerLeafGreedy(double eps, algo::PaperGreedyPolicy::TieBreak tie_break)
      : penalty_(6.0 / (eps * eps)), tie_break_(tie_break) {}

  NodeId assign(const sim::Engine& engine, const Job& job) override {
    const auto cost = [&](NodeId v) {
      return algo::PaperGreedyPolicy::F(engine, job, v) +
             algo::PaperGreedyPolicy::F_prime(engine, job, v) +
             penalty_ * engine.tree().d(v) * job.size;
    };
    const auto& leaves = engine.tree().leaves();
    double best = std::numeric_limits<double>::infinity();
    NodeId best_leaf = kInvalidNode;
    for (const NodeId v : leaves) {
      const double c = cost(v);
      if (c < best) {
        best = c;
        best_leaf = v;
      }
    }
    if (tie_break_ != algo::PaperGreedyPolicy::TieBreak::kRotate)
      return best_leaf;
    const double tol = 1e-9 * std::max(1.0, std::fabs(best));
    std::vector<NodeId> tied;
    for (const NodeId v : leaves)
      if (cost(v) <= best + tol) tied.push_back(v);
    if (tied.size() > 1) return tied[rotation_++ % tied.size()];
    return best_leaf;
  }
  const char* name() const override { return "per-leaf-greedy"; }

 private:
  double penalty_;
  algo::PaperGreedyPolicy::TieBreak tie_break_;
  std::size_t rotation_ = 0;
};

/// Padding is an explicit zeroed field: see FastSlowCase.
struct PerLeafCase {
  int tree_id;
  EndpointModel endpoints;
  bool rotate;
  bool faults;
  std::uint8_t zero_pad = 0;
};

std::string per_leaf_name(const testing::TestParamInfo<PerLeafCase>& info) {
  const PerLeafCase& c = info.param;
  std::string name = c.endpoints == EndpointModel::kIdentical ? "ident" : "unrel";
  name += "_tree" + std::to_string(c.tree_id);
  name += c.rotate ? "_rotate" : "_first";
  if (c.faults) name += "_faults";
  return name;
}

class PerLeafReference : public testing::TestWithParam<PerLeafCase> {};

TEST_P(PerLeafReference, GreedyRunLogsMatchPerLeafSweep) {
  const PerLeafCase& c = GetParam();
  const FastSlowCase base{.policy = kPaper, .tree_id = c.tree_id,
                          .endpoints = c.endpoints, .faults = c.faults};
  const Instance inst = case_instance(base);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);
  const auto tie = c.rotate ? algo::PaperGreedyPolicy::TieBreak::kRotate
                            : algo::PaperGreedyPolicy::TieBreak::kFirst;

  algo::PaperGreedyPolicy paper(0.5, 6.0 / (0.5 * 0.5), tie);
  PerLeafGreedy reference(0.5, tie);
  test::QueryOracle oracle;
  SweepChecked checked(paper, nullptr, paper);
  algo::FaultAwareGreedy fault_greedy(0.5);
  SweepChecked checked_redispatch(fault_greedy, &fault_greedy,
                                  fault_greedy.greedy());
  const RunResult fast = run_with(inst, speeds, base, checked, &oracle,
                                  &checked_redispatch);
  EXPECT_GT(oracle.answers_checked(), 0u);
  EXPECT_EQ(checked.checked(), inst.job_count());
  if (c.faults) {
    EXPECT_GT(checked_redispatch.checked(), 0);
  }
  expect_same_run(fast, run_with(inst, speeds, base, reference, nullptr));
}

std::vector<PerLeafCase> per_leaf_cases() {
  std::vector<PerLeafCase> cases;
  for (const bool rotate : {false, true}) {
    for (int tree_id = 0; tree_id < 3; ++tree_id)
      for (const EndpointModel m :
           {EndpointModel::kIdentical, EndpointModel::kUnrelated})
        cases.push_back({tree_id, m, rotate, /*faults=*/false});
    cases.push_back({0, EndpointModel::kIdentical, rotate, /*faults=*/true});
    cases.push_back({1, EndpointModel::kUnrelated, rotate, /*faults=*/true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, PerLeafReference,
                         testing::ValuesIn(per_leaf_cases()), per_leaf_name);

// FaultAwareGreedy in both roles — live-leaf assignment and crash
// re-dispatch — decides from the same sweep; every decision is checked, and
// the checked run is the unchecked one byte for byte.
TEST(FaultAwareSweep, EveryDecisionSweepEqualsSingleQueryF) {
  for (const PerLeafCase& c : per_leaf_cases()) {
    if (c.rotate) continue;  // FaultAwareGreedy has no tie rotation
    SCOPED_TRACE(testing::Message() << "tree" << c.tree_id
                                    << (c.faults ? " faults" : ""));
    const FastSlowCase base{.policy = kPaper, .tree_id = c.tree_id,
                            .endpoints = c.endpoints, .faults = c.faults};
    const Instance inst = case_instance(base);
    const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.5);

    algo::FaultAwareGreedy greedy(0.5);
    SweepChecked checked(greedy, &greedy, greedy.greedy());
    const RunResult run =
        run_with(inst, speeds, base, checked, nullptr, &checked);
    // One check per arrival, plus one per re-dispatch under faults.
    if (c.faults) {
      EXPECT_GE(checked.checked(), inst.job_count());
    } else {
      EXPECT_EQ(checked.checked(), inst.job_count());
    }
    algo::FaultAwareGreedy plain(0.5);
    expect_same_run(run,
                    run_with(inst, speeds, base, plain, nullptr, &plain));
  }
}

// ---------------------------------------------------------------------------
// Deadline admission: the controller's root-child sweep must record exactly
// the minimum of single-query F over all leaves.
// ---------------------------------------------------------------------------

/// Decorates the deadline controller: before each decision it computes the
/// minimum of the single-query PaperGreedyPolicy::F over every leaf, and
/// after it checks that the new shed_log() entry carries that value bit for
/// bit, and SweepChecks the controller's sweep.
class UncachedFAdmissionCheck : public sim::AdmissionPolicy {
 public:
  explicit UncachedFAdmissionCheck(overload::AdmissionController& inner)
      : inner_(inner), sweep_check_(inner.greedy()) {}

  bool admit(sim::Engine& engine, const Job& job) override {
    double fmin = std::numeric_limits<double>::infinity();
    for (const NodeId leaf : engine.tree().leaves())
      fmin = std::min(fmin, algo::PaperGreedyPolicy::F(engine, job, leaf));
    const std::size_t before = engine.shed_log().size();
    const bool admitted = inner_.admit(engine, job);
    sweep_check_(engine, job);
    EXPECT_EQ(engine.shed_log().size(), before + 1) << "job " << job.id;
    if (engine.shed_log().size() == before + 1) {
      const sim::ShedRecord& rec = engine.shed_log().back();
      EXPECT_EQ(rec.job, job.id);
      EXPECT_EQ(rec.f, fmin) << "job " << job.id << " at t=" << engine.now();
      if (admitted)
        ++admits_;
      else
        ++rejects_;
    }
    return admitted;
  }
  const char* name() const override { return inner_.name(); }

  int admits() const { return admits_; }
  int rejects() const { return rejects_; }
  int sweeps_checked() const { return sweep_check_.checked(); }

 private:
  overload::AdmissionController& inner_;
  SweepCheck sweep_check_;
  int admits_ = 0;
  int rejects_ = 0;
};

TEST(DeadlineAdmission, RecordedFEqualsUncachedMinimumOverAllLeaves) {
  for (int tree_id = 0; tree_id < 3; ++tree_id) {
    for (const EndpointModel m :
         {EndpointModel::kIdentical, EndpointModel::kUnrelated}) {
      for (const bool faults : {false, true}) {
        SCOPED_TRACE(testing::Message() << "tree" << tree_id
                                        << (faults ? " faults" : ""));
        util::Rng rng(0xdeadU + static_cast<std::uint64_t>(tree_id));
        workload::WorkloadSpec spec;
        spec.jobs = 80;
        spec.load = 2.5;  // sustained overload: both verdicts occur
        spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
        spec.endpoints = m;
        const Instance inst =
            workload::generate(rng, case_tree(tree_id), spec);
        const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);

        sim::EngineConfig cfg;
        cfg.record_schedule = true;
        cfg.shed.policy = overload::ShedPolicy::kDeadline;
        cfg.shed.deadline_slack = 4.0;
        sim::Engine engine(inst, speeds, cfg);
        overload::AdmissionController controller(cfg.shed, 0.5);
        UncachedFAdmissionCheck check(controller);
        engine.set_admission(&check);
        test::QueryOracle oracle;
        engine.set_observer(&oracle);
        fault::FaultPlan plan;
        algo::FaultAwareGreedy redispatch(0.5);
        SweepChecked checked_redispatch(redispatch, &redispatch,
                                        redispatch.greedy());
        if (faults) {
          plan = case_fault_plan(inst.tree(), 7);
          engine.set_fault_plan(&plan, &checked_redispatch);
        }
        algo::PaperGreedyPolicy policy(0.5);
        SweepChecked checked(policy, nullptr, policy);
        engine.run(checked);

        EXPECT_GT(check.admits(), 0);
        EXPECT_GT(check.rejects(), 0);
        EXPECT_EQ(check.admits() + check.rejects(), inst.job_count());
        EXPECT_EQ(check.sweeps_checked(), inst.job_count());
        EXPECT_EQ(checked.checked(), check.admits());
        EXPECT_GT(oracle.answers_checked(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace treesched
