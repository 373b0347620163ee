// Empirical verification of the structural lemmas (1, 2, 3/phi, 4). The
// Lemma 1/2 margins come from the offline audit (sim::audit_run), the one
// evaluator of those bounds; Phi and the per-event Lemma 2 sampler are
// test-local references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/workload/adversarial.hpp"
#include "treesched/workload/generator.hpp"

namespace treesched {
namespace {

/// Runs the paper's greedy rule with the schedule recorded and returns the
/// audit's lemma margins for the run; the schedule itself must audit clean.
sim::AuditReport audited_run(const Instance& inst, const SpeedProfile& speeds,
                             double eps, double chunk = 0.0,
                             sim::EngineObserver* observer = nullptr) {
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  cfg.router_chunk_size = chunk;
  algo::PaperGreedyPolicy policy(eps);
  sim::Engine engine(inst, speeds, cfg);
  engine.set_observer(observer);
  engine.run(policy);
  sim::AuditOptions opts;
  opts.eps = eps;
  sim::AuditReport rep =
      sim::audit_run(inst, sim::make_run_log(inst, engine), opts);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? std::string()
                                                 : rep.violations.front());
  return rep;
}

/// Rows that have the given ratio (Lemma 2 or interior wait), and those
/// of them above 1.
struct RowCount {
  long measured = 0;
  long violating = 0;
};

RowCount count_rows(const sim::AuditReport& rep,
                    double sim::LemmaRow::*ratio) {
  RowCount c;
  for (const sim::LemmaRow& row : rep.lemma_rows) {
    if (row.*ratio < 0.0) continue;
    ++c.measured;
    if (row.*ratio > 1.0 + 1e-9) ++c.violating;
  }
  return c;
}

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
  const sim::AuditReport rep = audited_run(inst, speeds, c.eps);

  const RowCount rows = count_rows(rep, &sim::LemmaRow::lemma2_ratio);
  EXPECT_GT(rows.measured, 0);
  EXPECT_EQ(rows.violating, 0) << "max ratio " << rep.lemma2_max_ratio;
  EXPECT_LE(rep.lemma2_max_ratio, 1.0 + 1e-9);
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
  const sim::AuditReport rep = audited_run(inst, speeds, c.eps);

  const RowCount rows = count_rows(rep, &sim::LemmaRow::wait_ratio);
  EXPECT_GT(rows.measured, 0);
  EXPECT_EQ(rows.violating, 0) << "max ratio " << rep.wait_max_ratio;
  EXPECT_LE(rep.wait_max_ratio, 1.0 + 1e-9);
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
  // audit must say so — proving the zero-violation results above are a
  // property of the algorithm, not of a toothless evaluator.
  const double eps = 0.5;
  const Instance inst = workload::class_cascade(10, 6, eps);
  const Tree& tree = inst.tree();
  std::vector<double> speeds(uidx(tree.node_count()), 0.25);  // slow interior
  speeds[uidx(tree.root())] = 0.0;
  for (const NodeId rc : tree.root_children()) speeds[uidx(rc)] = 4.0;  // fast feed
  const SpeedProfile profile(tree, std::move(speeds));

  const sim::AuditReport rep = audited_run(inst, profile, eps);
  EXPECT_GT(count_rows(rep, &sim::LemmaRow::lemma2_ratio).violating, 0)
      << "inverted speeds should overfill interior queues (max ratio "
      << rep.lemma2_max_ratio << ")";
}

TEST(Lemma2, ClassCascadeStressStaysBounded) {
  const double eps = 0.5;
  const Instance inst = workload::class_cascade(8, 4, eps);
  const SpeedProfile speeds =
      SpeedProfile::layered(inst.tree(), 1.0, 1.0 + eps);
  const sim::AuditReport rep = audited_run(inst, speeds, eps);
  EXPECT_EQ(count_rows(rep, &sim::LemmaRow::lemma2_ratio).violating, 0)
      << "max ratio " << rep.lemma2_max_ratio;
}

/// Lemma 2's volume, sampled the way a live monitor would: after every
/// completion event, for every eligible node v and every job j in Q_v, the
/// remaining work on v of available members of S_{v,j} (j included),
/// kept as a per-job maximum ratio to (2/eps) p_{j,v}. The audit's rows
/// take the supremum over each job's stay, so they must dominate it.
class Lemma2EventSampler : public sim::EngineObserver {
 public:
  Lemma2EventSampler(double eps, JobId jobs)
      : eps_(eps), worst_(uidx(jobs), -1.0) {}

  void on_event(const sim::Engine& engine, Time /*t*/) override {
    const Tree& tree = engine.tree();
    const bool leaf_identical =
        engine.instance().model() == EndpointModel::kIdentical;
    for (NodeId v = 0; v < tree.node_count(); ++v) {
      if (tree.is_root(v) || tree.parent(v) == tree.root()) continue;
      if (tree.is_leaf(v) && !leaf_identical) continue;
      const std::vector<JobId> queue = engine.inflight_at(v);
      for (const JobId j : queue) {
        const double p_j = engine.size_on(j, v);
        const Time r_j = engine.instance().job(j).release;
        double vol = 0.0;
        for (const JobId i : queue) {
          if (!engine.available_on(i, v)) continue;
          const double p_i = engine.size_on(i, v);
          const Time r_i = engine.instance().job(i).release;
          if (std::tie(p_i, r_i, i) <= std::tie(p_j, r_j, j))
            vol += engine.remaining_on(i, v);
        }
        double& w = worst_[uidx(j)];
        w = std::max(w, vol / (2.0 / eps_ * p_j));
      }
    }
  }

  const std::vector<double>& worst() const { return worst_; }

 private:
  double eps_;
  std::vector<double> worst_;
};

TEST(Lemma2, AuditDominatesEveryCompletionEventSample) {
  // Trees x eps x load x forwarding (whole jobs, chunks of 3) x endpoint
  // model. Domination must hold in every cell: both sides measure the same
  // volume, the audit at every instant of each job's stay.
  const Tree trees[] = {builders::star_of_paths(2, 3),
                        builders::fat_tree(2, 2, 2),
                        builders::caterpillar(2, 3, 2)};
  long cells = 0, jobs_compared = 0;
  for (std::size_t t = 0; t < std::size(trees); ++t)
    for (const double eps : {1.0, 0.5, 0.25})
      for (const double load : {0.6, 1.2})
        for (const double chunk : {0.0, 3.0})
          for (const EndpointModel model :
               {EndpointModel::kIdentical, EndpointModel::kUnrelated}) {
            util::Rng rng(1000 + static_cast<std::uint64_t>(cells));
            workload::WorkloadSpec spec;
            spec.jobs = 50;
            spec.load = load;
            spec.sizes.class_eps = eps;
            spec.endpoints = model;
            const Instance inst = workload::generate(rng, trees[t], spec);
            const SpeedProfile speeds =
                SpeedProfile::layered(inst.tree(), 1.0, 1.0 + eps);
            Lemma2EventSampler sampler(eps, inst.job_count());
            const sim::AuditReport rep =
                audited_run(inst, speeds, eps, chunk, &sampler);
            const std::string cell =
                "tree " + std::to_string(t) + " eps " + std::to_string(eps) +
                " load " + std::to_string(load) + " chunk " +
                std::to_string(chunk) + " model " +
                std::to_string(static_cast<int>(model));
            ASSERT_EQ(rep.lemma_rows.size(), uidx(inst.job_count())) << cell;
            for (const sim::LemmaRow& row : rep.lemma_rows) {
              const double sampled = sampler.worst()[uidx(row.job)];
              if (sampled < 0.0) continue;  // never queued at an eligible node
              ++jobs_compared;
              EXPECT_LE(sampled, row.lemma2_ratio * (1.0 + 1e-9))
                  << cell << ": job " << row.job << " audit "
                  << row.lemma2_ratio << " < sampled " << sampled;
            }
            ++cells;
          }
  EXPECT_EQ(cells, 72);
  EXPECT_GT(jobs_compared, 0);
}

/// Phi_j(t) of Lemma 3: an upper bound on the remaining time until job j
/// clears its remaining identical nodes, assuming no further arrivals.
///
///   Phi_j(t) = (1/s) max_{v in P_j(t)} [ sum_{i in S_{v,j}} p^A_{i,v}(t)
///                                        + (2/eps)(d_j - d_{v,j}) p_j ]
///
/// `s` is the speed of the non-root-adjacent nodes (the lemma's premise).
/// P_j(t) excludes the leaf in the unrelated model.
double phi(const sim::Engine& engine, JobId j, double eps, double s) {
  const Tree& tree = engine.tree();
  const auto& path = tree.path_to(engine.assigned_leaf(j));
  const int len = static_cast<int>(path.size());
  const bool leaf_identical =
      engine.instance().model() == EndpointModel::kIdentical;
  const int last_idx = leaf_identical ? len - 1 : len - 2;
  const double p_j = engine.instance().job(j).size;
  const Time r_j = engine.instance().job(j).release;
  double best = 0.0;
  for (int idx = engine.current_path_index(j); idx <= last_idx; ++idx) {
    const NodeId v = path[uidx(idx)];
    const double vol =
        engine.higher_priority_remaining(v, engine.size_on(j, v), r_j, j) +
        engine.remaining_on(j, v);
    // (d_j - d_{v,j}): the nodes strictly below v that j still needs.
    const double below = static_cast<double>(len - 1 - idx);
    best = std::max(best, vol + 2.0 / eps * below * p_j);
  }
  return best / s;
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
      bound[uidx(job.id)] = phi(engine, job.id, eps, s);
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
