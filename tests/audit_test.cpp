// treesched_audit core: run-log round-trip, clean runs pass, and every
// seeded corruption is detected with a diagnostic naming the culprit.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/sim/runlog_segments.hpp"

namespace treesched {
namespace {

using sim::AuditOptions;
using sim::AuditReport;
using sim::EngineConfig;
using sim::RunLog;
using sim::Segment;

struct Baseline {
  Instance inst;
  SpeedProfile speeds;
  EngineConfig cfg;
  RunLog log;
};

Baseline make_baseline(double chunk_size = 0.0) {
  Instance inst(builders::star_of_paths(2, 2),
                {Job(0, 0.0, 2.0), Job(1, 1.0, 1.0), Job(2, 1.5, 3.0)},
                EndpointModel::kIdentical);
  SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);
  EngineConfig cfg;
  cfg.record_schedule = true;
  cfg.router_chunk_size = chunk_size;
  sim::Engine eng(inst, speeds, cfg);
  const auto& leaves = inst.tree().leaves();
  eng.run_with_assignment({leaves[0], leaves[0], leaves[1]});
  RunLog log =
      sim::make_run_log(inst, speeds, cfg, eng.recorder(), eng.metrics());
  return Baseline{std::move(inst), std::move(speeds), cfg, std::move(log)};
}

bool any_violation_contains(const AuditReport& rep, const std::string& needle) {
  for (const auto& v : rep.violations)
    if (v.find(needle) != std::string::npos) return true;
  return false;
}

TEST(RunLog, RoundTripIsExact) {
  Baseline b = make_baseline();
  std::stringstream ss;
  sim::write_run_log(ss, b.log);
  const RunLog back = sim::read_run_log(ss.str());
  EXPECT_EQ(back.node_policy, b.log.node_policy);
  EXPECT_EQ(back.router_chunk_size, b.log.router_chunk_size);
  EXPECT_EQ(back.speeds, b.log.speeds);
  EXPECT_EQ(back.paths, b.log.paths);
  EXPECT_EQ(back.completion, b.log.completion);
  ASSERT_EQ(back.segments.size(), b.log.segments.size());
  for (std::size_t i = 0; i < back.segments.size(); ++i) {
    EXPECT_EQ(back.segments[i].node, b.log.segments[i].node);
    EXPECT_EQ(back.segments[i].job, b.log.segments[i].job);
    EXPECT_EQ(back.segments[i].chunk, b.log.segments[i].chunk);
    // Bit-exact doubles: the writer uses full precision.
    EXPECT_EQ(back.segments[i].t0, b.log.segments[i].t0);
    EXPECT_EQ(back.segments[i].t1, b.log.segments[i].t1);
    EXPECT_EQ(back.segments[i].rate, b.log.segments[i].rate);
  }
}

TEST(RunLog, RejectsMalformedInput) {
  {
    std::istringstream ss("job 0 1.0 1 2\n");  // body before header
    EXPECT_THROW(sim::read_run_log(ss.str()), std::invalid_argument);
  }
  {
    std::istringstream ss("runlog 2\n");  // unknown version
    EXPECT_THROW(sim::read_run_log(ss.str()), std::invalid_argument);
  }
  {
    std::istringstream ss("runlog 1\nfrobnicate 3\n");  // unknown tag
    EXPECT_THROW(sim::read_run_log(ss.str()), std::invalid_argument);
  }
  {
    std::istringstream ss("runlog 1\nseg 0 0 0 1.0\n");  // truncated seg
    EXPECT_THROW(sim::read_run_log(ss.str()), std::invalid_argument);
  }
  {
    std::istringstream ss("");  // empty
    EXPECT_THROW(sim::read_run_log(ss.str()), std::invalid_argument);
  }
}

TEST(Audit, AcceptsGenuineRun) {
  Baseline b = make_baseline();
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  EXPECT_TRUE(rep.ok) << rep.summary();
  EXPECT_EQ(rep.jobs_checked, 3u);
  EXPECT_GT(rep.segments_checked, 0u);
}

TEST(Audit, AcceptsChunkedRun) {
  Baseline b = make_baseline(/*chunk_size=*/0.75);
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  EXPECT_TRUE(rep.ok) << rep.summary();
}

TEST(Audit, DetectsPrecedenceViolation) {
  Baseline b = make_baseline();
  const NodeId leaf = b.inst.tree().leaves()[0];
  for (Segment& s : b.log.segments)
    if (s.node == leaf && s.job == 0) {
      const double len = s.t1 - s.t0;
      s.t0 = 0.0;
      s.t1 = len;
    }
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "precedence violated"))
      << rep.summary();
  EXPECT_TRUE(any_violation_contains(rep, "job 0")) << rep.summary();
  EXPECT_TRUE(any_violation_contains(rep, "node " + std::to_string(leaf)))
      << rep.summary();
}

TEST(Audit, DetectsUnitCapacityViolation) {
  Baseline b = make_baseline();
  b.log.segments.push_back(b.log.segments.front());
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  ASSERT_FALSE(rep.ok);
  const Segment& twice = b.log.segments.front();
  EXPECT_TRUE(any_violation_contains(
      rep, "unit capacity violated on node " + std::to_string(twice.node) +
               ": job " + std::to_string(twice.job)))
      << rep.summary();
}

TEST(Audit, DetectsOffPathWork) {
  Baseline b = make_baseline();
  // Retarget one of job 0's router bursts to the other branch's router.
  const NodeId r0 = b.inst.tree().root_children()[0];
  const NodeId r1 = b.inst.tree().root_children()[1];
  for (Segment& s : b.log.segments)
    if (s.job == 0 && s.node == r0) {
      s.node = r1;
      break;
    }
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "not on its assigned path"))
      << rep.summary();
}

TEST(Audit, DetectsWrongClaimedCompletion) {
  Baseline b = make_baseline();
  b.log.completion[0] += 1.0;
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "claimed completion"))
      << rep.summary();
}

TEST(Audit, DetectsWrongRate) {
  Baseline b = make_baseline();
  b.log.segments.front().rate *= 2.0;
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "rate")) << rep.summary();
}

TEST(Audit, DetectsJobCountMismatch) {
  Baseline b = make_baseline();
  b.log.paths.pop_back();
  b.log.completion.pop_back();
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "covers")) << rep.summary();
}

TEST(Audit, DetectsSjfPriorityInversion) {
  // Hand-crafted feasible schedule that runs the LONG job first under SJF:
  // every feasibility check passes, only the discipline is wrong.
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 2.0), Job(1, 0.0, 1.0)},
                EndpointModel::kIdentical);
  const NodeId r = inst.tree().root_children()[0];
  const NodeId l = inst.tree().leaves()[0];
  RunLog log;
  log.node_policy = sim::NodePolicy::kSjf;
  log.speeds.assign(uidx(inst.tree().node_count()), 1.0);
  log.paths = {{r, l}, {r, l}};
  log.completion = {4.0, 5.0};
  log.segments = {
      {r, 0, 0, 0.0, 2.0, 1.0},
      {r, 1, 0, 2.0, 3.0, 1.0},
      {l, 0, sim::kLeafChunk, 2.0, 4.0, 1.0},
      {l, 1, sim::kLeafChunk, 4.0, 5.0, 1.0},
  };
  const AuditReport rep = sim::audit_run(inst, log);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "SJF priority violated"))
      << rep.summary();
  EXPECT_TRUE(any_violation_contains(rep, "job 1")) << rep.summary();

  // The same schedule is a perfectly legal FIFO run (job 0 queued first).
  log.node_policy = sim::NodePolicy::kFifo;
  const AuditReport fifo_rep = sim::audit_run(inst, log);
  EXPECT_TRUE(fifo_rep.ok) << fifo_rep.summary();
}

TEST(Audit, SrptSkipsPriorityCheckWithNote) {
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 1.0)},
                EndpointModel::kIdentical);
  SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);
  EngineConfig cfg;
  cfg.record_schedule = true;
  cfg.node_policy = sim::NodePolicy::kSrpt;
  sim::Engine eng(inst, speeds, cfg);
  eng.run_with_assignment({inst.tree().leaves()[0]});
  const RunLog log =
      sim::make_run_log(inst, speeds, cfg, eng.recorder(), eng.metrics());
  const AuditReport rep = sim::audit_run(inst, log);
  EXPECT_TRUE(rep.ok) << rep.summary();
  ASSERT_EQ(rep.notes.size(), 1u);
  EXPECT_NE(rep.notes[0].find("SRPT"), std::string::npos);
}

TEST(Audit, LemmaMarginsComputed) {
  Baseline b = make_baseline();
  AuditOptions opts;
  opts.eps = 0.5;
  const AuditReport rep = sim::audit_run(b.inst, b.log, opts);
  EXPECT_TRUE(rep.ok) << rep.summary();
  ASSERT_EQ(rep.lemma_rows.size(), 3u);
  // star_of_paths(2, 2): the second router on each branch and the leaf are
  // non-root-adjacent, so every job has an eligible lemma 2 node.
  for (const auto& row : rep.lemma_rows) {
    EXPECT_GE(row.lemma2_ratio, 0.0);
    EXPECT_NE(row.lemma2_node, kInvalidNode);
    EXPECT_GE(row.wait_ratio, 0.0);
  }
  EXPECT_GT(rep.lemma2_max_ratio, 0.0);
  EXPECT_FALSE(rep.lemma_table().empty());
}

TEST(Audit, StrictLemmasFlagsBlownBounds) {
  // With an absurdly large eps the bounds shrink below any real schedule's
  // margins, so --strict-lemmas must flag them.
  Baseline b = make_baseline();
  AuditOptions opts;
  opts.eps = 1000.0;
  opts.strict_lemmas = true;
  const AuditReport rep = sim::audit_run(b.inst, b.log, opts);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "lemma 2") ||
              any_violation_contains(rep, "interior-wait"))
      << rep.summary();
}

TEST(Audit, LemmaTableEmptyWithoutEps) {
  Baseline b = make_baseline();
  const AuditReport rep = sim::audit_run(b.inst, b.log);
  EXPECT_TRUE(rep.lemma_rows.empty());
  EXPECT_TRUE(rep.lemma_table().empty());
}

TEST(Audit, Lemma2TakesTheSupremumOverTheJobsStay) {
  // One branch: router 1 (root child), router 2 at speed 0.5, machine 3.
  // Job 0 (p=4) reaches router 2 at t=4 with volume 4 = ratio 0.5 of the
  // (2/eps) p_j = 8 bound. The smaller job 1 reaches router 2 at t=5.2,
  // while job 0 still has 4 - 1.2 * 0.5 = 3.4 left there: volume
  // 3.4 + 1 = 4.4, ratio 0.55. Evaluating only at job 0's own arrival
  // misses it.
  Instance inst(builders::star_of_paths(1, 2),
                {Job(0, 0.0, 4.0), Job(1, 4.2, 1.0)},
                EndpointModel::kIdentical);
  SpeedProfile speeds(inst.tree(), {0.0, 1.0, 0.5, 1.0});
  EngineConfig cfg;
  cfg.record_schedule = true;
  sim::Engine eng(inst, speeds, cfg);
  const NodeId leaf = inst.tree().leaves()[0];
  eng.run_with_assignment({leaf, leaf});
  AuditOptions opts;
  opts.eps = 1.0;
  const AuditReport rep =
      sim::audit_run(inst, sim::make_run_log(inst, eng), opts);
  EXPECT_TRUE(rep.ok) << rep.summary();
  ASSERT_EQ(rep.lemma_rows.size(), 2u);
  EXPECT_NEAR(rep.lemma_rows[0].lemma2_ratio, 0.55, 1e-12);
  EXPECT_EQ(rep.lemma_rows[0].lemma2_node, 2);
}

TEST(Audit, RejectsStrictLemmasWithoutAUsableEps) {
  Baseline b = make_baseline();
  for (const double eps : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    AuditOptions opts;
    opts.eps = eps;
    opts.strict_lemmas = true;
    EXPECT_THROW(sim::audit_run(b.inst, b.log, opts), std::invalid_argument)
        << "eps " << eps;
    opts.strict_lemmas = false;
    if (eps != 0.0) {
      EXPECT_THROW(sim::audit_run(b.inst, b.log, opts), std::invalid_argument)
          << "eps " << eps;
    }
  }
}

TEST(Audit, RejectsUnusableTolerance) {
  Baseline b = make_baseline();
  for (const double tol : {std::nan(""), -1.0, HUGE_VAL}) {
    AuditOptions opts;
    opts.tol = tol;
    EXPECT_THROW(sim::audit_run(b.inst, b.log, opts), std::invalid_argument)
        << "tol " << tol;
    sim::SegmentAuditOptions seg_opts;
    seg_opts.tol = tol;
    EXPECT_THROW(sim::audit_segments("unused.manifest", seg_opts),
                 std::invalid_argument)
        << "tol " << tol;
  }
}

// --- a table of recorded runs: corruptions and unusual clean shapes --------

/// A recorded run: the instance and the log the engine wrote for it.
struct Recorded {
  Instance inst;
  RunLog log;
};

/// j0 (size 2, r=0) and j1 (size 1, r=1) on one root -> router -> machine
/// branch.
Recorded two_jobs_one_branch() {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 2.0), Job(1, 1.0, 1.0)},
                EndpointModel::kIdentical);
  EngineConfig cfg;
  cfg.record_schedule = true;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  const NodeId leaf = inst.tree().leaves()[0];
  eng.run_with_assignment({leaf, leaf});
  RunLog log = sim::make_run_log(inst, eng);
  return {std::move(inst), std::move(log)};
}

// --- the single-branch corruptions the schedule validator was pinned by ----
// audit_run took over validate_schedule's checks; these keep its cases on
// the two-job, one-branch run.

TEST(Validator, AcceptsGenuineSchedule) {
  const Recorded r = two_jobs_one_branch();
  const AuditReport rep = sim::audit_run(r.inst, r.log);
  EXPECT_TRUE(rep.ok) << rep.summary();
  EXPECT_EQ(rep.jobs_checked, 2u);
}

TEST(Validator, DetectsOverlap) {
  Recorded r = two_jobs_one_branch();
  // Duplicate the first segment: the node now works on two items at once.
  r.log.segments.push_back(r.log.segments.front());
  const AuditReport rep = sim::audit_run(r.inst, r.log);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "unit capacity violated"))
      << rep.summary();
}

TEST(Validator, DetectsWrongRate) {
  Recorded r = two_jobs_one_branch();
  for (Segment& s : r.log.segments) s.rate *= 2.0;
  const AuditReport rep = sim::audit_run(r.inst, r.log);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "rate")) << rep.summary();
}

TEST(Validator, DetectsPrecedenceViolation) {
  Recorded r = two_jobs_one_branch();
  const NodeId leaf = r.inst.tree().leaves()[0];
  // Shift all machine work of job 0 to start at time 0, before the router
  // delivered its data.
  for (Segment& s : r.log.segments)
    if (s.node == leaf && s.job == 0) {
      const double len = s.t1 - s.t0;
      s.t0 = 0.0;
      s.t1 = len;
    }
  const AuditReport rep = sim::audit_run(r.inst, r.log);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "precedence violated"))
      << rep.summary();
}

TEST(Validator, DetectsWrongClaimedCompletion) {
  Recorded r = two_jobs_one_branch();
  r.log.completion[0] += 1.0;
  const AuditReport rep = sim::audit_run(r.inst, r.log);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "claimed completion"))
      << rep.summary();
}

TEST(Validator, PrecedenceErrorNamesJobAndNode) {
  Recorded r = two_jobs_one_branch();
  const NodeId leaf = r.inst.tree().leaves()[0];
  for (Segment& s : r.log.segments)
    if (s.node == leaf && s.job == 0) {
      const double len = s.t1 - s.t0;
      s.t0 = 0.0;
      s.t1 = len;
    }
  const AuditReport rep = sim::audit_run(r.inst, r.log);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, "job 0")) << rep.summary();
  EXPECT_TRUE(any_violation_contains(rep, "node " + std::to_string(leaf)))
      << rep.summary();
  EXPECT_TRUE(any_violation_contains(rep, "before data arrival"))
      << rep.summary();
}

TEST(Validator, UnitCapacityErrorNamesJobsAndNode) {
  Recorded r = two_jobs_one_branch();
  // Run job 1 on the router while job 0's burst is still in progress there.
  const NodeId router = r.inst.tree().root_children()[0];
  Segment clash;
  bool found = false;
  for (const Segment& s : r.log.segments)
    if (s.node == router && s.job == 0) {
      clash = s;
      found = true;
      break;
    }
  ASSERT_TRUE(found);
  clash.job = 1;
  r.log.segments.push_back(clash);
  const AuditReport rep = sim::audit_run(r.inst, r.log);
  ASSERT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(
      rep, "unit capacity violated on node " + std::to_string(router)))
      << rep.summary();
  EXPECT_TRUE(any_violation_contains(rep, "job 0")) << rep.summary();
  EXPECT_TRUE(any_violation_contains(rep, "job 1")) << rep.summary();
}

/// One job of the given size forwarded in unit chunks over `routers` routers.
Recorded chunked_branch(int routers, double size) {
  Instance inst(builders::star_of_paths(1, routers), {Job(0, 0.0, size)},
                EndpointModel::kIdentical);
  EngineConfig cfg;
  cfg.record_schedule = true;
  cfg.router_chunk_size = 1.0;
  sim::Engine eng(inst, SpeedProfile::uniform(inst.tree(), 1.0), cfg);
  eng.run_with_assignment({inst.tree().leaves()[0]});
  RunLog log = sim::make_run_log(inst, eng);
  return {std::move(inst), std::move(log)};
}

/// One job (size `size`) admitted on an explicit path (arbitrary-source
/// extension), recorded with the path-aware make_run_log.
Recorded via_path(Tree tree, double size,
                  const std::function<std::vector<NodeId>(const Tree&)>& path_of) {
  Instance inst(std::move(tree), {Job(0, 0.0, size)},
                EndpointModel::kIdentical);
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0);
  EngineConfig cfg;
  cfg.record_schedule = true;
  sim::Engine eng(inst, speeds, cfg);
  const std::vector<NodeId> path = path_of(inst.tree());
  eng.admit_via_path(0, path);
  eng.run_to_completion();
  RunLog log = sim::make_run_log(inst, speeds, cfg, eng.recorder(),
                                 eng.metrics(), {path});
  return {std::move(inst), std::move(log)};
}

/// Shifts every matching segment to start at `t0`, keeping its length.
void shift_segments(RunLog& log, const std::function<bool(const Segment&)>& match,
                    double t0) {
  for (Segment& s : log.segments)
    if (match(s)) {
      s.t1 = t0 + (s.t1 - s.t0);
      s.t0 = t0;
    }
}

struct AuditRow {
  const char* name;
  std::function<Recorded()> record;
  std::function<void(Recorded&)> corrupt;  ///< empty: the run audits clean
  const char* message;                     ///< expected violation substring
};

void PrintTo(const AuditRow& row, std::ostream* os) { *os << row.name; }

const std::vector<AuditRow>& audit_rows() {
  static const std::vector<AuditRow> rows = {
      {"MissingWork", two_jobs_one_branch,
       [](Recorded& r) {
         // Drop job 0's machine bursts.
         const NodeId leaf = r.inst.tree().leaves()[0];
         std::erase_if(r.log.segments, [&](const Segment& s) {
           return s.job == 0 && s.node == leaf;
         });
       },
       "job 0 never ran on its machine"},
      {"RunBeforeRelease", two_jobs_one_branch,
       [](Recorded& r) {
         const NodeId router = r.inst.tree().root_children()[0];
         shift_segments(
             r.log,
             [&](const Segment& s) { return s.job == 1 && s.node == router; },
             0.25);
       },
       "before its release"},
      {"UnfinishedJob", two_jobs_one_branch,
       [](Recorded& r) { r.log.completion[1] = -1.0; },
       "job 1 never completed"},
      {"MissingChunk", [] { return chunked_branch(2, 2.0); },
       [](Recorded& r) {
         const NodeId r1 = r.inst.tree().root_children()[0];
         std::erase_if(r.log.segments, [&](const Segment& s) {
           return s.node == r1 && s.chunk == 1;
         });
       },
       "chunk 1 never ran on node"},
      {"ChunkPrecedence", [] { return chunked_branch(2, 2.0); },
       [](Recorded& r) {
         // Chunk 0 leaves the second router before the first produced it.
         const NodeId r2 = r.inst.tree().path_to(r.inst.tree().leaves()[0])[1];
         shift_segments(
             r.log,
             [&](const Segment& s) { return s.node == r2 && s.chunk == 0; },
             0.0);
       },
       "precedence violated: job 0 chunk 0"},
      {"WrongPathEndpoint",
       [] {
         return via_path(builders::star_of_paths(2, 1), 1.0, [](const Tree& t) {
           return t.path_to(t.leaves()[0]);
         });
       },
       [](Recorded& r) {
         // Claim the job ran on the other machine's path.
         const auto& wrong = r.inst.tree().path_to(r.inst.tree().leaves()[1]);
         r.log.paths[0].assign(wrong.begin(), wrong.end());
       },
       "not on its assigned path"},
      {"MachineBornSingleNodePath",
       [] {
         return via_path(builders::star_of_paths(1, 1), 2.0,
                         [](const Tree& t) {
                           return std::vector<NodeId>{t.leaves()[0]};
                         });
       },
       {}, nullptr},
      {"UpAndOverPath",
       [] {
         return via_path(builders::star_of_paths(2, 2), 1.0, [](const Tree& t) {
           return t.path_between(t.leaves()[0], t.leaves()[1]);
         });
       },
       {}, nullptr},
      {"ChunkedSchedule", [] { return chunked_branch(3, 3.0); }, {}, nullptr},
  };
  return rows;
}

class AuditTable : public ::testing::TestWithParam<AuditRow> {};

TEST_P(AuditTable, Verdict) {
  const AuditRow& row = GetParam();
  Recorded r = row.record();
  const AuditReport clean = sim::audit_run(r.inst, r.log);
  ASSERT_TRUE(clean.ok) << clean.summary();
  if (!row.corrupt) return;
  row.corrupt(r);
  const AuditReport rep = sim::audit_run(r.inst, r.log);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(any_violation_contains(rep, row.message)) << rep.summary();
}

INSTANTIATE_TEST_SUITE_P(RecordedRuns, AuditTable,
                         ::testing::ValuesIn(audit_rows()),
                         [](const ::testing::TestParamInfo<AuditRow>& row) {
                           return std::string(row.param.name);
                         });

}  // namespace
}  // namespace treesched
