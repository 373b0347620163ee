// Engine snapshot/restore (save_state / load_state): a run resumed from a
// mid-run snapshot must finish byte-identically to one that never stopped —
// including under the per-event query oracle (the dispatch indices rebuilt
// by load_state answer like a rescan of Q_v) and window extension
// (restoring into an instance with more jobs, or Engine::extend in place).
// Snapshots carry live jobs only: retired jobs are a status letter.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/util/rng.hpp"
#include "treesched/workload/stream.hpp"
#include "support/query_oracle.hpp"

using namespace treesched;

namespace {

std::shared_ptr<const Tree> test_tree() {
  return std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
}

std::vector<Job> stream_jobs(std::size_t n, std::uint64_t seed) {
  workload::StreamSpec spec;
  spec.seed = seed;
  spec.lambda = 0.4;
  workload::JobStream stream(spec);
  workload::StreamCursor cur;
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const workload::StreamJob a = stream.next(cur);
    jobs.emplace_back(static_cast<JobId>(i), a.release, a.size);
  }
  return jobs;
}

/// Admits jobs [from, to) through the policy, exactly as Engine::run does.
void admit_range(sim::Engine& engine, sim::AssignmentPolicy& policy,
                 const Instance& inst, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const Job& job = inst.jobs()[i];
    engine.advance_to(job.release);
    engine.admit(job.id, policy.assign(engine, job));
  }
}

std::string metrics_bytes(const sim::Engine& engine) {
  std::string out;
  engine.metrics().save(out);
  return out;
}

std::string state_bytes(const sim::Engine& engine) {
  std::string out;
  engine.save_state(out);
  return out;
}

/// Drives a streaming-mode engine over the first `upto` arrivals with every
/// retirement kind: every 7th arrival is rejected, and every 5th admitted
/// job still unfinished when its successor arrives is shed.
void drive_with_retirements(sim::Engine& engine, sim::AssignmentPolicy& policy,
                            const Instance& inst, std::size_t upto) {
  for (std::size_t i = 0; i < upto; ++i) {
    const Job& job = inst.jobs()[i];
    engine.advance_to(job.release);
    if (i % 5 == 1 && engine.admitted(job.id - 1) &&
        !engine.completed(job.id - 1) && !engine.job_shed(job.id - 1))
      engine.shed(job.id - 1);
    if (i % 7 == 3)
      engine.reject(job.id);
    else
      engine.admit(job.id, policy.assign(engine, job));
  }
}

}  // namespace

TEST(SimSnapshotTest, MidRunRestoreFinishesByteIdentically) {
  auto tree = test_tree();
  const auto jobs = stream_jobs(160, 0xabc);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy pa(0.5), pb(0.5);
  sim::Engine cont(inst, speeds, sim::EngineConfig{});

  // Run to a mid-stream point (half the arrivals admitted, clock advanced
  // into the backlog) and snapshot.
  admit_range(cont, pa, inst, 0, 80);
  cont.advance_to(inst.jobs()[80].release * 0.999);
  std::string snap;
  cont.save_state(snap);

  // The uninterrupted engine finishes...
  admit_range(cont, pa, inst, 80, jobs.size());
  cont.run_to_completion();

  // ...and the restored one must match it byte for byte.
  sim::Engine resumed(inst, speeds, sim::EngineConfig{});
  resumed.load_state(snap);
  EXPECT_DOUBLE_EQ(resumed.now(), inst.jobs()[80].release * 0.999);
  admit_range(resumed, pb, inst, 80, jobs.size());
  resumed.run_to_completion();

  EXPECT_EQ(metrics_bytes(resumed), metrics_bytes(cont));
  EXPECT_EQ(resumed.metrics().total_flow_time(), cont.metrics().total_flow_time());
  EXPECT_EQ(resumed.metrics().makespan(), cont.metrics().makespan());
}

TEST(SimSnapshotTest, RestoredEngineAnswersPrioritySplitExactly) {
  // Snapshot mid-burst (the clock sits between events, so running items
  // have drained since their burst start) and compare the restored engine
  // with the original at the same instant: the fused Lemma-4 query must
  // agree bit for bit on every node, for every job size as the candidate.
  // This pins the running item's key, which load_state re-derives.
  auto tree = test_tree();
  const auto jobs = stream_jobs(120, 0x5eed);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine orig(inst, speeds, sim::EngineConfig{});
  admit_range(orig, policy, inst, 0, 70);
  orig.advance_to((inst.jobs()[69].release + inst.jobs()[70].release) / 2.0);
  std::string snap;
  orig.save_state(snap);
  sim::Engine restored(inst, speeds, sim::EngineConfig{});
  restored.load_state(snap);

  std::size_t compared = 0;
  for (NodeId v = 0; v < tree->node_count(); ++v) {
    if (v == tree->root()) continue;
    for (const Job& cand : inst.jobs()) {
      const double p = orig.size_on(cand.id, v);
      const sim::Engine::PrioritySplit a =
          orig.priority_split(v, p, cand.release, cand.id);
      const sim::Engine::PrioritySplit b =
          restored.priority_split(v, p, cand.release, cand.id);
      EXPECT_EQ(b.higher_remaining, a.higher_remaining)
          << "node " << v << " candidate " << cand.id;
      EXPECT_EQ(b.larger, a.larger) << "node " << v << " candidate " << cand.id;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(SimSnapshotTest, RestoreThenContinueUnderQueryOracle) {
  auto tree = test_tree();
  const auto jobs = stream_jobs(120, 0x77);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy pa(0.5), pb(0.5);

  sim::Engine fast(inst, speeds, sim::EngineConfig{});
  admit_range(fast, pa, inst, 0, 60);
  std::string snap;
  fast.save_state(snap);
  admit_range(fast, pa, inst, 60, jobs.size());
  fast.run_to_completion();

  // Restored, then continued under the per-event query oracle: every
  // aggregate the rebuilt indices answer must match a rescan of Q_v, and
  // the bits of the finished run cannot move.
  sim::Engine resumed(inst, speeds, sim::EngineConfig{});
  resumed.load_state(snap);
  test::QueryOracle oracle;
  oracle.check(resumed, resumed.now());
  resumed.set_observer(&oracle);
  admit_range(resumed, pb, inst, 60, jobs.size());
  resumed.run_to_completion();

  EXPECT_GT(oracle.answers_checked(), 0u);
  EXPECT_EQ(metrics_bytes(resumed), metrics_bytes(fast));
}

TEST(SimSnapshotTest, RestoreIntoExtendedInstance) {
  auto tree = test_tree();
  const auto jobs = stream_jobs(150, 0x99);  // one stream, two prefixes
  const std::vector<Job> small(jobs.begin(), jobs.begin() + 100);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance small_inst(tree, small, EndpointModel::kIdentical);
  const Instance big_inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy pa(0.5), pb(0.5);

  // Window engine over the first 100 arrivals, snapshotted mid-flight.
  sim::Engine window(small_inst, speeds, sim::EngineConfig{});
  admit_range(window, pa, small_inst, 0, 100);
  std::string snap;
  window.save_state(snap);

  // Reference: the big instance run end to end, no snapshot.
  sim::Engine ref(big_inst, speeds, sim::EngineConfig{});
  admit_range(ref, pa, big_inst, 0, jobs.size());
  ref.run_to_completion();

  // Extension: restore the 100-job state into the 150-job instance (the
  // extra jobs are untouched in the snapshot), then admit the remainder.
  sim::Engine extended(big_inst, speeds, sim::EngineConfig{});
  extended.load_state(snap);
  admit_range(extended, pb, big_inst, 100, jobs.size());
  extended.run_to_completion();

  EXPECT_EQ(metrics_bytes(extended), metrics_bytes(ref));
}

TEST(SimSnapshotTest, LoadRequiresPristineEngine) {
  auto tree = test_tree();
  const auto jobs = stream_jobs(10, 0x5);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy policy(0.5);

  sim::Engine a(inst, speeds, sim::EngineConfig{});
  admit_range(a, policy, inst, 0, 5);
  std::string snap;
  a.save_state(snap);

  sim::Engine dirty(inst, speeds, sim::EngineConfig{});
  admit_range(dirty, policy, inst, 0, 1);
  EXPECT_THROW(dirty.load_state(snap), std::invalid_argument);
}

TEST(SimSnapshotTest, StreamAccumulatorRoundTripContinuesIdentically) {
  sim::StreamAccumulator acc;
  treesched::util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    sim::JobRecord r;
    r.id = i;
    r.release = i * 0.25;
    r.size = 1.0 + rng.uniform01() * 9.0;
    r.leaf = 5;
    r.completion = r.release + r.size * (1.0 + rng.uniform01());
    r.fractional_area = r.size * 0.5;
    acc.fold(r);
  }
  std::string bytes;
  acc.save(bytes);
  sim::StreamAccumulator back;
  util::Fields fields(bytes);
  back.load(fields);

  std::string a2, b2;
  acc.save(a2);
  back.save(b2);
  EXPECT_EQ(b2, a2);

  sim::JobRecord more;
  more.id = 500;
  more.release = 1.0;
  more.size = 2.0;
  more.leaf = 5;
  more.completion = 10.0;
  acc.fold(more);
  back.fold(more);
  EXPECT_EQ(acc.flow.sum(), back.flow.sum());
  EXPECT_EQ(acc.flow.compensation(), back.flow.compensation());
  EXPECT_EQ(acc.flow_digest.count(), back.flow_digest.count());
}

TEST(SimSnapshotTest, SnapshotCarriesLiveJobsOnly) {
  // A streaming window with done, shed, rejected, live and untouched jobs:
  // only the live ones get a `job` line or a `jr` record; the status chart
  // alone carries the others.
  auto tree = test_tree();
  const auto jobs = stream_jobs(200, 0x11fe);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine engine(inst, speeds, sim::EngineConfig{});
  engine.metrics().enable_streaming();
  drive_with_retirements(engine, policy, inst, 150);
  const std::string snap = state_bytes(engine);

  std::istringstream in(snap);
  std::string line, status;
  std::size_t job_lines = 0;
  std::vector<JobId> records;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "status") {
      std::size_t n = 0;
      ls >> n >> status;
    } else if (tag == "job") {
      ++job_lines;
    } else if (tag == "jr") {
      JobId id = kInvalidJob;
      ls >> id;
      records.push_back(id);
    }
  }
  ASSERT_EQ(status.size(), jobs.size());
  for (const char kind : {'.', 'R', 'L', 'D', 'S'})
    EXPECT_NE(status.find(kind), std::string::npos) << "no '" << kind << "'";
  const auto live = static_cast<std::size_t>(
      std::count(status.begin(), status.end(), 'L'));
  EXPECT_EQ(job_lines, live);
  EXPECT_EQ(records.size(), live);
  for (const JobId id : records)
    EXPECT_EQ(status[uidx(id)], 'L') << "record for retired job " << id;
}

TEST(SimSnapshotTest, SaveLoadSaveIsByteIdentical) {
  auto tree = test_tree();
  const auto jobs = stream_jobs(200, 0x22fe);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy pa(0.5), pb(0.5);
  sim::Engine orig(inst, speeds, sim::EngineConfig{});
  orig.metrics().enable_streaming();
  drive_with_retirements(orig, pa, inst, 120);
  orig.advance_to((inst.jobs()[119].release + inst.jobs()[120].release) / 2.0);
  const std::string first = state_bytes(orig);

  sim::Engine restored(inst, speeds, sim::EngineConfig{});
  restored.load_state(first);
  EXPECT_EQ(state_bytes(restored), first);
  for (const Job& job : inst.jobs()) {
    EXPECT_EQ(restored.metrics().job(job.id).finalized,
              orig.metrics().job(job.id).finalized)
        << "job " << job.id;
    EXPECT_EQ(restored.admitted(job.id), orig.admitted(job.id));
    EXPECT_EQ(restored.completed(job.id), orig.completed(job.id));
    EXPECT_EQ(restored.job_shed(job.id), orig.job_shed(job.id));
    EXPECT_EQ(restored.job_rejected(job.id), orig.job_rejected(job.id));
  }

  // Both continue identically: the retired jobs' flags and finalized
  // records came back from the chart alone.
  for (std::size_t i = 120; i < jobs.size(); ++i) {
    const Job& job = inst.jobs()[i];
    orig.advance_to(job.release);
    orig.admit(job.id, pa.assign(orig, job));
    restored.advance_to(job.release);
    restored.admit(job.id, pb.assign(restored, job));
  }
  orig.run_to_completion();
  restored.run_to_completion();
  EXPECT_EQ(state_bytes(restored), state_bytes(orig));
  EXPECT_EQ(restored.metrics().total_fractional_flow_time(),
            orig.metrics().total_fractional_flow_time());
  EXPECT_EQ(restored.metrics().admitted_count(),
            orig.metrics().admitted_count());
}

TEST(SimSnapshotTest, ExtendInPlaceMatchesRestoreAndMonolithicRun) {
  auto tree = test_tree();
  const auto jobs = stream_jobs(150, 0x99);  // one stream, two prefixes
  const std::vector<Job> small(jobs.begin(), jobs.begin() + 100);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance small_inst(tree, small, EndpointModel::kIdentical);
  const Instance big_inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy pa(0.5), pb(0.5), pc(0.5);

  // Reference: the big instance run end to end.
  sim::Engine ref(big_inst, speeds, sim::EngineConfig{});
  admit_range(ref, pa, big_inst, 0, jobs.size());
  ref.run_to_completion();

  // The text path: snapshot the 100-job window, load into the big instance.
  sim::Engine window(small_inst, speeds, sim::EngineConfig{});
  admit_range(window, pb, small_inst, 0, 100);
  sim::Engine loaded(big_inst, speeds, sim::EngineConfig{});
  loaded.load_state(state_bytes(window));
  admit_range(loaded, pb, big_inst, 100, jobs.size());
  loaded.run_to_completion();

  // In place: the same window engine grows to the big instance mid-run and
  // continues under the per-event query oracle.
  sim::Engine grown(small_inst, speeds, sim::EngineConfig{});
  admit_range(grown, pc, small_inst, 0, 100);
  const std::uint64_t serial = grown.serial();
  grown.extend(big_inst);
  EXPECT_EQ(grown.serial(), serial);
  EXPECT_EQ(&grown.instance(), &big_inst);
  test::QueryOracle oracle;
  oracle.check(grown, grown.now());
  grown.set_observer(&oracle);
  admit_range(grown, pc, big_inst, 100, jobs.size());
  grown.run_to_completion();

  EXPECT_GT(oracle.answers_checked(), 0u);
  EXPECT_EQ(metrics_bytes(grown), metrics_bytes(ref));
  EXPECT_EQ(metrics_bytes(grown), metrics_bytes(loaded));
  EXPECT_EQ(grown.metrics().total_flow_time(), ref.metrics().total_flow_time());

  // Extension keeps the tree and never shrinks.
  const Instance other_tree(test_tree(), jobs, EndpointModel::kIdentical);
  sim::Engine e(small_inst, speeds, sim::EngineConfig{});
  EXPECT_THROW(e.extend(other_tree), std::invalid_argument);
  sim::Engine f(big_inst, speeds, sim::EngineConfig{});
  EXPECT_THROW(f.extend(small_inst), std::invalid_argument);
}

TEST(SimSnapshotTest, LoadRejectsOlderEngineStateVersion) {
  auto tree = test_tree();
  const auto jobs = stream_jobs(20, 0x3);
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const Instance inst(tree, jobs, EndpointModel::kIdentical);
  algo::PaperGreedyPolicy policy(0.5);
  sim::Engine a(inst, speeds, sim::EngineConfig{});
  admit_range(a, policy, inst, 0, 10);
  std::string snap = state_bytes(a);
  ASSERT_EQ(snap.rfind("enginestate 3\n", 0), 0u);
  snap[12] = '2';  // a v2 blob (one line per touched job) is not readable
  sim::Engine b(inst, speeds, sim::EngineConfig{});
  EXPECT_THROW(b.load_state(snap), std::invalid_argument);
}
