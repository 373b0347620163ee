// Engine snapshot/restore (save_state / load_state): a run resumed from a
// mid-run snapshot must finish byte-identically to one that never stopped —
// including under the per-event query oracle (the dispatch indices rebuilt
// by load_state answer like a rescan of Q_v) and window extension
// (restoring into an instance with more jobs).
#include <gtest/gtest.h>

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
  std::ostringstream os;
  engine.metrics().save(os);
  return os.str();
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
  std::ostringstream snap;
  cont.save_state(snap);

  // The uninterrupted engine finishes...
  admit_range(cont, pa, inst, 80, jobs.size());
  cont.run_to_completion();

  // ...and the restored one must match it byte for byte.
  sim::Engine resumed(inst, speeds, sim::EngineConfig{});
  std::istringstream in(snap.str());
  resumed.load_state(in);
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
  std::ostringstream snap;
  orig.save_state(snap);
  sim::Engine restored(inst, speeds, sim::EngineConfig{});
  std::istringstream in(snap.str());
  restored.load_state(in);

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
  std::ostringstream snap;
  fast.save_state(snap);
  admit_range(fast, pa, inst, 60, jobs.size());
  fast.run_to_completion();

  // Restored, then continued under the per-event query oracle: every
  // aggregate the rebuilt indices answer must match a rescan of Q_v, and
  // the bits of the finished run cannot move.
  sim::Engine resumed(inst, speeds, sim::EngineConfig{});
  std::istringstream in(snap.str());
  resumed.load_state(in);
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
  std::ostringstream snap;
  window.save_state(snap);

  // Reference: the big instance run end to end, no snapshot.
  sim::Engine ref(big_inst, speeds, sim::EngineConfig{});
  admit_range(ref, pa, big_inst, 0, jobs.size());
  ref.run_to_completion();

  // Extension: restore the 100-job state into the 150-job instance (the
  // extra jobs are untouched in the snapshot), then admit the remainder.
  sim::Engine extended(big_inst, speeds, sim::EngineConfig{});
  std::istringstream in(snap.str());
  extended.load_state(in);
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
  std::ostringstream snap;
  a.save_state(snap);

  sim::Engine dirty(inst, speeds, sim::EngineConfig{});
  admit_range(dirty, policy, inst, 0, 1);
  std::istringstream in(snap.str());
  EXPECT_THROW(dirty.load_state(in), std::invalid_argument);
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
  std::ostringstream os;
  acc.save(os);
  sim::StreamAccumulator back;
  std::istringstream is(os.str());
  back.load(is);

  std::ostringstream a2, b2;
  acc.save(a2);
  back.save(b2);
  EXPECT_EQ(b2.str(), a2.str());

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
