// Per-event shadow check of the engine's aggregate queries.
//
// The engine answers the five per-node aggregates the Lemma-4 greedy and
// the overload controller read (higher_priority_remaining, count_larger,
// larger_residual_fraction, alpha_leaf, pending_remaining) from incremental
// dispatch indices. QueryOracle is an EngineObserver that, after every
// processed event and every admission, rescans Q_v at every non-root node
// through the public size_on / remaining_on accessors and compares the
// naive values with the engine's answers, using each queued job as the
// candidate. count_larger must match exactly; the four sums must match
// within kRelTol * max(1, |naive|) — the index associates its float
// additions differently from a left-to-right rescan, so the two differ by
// a few ulps.
//
// Q_v comes from per-job state, never from the index under test (which is
// also what Engine::inflight_at reads): job j is in Q_v iff it is admitted,
// neither completed nor shed, and v sits at path index >= its
// current_path_index. engine.queue_size(v) must equal that count exactly.
// Paths are tree().path_to(assigned_leaf(j)), so the oracle shadows runs of
// root-dispatched jobs (admit / run), not admit_via_path.
//
// The fused priority_split query is shadowed for the same candidates plus
// one foreign candidate per node smaller than every queued job (the index's
// no-descent case): its two parts must equal higher_priority_remaining and
// count_larger bit for bit, which makes them match the rescan like those.
//
// The first mismatch fails the running test, naming the event time, node,
// query, candidate, naive value and engine value: the first divergent query
// and event, not just a differing end result.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "treesched/sim/engine.hpp"

namespace treesched::test {

class QueryOracle : public sim::EngineObserver {
 public:
  /// Relative tolerance of the four floating-point sums.
  static constexpr double kRelTol = 1e-12;

  /// Compares one engine answer with its naive rescan. Returns "" on a
  /// match, else the failure message. `exact` demands equality (counts);
  /// otherwise |engine_value - naive| <= kRelTol * max(1, |naive|).
  /// `cand` is kInvalidJob for the candidate-free queries.
  static std::string mismatch(Time t, NodeId v, const char* query,
                              JobId cand, double naive, double engine_value,
                              bool exact) {
    const bool ok =
        exact ? engine_value == naive
              : std::fabs(engine_value - naive) <=
                    kRelTol * std::max(1.0, std::fabs(naive));
    if (ok) return {};
    std::ostringstream os;
    os.precision(17);
    os << "query oracle mismatch at t=" << t << " node " << v << ": "
       << query << " candidate ";
    if (cand == kInvalidJob)
      os << "-";
    else
      os << "job " << cand;
    os << ": naive " << naive << " engine " << engine_value;
    return os.str();
  }

  void on_event(const sim::Engine& engine, Time t) override {
    check(engine, t);
  }
  void on_job_admitted(const sim::Engine& engine, JobId /*j*/) override {
    check(engine, engine.now());
  }

  /// Engine answers compared so far (all queries, all candidates).
  std::uint64_t answers_checked() const { return answers_; }

  /// Rescans every non-root node once and compares all five queries.
  void check(const sim::Engine& engine, Time t) {
    const Tree& tree = engine.tree();
    rebuild_queues(engine);
    for (NodeId v = 0; v < tree.node_count(); ++v) {
      if (v == tree.root()) continue;
      const std::vector<JobId>& q = queues_[uidx(v)];
      compare(t, v, "queue_size", kInvalidJob, static_cast<double>(q.size()),
              static_cast<double>(engine.queue_size(v)), true);
      double pending = 0.0;
      double alpha = 0.0;
      for (const JobId i : q) {
        const double rem = engine.remaining_on(i, v);
        pending += rem;
        alpha += rem / engine.size_on(i, v);
      }
      compare(t, v, "pending_remaining", kInvalidJob, pending,
              engine.pending_remaining(v), false);
      if (tree.is_leaf(v))
        compare(t, v, "alpha_leaf", kInvalidJob, alpha, engine.alpha_leaf(v),
                false);
      double min_size = std::numeric_limits<double>::infinity();
      for (const JobId c : q) {
        const double pc = engine.size_on(c, v);
        const Time rc = engine.instance().job(c).release;
        min_size = std::min(min_size, pc);
        check_candidate(engine, t, v, q, pc, rc, c);
      }
      if (!q.empty())
        check_candidate(engine, t, v, q, min_size / 2.0, engine.now(),
                        kInvalidJob);
    }
  }

 private:
  /// Rebuilds every Q_v, each in ascending job id, from per-job state.
  void rebuild_queues(const sim::Engine& engine) {
    const Tree& tree = engine.tree();
    queues_.resize(uidx(tree.node_count()));
    for (std::vector<JobId>& q : queues_) q.clear();
    for (JobId j = 0; j < engine.instance().job_count(); ++j) {
      if (!engine.admitted(j) || engine.completed(j) || engine.job_shed(j))
        continue;
      const std::vector<NodeId>& path = tree.path_to(engine.assigned_leaf(j));
      for (std::size_t k = uidx(engine.current_path_index(j)); k < path.size();
           ++k)
        queues_[uidx(path[k])].push_back(j);
    }
  }

  /// Rescans Q_v (`q`) for one candidate (size on v, release, id) — a
  /// queued job, or a foreign one (id kInvalidJob) — and compares the
  /// candidate queries with it.
  void check_candidate(const sim::Engine& engine, Time t, NodeId v,
                       const std::vector<JobId>& q, double pc, Time rc,
                       JobId c) {
    double higher = 0.0;
    double larger_frac = 0.0;
    int larger = 0;
    for (const JobId i : q) {
      const double pi = engine.size_on(i, v);
      const Time ri = engine.instance().job(i).release;
      const bool before =
          pi < pc || (pi == pc && (ri < rc || (ri == rc && i < c)));
      if (i != c && before) higher += engine.remaining_on(i, v);
      if (pi > pc) {
        ++larger;
        larger_frac += engine.remaining_on(i, v) / pi;
      }
    }
    const double hpr = engine.higher_priority_remaining(v, pc, rc, c);
    const int cnt = engine.count_larger(v, pc);
    compare(t, v, "higher_priority_remaining", c, higher, hpr, false);
    compare(t, v, "count_larger", c, larger, cnt, true);
    compare(t, v, "larger_residual_fraction", c, larger_frac,
            engine.larger_residual_fraction(v, pc), false);
    const sim::Engine::PrioritySplit split =
        engine.priority_split(v, pc, rc, c);
    compare(t, v, "priority_split.higher_remaining == higher_priority_remaining",
            c, hpr, split.higher_remaining, true);
    compare(t, v, "priority_split.larger == count_larger", c, cnt,
            split.larger, true);
  }

  void compare(Time t, NodeId v, const char* query, JobId cand, double naive,
               double engine_value, bool exact) {
    ++answers_;
    if (failed_) return;  // the first divergence is the one worth reading
    const std::string msg =
        mismatch(t, v, query, cand, naive, engine_value, exact);
    if (msg.empty()) return;
    failed_ = true;
    ADD_FAILURE() << msg;
  }

  std::vector<std::vector<JobId>> queues_;  ///< Q_v per node, rebuilt per check
  std::uint64_t answers_ = 0;
  bool failed_ = false;
};

}  // namespace treesched::test
