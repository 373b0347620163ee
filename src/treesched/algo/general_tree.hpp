// The general-tree algorithm of Section 3.7.
//
// The policy maintains, alongside the real run on T, a private simulation of
// the paper's broomstick algorithm A_{T'} (SJF everywhere + the greedy
// assignment rule, with the paper's speed profile on T'). When a job
// arrives, the broomstick simulation is advanced to the arrival time, the
// greedy rule picks a broomstick leaf, and the job is assigned to the
// corresponding leaf of T. Lemma 8 shows the real run can only be faster.
#pragma once

#include <memory>

#include "treesched/algo/broomstick.hpp"
#include "treesched/sim/engine.hpp"

namespace treesched::algo {

class PaperGreedyPolicy;

class BroomstickMirrorPolicy : public sim::AssignmentPolicy {
 public:
  /// `instance` is the instance on T the outer engine will run; `eps` is
  /// the augmentation epsilon (drives both the inner greedy's depth penalty
  /// and the broomstick's paper speed profile).
  BroomstickMirrorPolicy(const Instance& instance, double eps);
  ~BroomstickMirrorPolicy() override;

  NodeId assign(const sim::Engine& engine, const Job& job) override;
  const char* name() const override { return "broomstick-mirror"; }

  /// Drains the internal broomstick simulation (call after the outer run
  /// finished to compare per-job flow times, Lemma 8).
  void finish_simulation();

  const BroomstickReduction& reduction() const { return reduction_; }
  const sim::Engine& broomstick_engine() const { return *bs_engine_; }

 private:
  BroomstickReduction reduction_;
  std::unique_ptr<Instance> bs_instance_;
  std::unique_ptr<sim::Engine> bs_engine_;
  std::unique_ptr<PaperGreedyPolicy> greedy_;
};

/// Lemma 8 comparison after a BroomstickMirrorPolicy run: per-job flow time
/// on T versus on the simulated broomstick T'.
struct DominationReport {
  long jobs = 0;
  long violations = 0;      ///< jobs slower on T than on T'
  double max_excess = 0.0;  ///< worst flow_T - flow_T' (positive = violation)
  double mean_speedup = 0.0;///< average flow_T' / flow_T
};

DominationReport domination_report(const sim::Metrics& on_tree,
                                   const sim::Metrics& on_broomstick);

}  // namespace treesched::algo
