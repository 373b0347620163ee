// Leaf-assignment policies: the paper's greedy rule (Section 3.4) and the
// baseline heuristics it is compared against.
//
// All policies are immediate-dispatch and online: they see only the engine
// state at the arriving job's release time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "treesched/sim/engine.hpp"
#include "treesched/util/rng.hpp"

namespace treesched::algo {

/// The paper's greedy assignment (Section 3.4). For identical endpoints it
/// minimizes F(j,v) + (6/eps^2) d_v p_j; for unrelated endpoints it adds the
/// leaf term F'(j,v). The endpoint model is taken from the engine's
/// instance. `eps` is the epsilon of the speed-augmentation guarantee and
/// controls the depth penalty 6/eps^2.
class PaperGreedyPolicy : public sim::AssignmentPolicy {
 public:
  /// Tie handling among cost-equal leaves. The paper leaves it unspecified;
  /// in the identical model every equal-depth leaf under the same root
  /// child costs the same, so kFirst funnels all of them to one machine.
  /// kRotate spreads ties round-robin — same guarantees (any argmin is
  /// valid), better leaf-level parallelism in practice (E14 ablation).
  enum class TieBreak { kFirst, kRotate };

  explicit PaperGreedyPolicy(double eps);

  /// Ablation constructor: overrides the 6/eps^2 depth-penalty coefficient
  /// (the cost becomes F + F' + coeff * d_v * p_j). The paper's constant is
  /// what the proofs need; the ablation experiment measures what practice
  /// wants.
  PaperGreedyPolicy(double eps, double depth_penalty_coeff,
                    TieBreak tie_break = TieBreak::kFirst);
  NodeId assign(const sim::Engine& engine, const Job& job) override;
  const char* name() const override { return "paper-greedy"; }

  /// Cost the rule minimizes — exposed for the dual-fitting beta_j values.
  /// One F query; loops over leaves use sweep and swept_cost instead.
  double assignment_cost(const sim::Engine& engine, const Job& job,
                         NodeId leaf) const;

  /// F(j,v): root-child congestion term (identical-router part). Depends on
  /// v only through R(v).
  static double F(const sim::Engine& engine, const Job& job, NodeId leaf);

  /// F'(j,v): leaf congestion term of the unrelated rule; 0 in the
  /// identical model.
  static double F_prime(const sim::Engine& engine, const Job& job,
                        NodeId leaf);

  double eps() const { return eps_; }
  double depth_penalty_coeff() const { return penalty_; }

  /// F at every root child for one decision: one Lemma-4 query each, in
  /// root_children() order, written into a reused vector indexed by
  /// root-child ordinal. Every arrival is a new job at a new instant, so
  /// nothing computed for one decision is valid for the next; the sweep is
  /// the whole per-decision cost of F. Also (re)builds the leaf groups for
  /// this engine. Entry k is bit-equal to F at root_children()[k]; the
  /// tests pin this at every decision.
  const std::vector<double>& sweep(const sim::Engine& engine,
                                   const Job& job) const;

  /// The vector as the last sweep left it.
  const std::vector<double>& swept_F() const { return f_rc_; }

  /// assignment_cost of the leaf at position `pos` of leaves(), with F read
  /// from the last sweep(engine, job). Bit-equal to assignment_cost.
  double swept_cost(const sim::Engine& engine, const Job& job,
                    std::size_t pos) const;

  /// min over the leaves of F(j,v), from one sweep (F depends on v only
  /// through R(v)); the deadline admission controller's bound check.
  /// Bit-equal to the minimum of F over leaves().
  double F_min(const sim::Engine& engine, const Job& job) const;

  /// kRotate carries a tie cursor across decisions; snapshot it so resumed
  /// streaming runs break ties identically. (The sweep vector and the leaf
  /// groups are pure derived state and need no serialization.)
  std::string stream_state() const override;
  void restore_stream_state(const std::string& state) override;

 private:
  /// F at root child rc: the one place the Lemma-4 formula is written.
  /// Inline, so the sweep's loop makes no call per root child.
  static double F_at(const sim::Engine& engine, const Job& job, NodeId rc) {
    // S_{R(v),j} includes the arriving job itself (full size), the queued
    // higher-priority volume, and one p_j per queued strictly-larger job.
    const sim::Engine::PrioritySplit s =
        engine.priority_split(rc, job.size, job.release, job.id);
    return s.higher_remaining + job.size + job.size * s.larger;
  }

  /// The minimized cost from its parts; shared by assignment_cost and the
  /// grouped sweep so both associate the additions identically.
  double cost_of(double f, double f_prime, int depth, double size) const {
    return f + f_prime + penalty_ * depth * size;
  }

  /// Identical-model fast path of assign(): in that model every leaf of a
  /// (root child, depth) group has the bit-identical assignment cost, so the
  /// sweep evaluates one representative per static group. Group order (by
  /// first position in leaves()) makes the strict-< scan return the same
  /// leaf as the per-leaf sweep, and the rotation tie-break indexes tied
  /// leaves in leaves() order — byte-identical decisions, ~|leaves|/|groups|
  /// times fewer cost evaluations.
  NodeId assign_grouped(const sim::Engine& engine, const Job& job);
  void build_groups(const sim::Engine& engine) const;

  double eps_;
  double penalty_;
  TieBreak tie_break_;
  std::size_t rotation_ = 0;

  mutable std::vector<double> f_rc_;  ///< F by root-child ordinal

  // Static (root child, depth) leaf groups of the engine's tree, ordered by
  // first position in leaves(); rebuilt only when the engine changes.
  struct LeafGroup {
    NodeId first_leaf = kInvalidNode;  ///< first member in leaves() order
    std::int32_t rc = 0;               ///< ordinal of R(v) in root_children()
    std::int32_t depth = 0;            ///< d_v shared by the members
    std::int32_t count = 0;            ///< member leaves
    std::int32_t prev_same_rc = -1;    ///< earlier group of R(v); -1 = none
  };
  mutable std::uint64_t group_engine_ = 0;  ///< Engine::serial(); 0 = none
  mutable std::vector<LeafGroup> groups_;
  mutable std::vector<std::int32_t> group_of_pos_;  ///< leaves() pos -> group
  mutable std::vector<std::int32_t> rc_ordinal_;  ///< node -> ordinal; -1
  mutable std::vector<std::int32_t> group_last_of_rc_;  ///< ordinal -> group
  mutable std::vector<std::uint64_t> group_tied_stamp_;  ///< tie-scan marks
  mutable std::uint64_t group_tie_gen_ = 0;
};

/// Failure-aware variant of the paper's greedy rule: the same Lemma-4 cost
/// F + F' + (6/eps^2) d_v p_j, minimized over the *live* leaves only. Also
/// implements the engine's re-dispatch hook, so when a machine crashes its
/// stranded jobs are re-assigned by re-running the greedy rule over the
/// surviving leaves at the crash instant.
class FaultAwareGreedy : public sim::AssignmentPolicy,
                         public sim::RedispatchPolicy {
 public:
  explicit FaultAwareGreedy(double eps) : greedy_(eps) {}

  NodeId assign(const sim::Engine& engine, const Job& job) override;
  NodeId reassign(const sim::Engine& engine, JobId job,
                  NodeId dead_leaf) override;
  const char* name() const override { return "fault-greedy"; }

  /// The greedy rule whose sweep prices the live leaves.
  const PaperGreedyPolicy& greedy() const { return greedy_; }

 private:
  NodeId best_live_leaf(const sim::Engine& engine, const Job& job) const;

  PaperGreedyPolicy greedy_;
};

/// Assigns to the leaf minimizing the job's total path processing time
/// P_{j,v} — the "closest leaf" rule the paper argues is insufficient.
class ClosestLeafPolicy : public sim::AssignmentPolicy {
 public:
  NodeId assign(const sim::Engine& engine, const Job& job) override;
  const char* name() const override { return "closest-leaf"; }
};

/// Uniformly random leaf.
class RandomLeafPolicy : public sim::AssignmentPolicy {
 public:
  explicit RandomLeafPolicy(std::uint64_t seed);
  NodeId assign(const sim::Engine& engine, const Job& job) override;
  const char* name() const override { return "random"; }

  /// Snapshots the RNG stream position for streaming kill/resume.
  std::string stream_state() const override;
  void restore_stream_state(const std::string& state) override;

 private:
  util::Rng rng_;
};

/// Cycles through the leaves in order, ignoring all state.
class RoundRobinPolicy : public sim::AssignmentPolicy {
 public:
  NodeId assign(const sim::Engine& engine, const Job& job) override;
  const char* name() const override { return "round-robin"; }

  /// Snapshots the rotation cursor for streaming kill/resume.
  std::string stream_state() const override;
  void restore_stream_state(const std::string& state) override;

 private:
  std::size_t next_ = 0;
};

/// Assigns to the leaf minimizing pending volume along the bottleneck:
/// remaining work queued at R(v) plus at the leaf plus the job's own path
/// processing time. A strong load-aware heuristic, but congestion-blind to
/// job size classes.
class LeastVolumePolicy : public sim::AssignmentPolicy {
 public:
  NodeId assign(const sim::Engine& engine, const Job& job) override;
  const char* name() const override { return "least-volume"; }
};

/// Assigns to the leaf minimizing the number of queued jobs at R(v) plus at
/// the leaf (ties by shallower leaf).
class LeastCountPolicy : public sim::AssignmentPolicy {
 public:
  NodeId assign(const sim::Engine& engine, const Job& job) override;
  const char* name() const override { return "least-count"; }
};

/// The power-of-two-choices baseline from randomized load balancing:
/// samples two machines uniformly and takes the one with less pending
/// volume along its path (plus the job's own path cost). Near-optimal for
/// flat machine pools; the tree experiments show how far that intuition
/// carries under shared links.
class TwoChoicePolicy : public sim::AssignmentPolicy {
 public:
  explicit TwoChoicePolicy(std::uint64_t seed);
  NodeId assign(const sim::Engine& engine, const Job& job) override;
  const char* name() const override { return "two-choice"; }

  /// Snapshots the RNG stream position for streaming kill/resume.
  std::string stream_state() const override;
  void restore_stream_state(const std::string& state) override;

 private:
  double volume_cost(const sim::Engine& engine, const Job& job,
                     NodeId leaf) const;
  util::Rng rng_;
};

/// Creates a policy by name: "paper", "closest", "random", "round-robin",
/// "least-volume", "least-count", "two-choice", "fault-greedy",
/// "broomstick-mirror" (the Section 3.7 general-tree algorithm). Throws
/// std::invalid_argument on unknown names.
/// `instance` is needed by "broomstick-mirror" (it simulates the broomstick
/// image of the instance); `eps` parameterizes the paper rules; `seed` the
/// random one.
std::unique_ptr<sim::AssignmentPolicy> make_policy(
    const std::string& name, const Instance& instance, double eps,
    std::uint64_t seed);

/// True iff `name` is one make_policy accepts — for validating user input
/// eagerly (e.g. before a sweep enumerates thousands of tasks).
bool is_known_policy(const std::string& name);

}  // namespace treesched::algo
