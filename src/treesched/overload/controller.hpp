// Admission control at the root (the overload-protection tentpole).
//
// The controller implements sim::AdmissionPolicy: the engine consults it
// once per arriving job, at the release instant, before leaf assignment.
// Three shedding disciplines are provided beyond `none`:
//
//  * bounded-queue — reject the arrival when the root-cut backlog (total
//    remaining volume pending at the root children,
//    Engine::root_backlog: O(1) per root child, the index's total less the
//    running item's live drain) would exceed the volume cap.
//  * largest-first — keep the backlog under the cap by evicting the LARGEST
//    job first, the SJF-dual choice: by Lemma 2 a job j delays only
//    (2/eps)*p_j of higher-priority volume, so shedding the largest p_j
//    frees the most backlog while disturbing the least SJF priority mass.
//    If the arrival itself is the largest candidate it is rejected instead.
//    Each root child's candidate is the largest key its dispatch index
//    keeps, read in O(1); only when that job was re-dispatched (shed-exempt,
//    possible only under a fault plan) does a descending walk of the index
//    look below it.
//  * deadline — admit only jobs whose best-leaf Lemma-4 congestion bound
//    satisfies F(j, leaf) <= slack * p_j (at unit root-cut speed F bounds
//    the volume draining ahead of j, hence its flow), taking the minimum
//    from PaperGreedyPolicy::F_min: one Lemma-4 sweep over the root
//    children per arrival.
//
// Determinism contract: every decision is a pure function of engine queries
// (pending_remaining, the F aggregates) plus static job attributes (p_j,
// r_j, id), and decisions happen in the single-threaded admission loop — so
// degraded runs are byte-reproducible across thread counts.
#pragma once

#include <iosfwd>

#include "treesched/algo/policies.hpp"
#include "treesched/overload/config.hpp"
#include "treesched/overload/estimator.hpp"
#include "treesched/sim/engine.hpp"

namespace treesched::overload {

/// Validates a shed config eagerly: the volume policies (bounded-queue,
/// largest-first) require queue_cap > 0, deadline requires deadline_slack
/// > 0. Throws std::invalid_argument with an actionable message.
void validate_shed_config(const ShedConfig& cfg);

class AdmissionController : public sim::AdmissionPolicy {
 public:
  /// `eps` parameterizes the deadline policy's Lemma-4 F evaluation (use the
  /// same eps the assignment policy runs with); ignored by the others.
  explicit AdmissionController(const ShedConfig& cfg, double eps = 0.5);

  bool admit(sim::Engine& engine, const Job& job) override;
  const char* name() const override { return shed_policy_name(cfg_.policy); }
  /// Effective config — reflects any tighten() calls.
  const ShedConfig& config() const { return cfg_; }

  /// Degradation-ladder hook (guard governor, stage tightened-shed): scales
  /// the effective shedding knob by `factor` in (0, 1] so the policy drains
  /// backlog harder — volume policies shed above queue_cap * factor,
  /// deadline admits under slack * factor. Cumulative across calls; the
  /// decision rule itself is untouched, so a tightened run is exactly the
  /// run that would have used the smaller knob from the start of the next
  /// arrival. Not serialized: a resumed incarnation starts back at the
  /// configured knobs with its ladder at stage normal.
  void tighten(double factor);

  /// The root-cut backlog the volume policies hold under the cap.
  static double root_backlog(const sim::Engine& engine) {
    return engine.root_backlog();
  }

  /// The controller-owned saturation estimator: callers feed it admissions
  /// (it is a passive observer) and read rho-hat from it. Owning it here
  /// puts the windowed readings under the controller's durable state, so a
  /// degraded run's saturation telemetry survives kill/resume.
  SaturationEstimator& estimator() { return estimator_; }
  const SaturationEstimator& estimator() const { return estimator_; }

  /// The greedy rule whose sweep gives the deadline policy its F_min.
  const algo::PaperGreedyPolicy& greedy() const { return greedy_; }

  /// Durable state round-trip: delegates to the estimator (the policies
  /// themselves are stateless; PaperGreedyPolicy's sweep vector is
  /// recomputed for every arrival, so it is deliberately not serialized).
  /// Same checksum-reject contract as SaturationEstimator::load_state;
  /// `bytes` is one saved state with nothing after it.
  void save_state(std::ostream& os) const;
  void load_state(std::string_view bytes);

 private:
  bool admit_bounded_queue(sim::Engine& engine, const Job& job);
  bool admit_largest_first(sim::Engine& engine, const Job& job);
  bool admit_deadline(sim::Engine& engine, const Job& job);

  ShedConfig cfg_;
  algo::PaperGreedyPolicy greedy_;  ///< deadline F evaluation (F_min)
  SaturationEstimator estimator_;  ///< windowed rho-hat (durable state)
};

}  // namespace treesched::overload
