#include "treesched/overload/controller.hpp"

#include <stdexcept>

#include "treesched/util/assert.hpp"

namespace treesched::overload {

void validate_shed_config(const ShedConfig& cfg) {
  switch (cfg.policy) {
    case ShedPolicy::kNone:
      return;
    case ShedPolicy::kBoundedQueue:
    case ShedPolicy::kLargestFirst:
      if (cfg.queue_cap <= 0.0)
        throw std::invalid_argument(
            std::string(shed_policy_name(cfg.policy)) +
            " requires a positive volume cap (--queue-cap)");
      return;
    case ShedPolicy::kDeadline:
      if (cfg.deadline_slack <= 0.0)
        throw std::invalid_argument(
            "deadline requires a positive slack (--deadline-slack)");
      return;
  }
}

AdmissionController::AdmissionController(const ShedConfig& cfg, double eps)
    : cfg_(cfg), greedy_(eps) {
  validate_shed_config(cfg_);
}

void AdmissionController::tighten(double factor) {
  if (!(factor > 0.0 && factor <= 1.0))
    throw std::invalid_argument("tighten factor must be in (0, 1]");
  cfg_.queue_cap *= factor;
  cfg_.deadline_slack *= factor;
}

bool AdmissionController::admit(sim::Engine& engine, const Job& job) {
  switch (cfg_.policy) {
    case ShedPolicy::kNone:
      return true;
    case ShedPolicy::kBoundedQueue:
      return admit_bounded_queue(engine, job);
    case ShedPolicy::kLargestFirst:
      return admit_largest_first(engine, job);
    case ShedPolicy::kDeadline:
      return admit_deadline(engine, job);
  }
  return true;
}

bool AdmissionController::admit_bounded_queue(sim::Engine& engine,
                                              const Job& job) {
  if (engine.root_backlog() + job.size <= cfg_.queue_cap) return true;
  engine.reject(job.id);
  return false;
}

bool AdmissionController::admit_largest_first(sim::Engine& engine,
                                              const Job& job) {
  if (engine.root_backlog() + job.size <= cfg_.queue_cap) return true;
  // Over the cap: evict the largest candidate until the arrival fits (or the
  // arrival itself is the largest, in which case it is rejected). Candidates
  // are the jobs still pending at their root-child hop — jobs already
  // forwarded past the root cut contribute nothing to the backlog, and
  // re-dispatched jobs are never shed (the fault-recovery invariant).
  // Ordering is largest p_j first, ties to the latest release then the
  // highest id: a deterministic function of static attributes only.
  //
  // That is exactly the dispatch-index key order at a root child — the tree
  // forbids machines adjacent to the root, so a root child is a router and
  // keys its queue by (p_j, r_j, j) — so each root child's candidate is the
  // first job from the top of its index that was not re-dispatched. The
  // index keeps its top key; only when that job was re-dispatched does the
  // descending visit continue below it.
  const bool exempt_possible = engine.redispatched_count() != 0;
  for (;;) {
    sim::SjfKey best{job.size, job.release, job.id};
    bool best_is_arrival = true;
    const auto consider = [&](const sim::SjfKey& key) {
      if (best < key) {
        best = key;
        best_is_arrival = false;
      }
    };
    for (const NodeId rc : engine.tree().root_children()) {
      TS_CHECK(!engine.tree().is_leaf(rc), "machine adjacent to the root");
      // An empty queue's top is kNoKey, which never outranks best.
      const sim::SjfKey top = engine.largest_queued(rc);
      if (!exempt_possible || engine.queue_size(rc) == 0 ||
          !engine.job_redispatched(top.job)) {
        consider(top);
        continue;
      }
      engine.find_queued_descending(rc, [&](const sim::SjfKey& key) {
        if (engine.job_redispatched(key.job)) return false;
        consider(key);
        return true;
      });
    }
    if (best_is_arrival) {
      engine.reject(job.id);
      return false;
    }
    engine.shed(best.job);
    if (engine.root_backlog() + job.size <= cfg_.queue_cap) return true;
  }
}

void AdmissionController::save_state(std::ostream& os) const {
  estimator_.save_state(os);
}

void AdmissionController::load_state(std::string_view bytes) {
  util::Fields f(bytes);
  estimator_.load_state(f);
  TS_REQUIRE(f.done(), "admission load: bytes after the estimator state");
}

bool AdmissionController::admit_deadline(sim::Engine& engine, const Job& job) {
  const double fmin = greedy_.F_min(engine, job);
  const double bound = cfg_.deadline_slack * job.size;
  if (fmin <= bound) {
    engine.log_admission(job.id, fmin, bound);
    return true;
  }
  engine.reject(job.id, fmin, bound);
  return false;
}

}  // namespace treesched::overload
