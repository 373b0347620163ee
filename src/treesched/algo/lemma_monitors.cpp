#include "treesched/algo/lemma_monitors.hpp"

#include <algorithm>

#include "treesched/util/assert.hpp"

namespace treesched::algo {

Lemma2Monitor::Lemma2Monitor(double eps, int check_every)
    : eps_(eps), check_every_(check_every) {
  TS_REQUIRE(eps > 0.0, "eps must be positive");
  TS_REQUIRE(check_every >= 1, "check_every must be >= 1");
}

void Lemma2Monitor::on_event(const sim::Engine& engine, Time t) {
  (void)t;
  if (++event_count_ % check_every_ != 0) return;
  const Tree& tree = engine.tree();
  const Instance& inst = engine.instance();
  const bool leaf_identical = inst.model() == EndpointModel::kIdentical;

  for (NodeId v = 0; v < tree.node_count(); ++v) {
    if (tree.is_root(v)) continue;
    if (tree.parent(v) == tree.root()) continue;  // lemma excludes R
    if (tree.is_leaf(v) && !leaf_identical) continue;  // unrelated leaves
    const std::vector<JobId> queue = engine.inflight_at(v);
    if (queue.empty()) continue;
    for (const JobId j : queue) {
      // "j still needs to use v": unfinished work of j on v — all of Q_v.
      const double p_j = engine.size_on(j, v);
      const Time r_j = inst.job(j).release;
      double vol = 0.0;
      for (const JobId i : queue) {
        if (!engine.available_on(i, v)) continue;
        const double p_i = engine.size_on(i, v);
        const Time r_i = inst.job(i).release;
        const bool in_s = (i == j) || p_i < p_j ||
                          (p_i == p_j &&
                           (r_i < r_j || (r_i == r_j && i < j)));
        if (in_s) vol += engine.remaining_on(i, v);
      }
      const double bound = 2.0 / eps_ * p_j;
      const double ratio = vol / bound;
      max_ratio_ = std::max(max_ratio_, ratio);
      ++checks_;
      if (ratio > 1.0 + 1e-9) ++violations_;
    }
  }
}

InteriorWaitReport interior_wait_report(const sim::Engine& engine,
                                        double eps) {
  TS_REQUIRE(eps > 0.0, "eps must be positive");
  InteriorWaitReport rep;
  const Instance& inst = engine.instance();
  const Tree& tree = engine.tree();
  const bool leaf_identical = inst.model() == EndpointModel::kIdentical;
  double ratio_sum = 0.0;

  const sim::Metrics& metrics = engine.metrics();
  for (const auto& rec : metrics.jobs()) {
    if (!rec.completed()) continue;
    const auto& path = tree.path_to(rec.leaf);
    const int len = static_cast<int>(path.size());
    const int last_idx = leaf_identical ? len - 1 : len - 2;
    if (last_idx < 1) continue;  // no identical nodes beyond R(v)
    const auto stamps = metrics.node_completion(rec.id);
    const Time left_root_child = stamps[0];
    const Time cleared_identical = stamps[uidx(last_idx)];
    TS_CHECK(left_root_child >= 0.0 && cleared_identical >= 0.0,
             "missing node completion stamps");
    const double wait = cleared_identical - left_root_child;
    const NodeId v_e = path[uidx(last_idx)];
    const double bound =
        6.0 / (eps * eps) * inst.job(rec.id).size * tree.d(v_e);
    const double ratio = wait / bound;
    rep.max_ratio = std::max(rep.max_ratio, ratio);
    ratio_sum += ratio;
    ++rep.jobs_measured;
    if (ratio > 1.0 + 1e-9) ++rep.violations;
  }
  if (rep.jobs_measured > 0)
    rep.mean_ratio = ratio_sum / static_cast<double>(rep.jobs_measured);
  return rep;
}

DominationReport domination_report(const sim::Metrics& on_tree,
                                   const sim::Metrics& on_broomstick) {
  TS_REQUIRE(on_tree.jobs().size() == on_broomstick.jobs().size(),
             "metrics cover different job sets");
  DominationReport rep;
  double speedup_sum = 0.0;
  for (std::size_t j = 0; j < on_tree.jobs().size(); ++j) {
    const auto& a = on_tree.jobs()[j];
    const auto& b = on_broomstick.jobs()[j];
    if (!a.completed() || !b.completed()) continue;
    ++rep.jobs;
    const double excess = a.flow() - b.flow();
    rep.max_excess = std::max(rep.max_excess, excess);
    if (excess > 1e-6) ++rep.violations;
    if (a.flow() > 0.0) speedup_sum += b.flow() / a.flow();
  }
  if (rep.jobs > 0) rep.mean_speedup = speedup_sum / static_cast<double>(rep.jobs);
  return rep;
}

}  // namespace treesched::algo
