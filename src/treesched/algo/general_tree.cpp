#include "treesched/algo/general_tree.hpp"

#include <algorithm>

#include "treesched/algo/policies.hpp"
#include "treesched/util/assert.hpp"

namespace treesched::algo {

BroomstickMirrorPolicy::BroomstickMirrorPolicy(const Instance& instance,
                                               double eps)
    : reduction_(BroomstickReduction::reduce(instance.tree())) {
  bs_instance_ = std::make_unique<Instance>(reduction_.transform(instance));
  const SpeedProfile speeds =
      instance.model() == EndpointModel::kIdentical
          ? SpeedProfile::paper_identical(reduction_.broomstick(), eps)
          : SpeedProfile::paper_unrelated(reduction_.broomstick(), eps);
  bs_engine_ = std::make_unique<sim::Engine>(*bs_instance_, speeds);
  greedy_ = std::make_unique<PaperGreedyPolicy>(eps);
}

BroomstickMirrorPolicy::~BroomstickMirrorPolicy() = default;

NodeId BroomstickMirrorPolicy::assign(const sim::Engine& engine,
                                      const Job& job) {
  TS_REQUIRE(&engine.instance() != bs_instance_.get(),
             "mirror policy must drive the original tree, not the broomstick");
  bs_engine_->advance_to(job.release);
  // Use the broomstick image of the job (leaf sizes re-indexed).
  const Job& bs_job = bs_instance_->job(job.id);
  const NodeId bs_leaf = greedy_->assign(*bs_engine_, bs_job);
  bs_engine_->admit(job.id, bs_leaf);
  return reduction_.to_original(bs_leaf);
}

void BroomstickMirrorPolicy::finish_simulation() { bs_engine_->run_to_completion(); }

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
