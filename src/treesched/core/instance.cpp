#include "treesched/core/instance.hpp"

#include <algorithm>

#include "treesched/util/assert.hpp"
#include "treesched/util/class_rounding.hpp"

namespace treesched {

Instance::Instance(std::shared_ptr<const Tree> tree, std::vector<Job> jobs,
                   EndpointModel model)
    : tree_(std::move(tree)), jobs_(std::move(jobs)), model_(model) {
  TS_REQUIRE(tree_ != nullptr, "instance needs a tree");
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const Job& a, const Job& b) {
                     if (a.release != b.release) return a.release < b.release;
                     return a.id < b.id;
                   });
  validate();
  position_of_id_.resize(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i)
    position_of_id_[uidx(jobs_[i].id)] = i;
}

Instance::Instance(Tree tree, std::vector<Job> jobs, EndpointModel model)
    : Instance(std::make_shared<const Tree>(std::move(tree)), std::move(jobs),
               model) {}

void Instance::append(std::span<const Job> more) {
  Time last = jobs_.empty() ? 0.0 : jobs_.back().release;
  for (std::size_t i = 0; i < more.size(); ++i) {
    const Job& j = more[i];
    TS_REQUIRE(j.id >= 0 && uidx(j.id) == jobs_.size() + i,
               "append: job ids must continue the dense range");
    TS_REQUIRE(j.release >= last, "append: releases must not go back");
    check_job(j);
    last = j.release;
  }
  // Both grow geometrically, so a window grown one quantum at a time
  // reallocates O(log window) times in all.
  const std::size_t first = jobs_.size();
  jobs_.insert(jobs_.end(), more.begin(), more.end());
  position_of_id_.resize(jobs_.size());
  for (std::size_t i = first; i < jobs_.size(); ++i) position_of_id_[i] = i;
}

void Instance::clear() {
  jobs_.clear();
  position_of_id_.clear();
}

void Instance::check_job(const Job& j) const {
  TS_REQUIRE(j.release >= 0.0, "release times must be non-negative");
  TS_REQUIRE(j.size > 0.0, "job size must be positive");
  TS_REQUIRE(j.weight > 0.0, "job weight must be positive");
  if (j.source != kInvalidNode)
    TS_REQUIRE(j.source >= 0 && j.source < tree_->node_count(),
               "job source node out of range");
  if (model_ == EndpointModel::kUnrelated) {
    TS_REQUIRE(j.leaf_sizes.size() == tree_->leaves().size(),
               "unrelated model: leaf_sizes must cover every leaf");
    for (double p : j.leaf_sizes)
      TS_REQUIRE(p > 0.0, "leaf processing times must be positive");
  } else {
    TS_REQUIRE(j.leaf_sizes.empty(),
               "identical model: leaf_sizes must be empty");
  }
}

void Instance::validate() const {
  std::vector<bool> seen(jobs_.size(), false);
  for (const Job& j : jobs_) {
    TS_REQUIRE(j.id >= 0 && uidx(j.id) < jobs_.size(),
               "job ids must be dense 0..n-1");
    TS_REQUIRE(!seen[uidx(j.id)], "duplicate job id");
    seen[uidx(j.id)] = true;
    check_job(j);
  }
}

double Instance::processing_time(JobId j, NodeId v) const {
  // In the paper's base model the root performs no processing (paths never
  // include it). The arbitrary-source extension routes *through* the root,
  // which then behaves like an identical router: requirement p_j.
  const Job& jb = job(j);  // by id, not by release position
  if (tree_->is_root(v)) return jb.size;
  if (tree_->is_leaf(v) && model_ == EndpointModel::kUnrelated)
    return jb.leaf_sizes[uidx(tree_->leaf_index(v))];
  return jb.size;
}

double Instance::path_processing_time(JobId j, NodeId leaf) const {
  double total = 0.0;
  for (NodeId v : tree_->path_to(leaf)) total += processing_time(j, v);
  return total;
}

double Instance::total_size() const {
  double total = 0.0;
  for (const Job& j : jobs_) total += j.size;
  return total;
}

Instance Instance::rounded_to_classes(double eps) const {
  std::vector<Job> rounded = jobs_;
  for (Job& j : rounded) {
    j.size = util::round_up_to_class(j.size, eps);
    for (double& p : j.leaf_sizes) p = util::round_up_to_class(p, eps);
  }
  return Instance(tree_, std::move(rounded), model_);
}

}  // namespace treesched
