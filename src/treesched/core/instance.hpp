// A problem instance: tree + job sequence + endpoint model.
//
// An instance is built once over its jobs, or grown in place: append()
// checks only the jobs it adds, so a stream that extends its window one
// quantum at a time pays O(quantum) per extension, not O(window).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "treesched/core/job.hpp"
#include "treesched/core/tree.hpp"
#include "treesched/core/types.hpp"

namespace treesched {

/// Instance of the tree-network scheduling problem. Owns the tree (shared,
/// so derived instances — e.g. the broomstick image — can reference their
/// own topology cheaply) and the jobs sorted by release time. The jobs only
/// grow (append) or go all at once (clear).
class Instance {
 public:
  /// Validates and normalizes: jobs are sorted by (release, id); ids must be
  /// the dense range 0..n-1; sizes must be positive; in the unrelated model
  /// every job needs a leaf_sizes entry per leaf.
  Instance(std::shared_ptr<const Tree> tree, std::vector<Job> jobs,
           EndpointModel model);

  /// Convenience overload taking the tree by value.
  Instance(Tree tree, std::vector<Job> jobs, EndpointModel model);

  /// Appends `more` after the current jobs, in place, checking only them:
  /// their ids continue the dense range (job_count(), job_count() + 1, ...),
  /// their releases never go back (neither behind each other nor behind the
  /// last job), and each passes the constructor's per-job checks (positive
  /// size and weight; no leaf_sizes in the identical model, a full set in
  /// the unrelated one). Lookups of earlier jobs stay valid by id; an
  /// engine bound to this instance sees the new jobs after Engine::extend.
  /// Throws std::invalid_argument and appends nothing when a check fails.
  void append(std::span<const Job> more);

  /// Drops every job, keeping the tree, the model and the storage — the
  /// window rotation of a stream, which then appends the next window. No
  /// engine may be bound to the instance while it is cleared.
  void clear();

  const Tree& tree() const { return *tree_; }
  std::shared_ptr<const Tree> tree_ptr() const { return tree_; }
  /// Jobs in release order (not necessarily id order).
  const std::vector<Job>& jobs() const { return jobs_; }
  /// Job lookup *by id*, regardless of release order.
  const Job& job(JobId j) const { return jobs_[position_of_id_[uidx(j)]]; }
  JobId job_count() const { return static_cast<JobId>(jobs_.size()); }
  EndpointModel model() const { return model_; }

  /// Processing requirement p_{j,v} of job j on node v (root excluded).
  double processing_time(JobId j, NodeId v) const;

  /// P_{v,j} of the paper: total processing of job j on the path R(v)..v.
  /// Requires v to be a leaf. A lower bound on j's flow time if assigned to v.
  double path_processing_time(JobId j, NodeId leaf) const;

  /// Sum of sizes of all jobs (router volume).
  double total_size() const;

  /// Derives an instance with every size rounded up to a power of (1+eps)
  /// (Section 2's class-rounding assumption).
  Instance rounded_to_classes(double eps) const;

 private:
  void validate() const;
  /// The checks every job passes on its own (append's whole check, beside
  /// the id and release order).
  void check_job(const Job& j) const;

  std::shared_ptr<const Tree> tree_;
  std::vector<Job> jobs_;
  std::vector<std::size_t> position_of_id_;  ///< id -> index in jobs_
  EndpointModel model_;
};

}  // namespace treesched
