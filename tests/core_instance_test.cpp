// Instance validation and derived quantities.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "treesched/core/instance.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/util/class_rounding.hpp"

namespace treesched {
namespace {

TEST(Instance, SortsJobsByRelease) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 5.0, 1.0), Job(1, 2.0, 1.0)},
                EndpointModel::kIdentical);
  EXPECT_EQ(inst.jobs().front().id, 1);
  EXPECT_EQ(inst.jobs().back().id, 0);
  // job(j) still addresses by id, not by position.
  EXPECT_DOUBLE_EQ(inst.job(0).release, 5.0);
}

TEST(Instance, ProcessingTimesIdenticalModel) {
  Instance inst(builders::star_of_paths(1, 2), {Job(0, 0.0, 3.0)},
                EndpointModel::kIdentical);
  const NodeId leaf = inst.tree().leaves()[0];
  for (const NodeId v : inst.tree().path_to(leaf))
    EXPECT_DOUBLE_EQ(inst.processing_time(0, v), 3.0);
  EXPECT_DOUBLE_EQ(inst.path_processing_time(0, leaf), 9.0);
}

TEST(Instance, ProcessingTimesUnrelatedModel) {
  Tree tree = builders::star_of_paths(2, 1);
  Instance inst(std::move(tree), {Job(0, 0.0, 2.0, {7.0, 3.0})},
                EndpointModel::kUnrelated);
  const NodeId l0 = inst.tree().leaves()[0];
  const NodeId l1 = inst.tree().leaves()[1];
  EXPECT_DOUBLE_EQ(inst.processing_time(0, l0), 7.0);
  EXPECT_DOUBLE_EQ(inst.processing_time(0, l1), 3.0);
  // Routers keep the router size.
  EXPECT_DOUBLE_EQ(inst.processing_time(0, inst.tree().root_child_of(l0)),
                   2.0);
  EXPECT_DOUBLE_EQ(inst.path_processing_time(0, l0), 2.0 + 7.0);
}

TEST(Instance, RootActsAsIdenticalRouterForTransit) {
  // The base model never processes at the root; the arbitrary-source
  // extension routes through it, where it behaves as an identical router.
  Instance inst(builders::star_of_paths(1, 1), {Job(0, 0.0, 1.5)},
                EndpointModel::kIdentical);
  EXPECT_DOUBLE_EQ(inst.processing_time(0, inst.tree().root()), 1.5);
}

TEST(Instance, ValidationCatchesBadJobs) {
  auto tree = std::make_shared<const Tree>(builders::star_of_paths(1, 1));
  // Non-dense ids.
  EXPECT_THROW(Instance(tree, {Job(1, 0.0, 1.0)}, EndpointModel::kIdentical),
               std::invalid_argument);
  // Duplicate ids.
  EXPECT_THROW(Instance(tree, {Job(0, 0.0, 1.0), Job(0, 1.0, 1.0)},
                        EndpointModel::kIdentical),
               std::invalid_argument);
  // Negative release.
  EXPECT_THROW(Instance(tree, {Job(0, -1.0, 1.0)}, EndpointModel::kIdentical),
               std::invalid_argument);
  // Zero size.
  EXPECT_THROW(Instance(tree, {Job(0, 0.0, 0.0)}, EndpointModel::kIdentical),
               std::invalid_argument);
  // Unrelated model needs leaf sizes for every leaf.
  EXPECT_THROW(Instance(tree, {Job(0, 0.0, 1.0, {1.0, 2.0})},
                        EndpointModel::kUnrelated),
               std::invalid_argument);
  // Identical model must not carry leaf sizes.
  EXPECT_THROW(Instance(tree, {Job(0, 0.0, 1.0, {1.0})},
                        EndpointModel::kIdentical),
               std::invalid_argument);
}

TEST(Instance, AppendRejectsBadJobsAndAppendsNothing) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 1.0), Job(1, 2.0, 1.0)},
                EndpointModel::kIdentical);
  Job zero_weight(2, 2.0, 1.0);
  zero_weight.weight = 0.0;
  const std::vector<std::vector<Job>> bad = {
      {Job(3, 2.0, 1.0)},                    // id gap
      {Job(2, 2.0, 1.0), Job(4, 3.0, 1.0)},  // gap after a good job
      {Job(1, 2.0, 1.0)},                    // id repeats
      {Job(2, 1.5, 1.0)},                    // release before the last one
      {Job(2, 3.0, 1.0), Job(3, 2.5, 1.0)},  // releases go back inside
      {Job(2, 2.0, 0.0)},                    // size 0
      {Job(2, 2.0, -1.0)},                   // negative size
      {zero_weight},                         // weight 0
      {Job(2, 2.0, 1.0, {1.0})},             // leaf_sizes, identical model
  };
  for (const std::vector<Job>& more : bad) {
    EXPECT_THROW(inst.append(more), std::invalid_argument);
    EXPECT_EQ(inst.job_count(), 2);
  }
}

TEST(Instance, AppendKeepsEarlierLookups) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 5.0, 1.0), Job(1, 2.0, 3.0)},
                EndpointModel::kIdentical);
  const std::vector<Job> more = {Job(2, 5.0, 4.0), Job(3, 7.5, 0.5)};
  inst.append(more);
  inst.append(std::vector<Job>{});  // an empty quantum is a no-op
  ASSERT_EQ(inst.job_count(), 4);
  // Earlier jobs keep their lookups by id (sorted order: 1, 0, 2, 3).
  EXPECT_DOUBLE_EQ(inst.job(0).release, 5.0);
  EXPECT_DOUBLE_EQ(inst.job(1).size, 3.0);
  EXPECT_DOUBLE_EQ(inst.job(2).size, 4.0);
  EXPECT_DOUBLE_EQ(inst.job(3).release, 7.5);
  EXPECT_EQ(inst.jobs().front().id, 1);
  EXPECT_EQ(inst.jobs().back().id, 3);
  EXPECT_DOUBLE_EQ(inst.total_size(), 8.5);
  // The same jobs built at once give the same instance.
  const Instance whole(inst.tree_ptr(),
                       {Job(0, 5.0, 1.0), Job(1, 2.0, 3.0), Job(2, 5.0, 4.0),
                        Job(3, 7.5, 0.5)},
                       EndpointModel::kIdentical);
  for (JobId j = 0; j < 4; ++j)
    EXPECT_EQ(inst.job(j).release, whole.job(j).release);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(inst.jobs()[i].id, whole.jobs()[i].id);

  inst.clear();
  EXPECT_EQ(inst.job_count(), 0);
  inst.append(std::vector<Job>{Job(0, 1.0, 2.0)});  // ids restart at 0
  EXPECT_DOUBLE_EQ(inst.job(0).size, 2.0);
}

TEST(Instance, RoundedToClassesRoundsEverything) {
  Tree tree = builders::star_of_paths(2, 1);
  Instance inst(std::move(tree), {Job(0, 0.0, 2.9, {1.7, 4.2})},
                EndpointModel::kUnrelated);
  const double eps = 0.5;
  const Instance rounded = inst.rounded_to_classes(eps);
  EXPECT_DOUBLE_EQ(rounded.job(0).size, util::round_up_to_class(2.9, eps));
  EXPECT_DOUBLE_EQ(rounded.job(0).leaf_sizes[0],
                   util::round_up_to_class(1.7, eps));
  EXPECT_DOUBLE_EQ(rounded.job(0).leaf_sizes[1],
                   util::round_up_to_class(4.2, eps));
}

TEST(Instance, TotalSize) {
  Instance inst(builders::star_of_paths(1, 1),
                {Job(0, 0.0, 1.5), Job(1, 0.0, 2.5)},
                EndpointModel::kIdentical);
  EXPECT_DOUBLE_EQ(inst.total_size(), 4.0);
}

TEST(Instance, SharedTreeAcrossInstances) {
  auto tree = std::make_shared<const Tree>(builders::star_of_paths(1, 1));
  Instance a(tree, {Job(0, 0.0, 1.0)}, EndpointModel::kIdentical);
  Instance b(tree, {Job(0, 0.0, 2.0)}, EndpointModel::kIdentical);
  EXPECT_EQ(&a.tree(), &b.tree());
}

}  // namespace
}  // namespace treesched
