// Workload generation: arrivals, sizes, unrelated models, traces, gadgets.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "treesched/core/tree_builders.hpp"
#include "treesched/util/class_rounding.hpp"
#include "treesched/workload/adversarial.hpp"
#include "treesched/workload/arrivals.hpp"
#include "treesched/workload/generator.hpp"
#include "treesched/workload/sizes.hpp"
#include "treesched/workload/trace_io.hpp"
#include "treesched/workload/unrelated.hpp"

namespace treesched::workload {
namespace {

TEST(Arrivals, PoissonIsSortedAndRateIsClose) {
  util::Rng rng(1);
  const auto t = poisson_arrivals(rng, 20000, 4.0);
  ASSERT_EQ(t.size(), 20000u);
  for (std::size_t i = 1; i < t.size(); ++i) ASSERT_GE(t[i], t[i - 1]);
  EXPECT_NEAR(t.size() / t.back(), 4.0, 0.2);
}

TEST(Arrivals, DeterministicSpacing) {
  const auto t = deterministic_arrivals(5, 2.0);
  ASSERT_EQ(t.size(), 5u);
  EXPECT_DOUBLE_EQ(t[0], 2.0);
  EXPECT_DOUBLE_EQ(t[4], 10.0);
}

TEST(Arrivals, MmppProducesSortedArrivals) {
  util::Rng rng(2);
  const auto t = mmpp_arrivals(rng, 5000, 1.0, 10.0, 0.1);
  ASSERT_EQ(t.size(), 5000u);
  for (std::size_t i = 1; i < t.size(); ++i) ASSERT_GE(t[i], t[i - 1]);
}

TEST(Arrivals, BatchedClusters) {
  util::Rng rng(3);
  const auto t = batched_arrivals(rng, 100, 10, 50.0, 1e-3);
  ASSERT_EQ(t.size(), 100u);
  // Jobs within a batch are 1e-3 apart: count tight gaps.
  int tight = 0;
  for (std::size_t i = 1; i < t.size(); ++i)
    if (t[i] - t[i - 1] < 0.01) ++tight;
  EXPECT_GE(tight, 80);  // 9 tight gaps per 10-job batch
}

TEST(Arrivals, DiurnalModulatesIntensity) {
  util::Rng rng(14);
  const double period = 1000.0;
  const auto t = diurnal_arrivals(rng, 20000, 1.0, 0.8, period);
  ASSERT_EQ(t.size(), 20000u);
  for (std::size_t i = 1; i < t.size(); ++i) ASSERT_GE(t[i], t[i - 1]);
  // Count arrivals in the rising half vs falling half of each period:
  // sin > 0 on [0, p/2), < 0 on [p/2, p). High amplitude => strong skew.
  std::size_t up = 0, down = 0;
  for (const Time x : t) {
    const double phase = std::fmod(x, period) / period;
    (phase < 0.5 ? up : down) += 1;
  }
  EXPECT_GT(static_cast<double>(up) / down, 1.8);
}

TEST(Arrivals, DiurnalValidation) {
  util::Rng rng(15);
  EXPECT_THROW(diurnal_arrivals(rng, 10, 1.0, 1.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(diurnal_arrivals(rng, 10, 0.0, 0.5, 10.0),
               std::invalid_argument);
}

TEST(Arrivals, RateForLoad) {
  // rho = lambda * E[p] / |R|  =>  lambda = rho |R| / E[p].
  EXPECT_DOUBLE_EQ(arrival_rate_for_load(4, 2.0, 0.5), 1.0);
}

TEST(Sizes, FixedAndBounds) {
  util::Rng rng(4);
  SizeSpec spec;
  spec.dist = SizeDistribution::kFixed;
  spec.scale = 3.0;
  for (double p : draw_sizes(rng, 50, spec)) EXPECT_DOUBLE_EQ(p, 3.0);

  spec.dist = SizeDistribution::kUniform;
  spec.scale = 2.0;
  spec.spread = 8.0;
  for (double p : draw_sizes(rng, 500, spec)) {
    EXPECT_GE(p, 2.0);
    EXPECT_LE(p, 16.0);
  }
}

TEST(Sizes, BimodalTakesTwoValues) {
  util::Rng rng(5);
  SizeSpec spec;
  spec.dist = SizeDistribution::kBimodal;
  spec.scale = 1.0;
  spec.spread = 16.0;
  spec.mix = 0.25;
  int big = 0;
  const auto sizes = draw_sizes(rng, 2000, spec);
  for (double p : sizes) {
    ASSERT_TRUE(p == 1.0 || p == 16.0);
    big += (p == 16.0);
  }
  EXPECT_NEAR(big / 2000.0, 0.25, 0.05);
}

TEST(Sizes, ClassRoundingProducesClassSizes) {
  util::Rng rng(6);
  SizeSpec spec;
  spec.dist = SizeDistribution::kBoundedPareto;
  spec.class_eps = 0.5;
  for (double p : draw_sizes(rng, 300, spec)) {
    const auto k = util::size_class(p, 0.5);
    EXPECT_NEAR(p, util::class_size(k, 0.5), 1e-9 * p);
  }
}

TEST(Sizes, MeanEstimatesAreReasonable) {
  util::Rng rng(7);
  for (auto dist : {SizeDistribution::kFixed, SizeDistribution::kUniform,
                    SizeDistribution::kExponential,
                    SizeDistribution::kBoundedPareto,
                    SizeDistribution::kBimodal}) {
    SizeSpec spec;
    spec.dist = dist;
    spec.scale = 2.0;
    double sum = 0.0;
    const int n = 40000;
    for (double p : draw_sizes(rng, n, spec)) sum += p;
    const double empirical = sum / n;
    EXPECT_NEAR(empirical / spec.mean(), 1.0, 0.1)
        << "distribution " << spec.name();
  }
}

TEST(Unrelated, RelatedModelIsConsistentPerLeaf) {
  const Tree tree = builders::fat_tree(2, 1, 2);
  util::Rng rng(8);
  UnrelatedSpec spec;
  spec.model = UnrelatedModel::kRelated;
  UnrelatedGenerator gen(tree, spec, rng);
  const auto a = gen.leaf_sizes(rng, 4.0);
  const auto b = gen.leaf_sizes(rng, 8.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(b[i] / a[i], 2.0, 1e-9);  // fixed speed per leaf
}

TEST(Unrelated, AffinityHasOneFastSubtree) {
  const Tree tree = builders::star_of_paths(3, 2);
  util::Rng rng(9);
  UnrelatedSpec spec;
  spec.model = UnrelatedModel::kAffinity;
  spec.spread = 8.0;
  UnrelatedGenerator gen(tree, spec, rng);
  const auto sizes = gen.leaf_sizes(rng, 2.0);
  int fast = 0, slow = 0;
  for (double p : sizes) {
    if (p == 2.0) ++fast;
    else if (p == 16.0) ++slow;
  }
  EXPECT_EQ(fast, 1);  // one leaf per branch here
  EXPECT_EQ(slow, 2);
}

TEST(Unrelated, RestrictedAlwaysHasAFeasibleLeaf) {
  const Tree tree = builders::fat_tree(2, 1, 4);
  util::Rng rng(10);
  UnrelatedSpec spec;
  spec.model = UnrelatedModel::kRestricted;
  spec.feasible_fraction = 0.05;  // likely all-infeasible draws
  UnrelatedGenerator gen(tree, spec, rng);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sizes = gen.leaf_sizes(rng, 1.0);
    EXPECT_NE(std::count(sizes.begin(), sizes.end(), 1.0), 0);
  }
}

TEST(Generator, ProducesValidInstancesForAllArrivalKinds) {
  const Tree tree = builders::fat_tree(2, 1, 2);
  for (auto kind : {ArrivalProcess::kPoisson, ArrivalProcess::kDeterministic,
                    ArrivalProcess::kMmpp, ArrivalProcess::kBatched,
                    ArrivalProcess::kDiurnal}) {
    util::Rng rng(11);
    WorkloadSpec spec;
    spec.jobs = 50;
    spec.arrivals = kind;
    const Instance inst = generate(rng, tree, spec);
    EXPECT_EQ(inst.job_count(), 50);
  }
}

TEST(TraceIo, RoundTripsIdenticalInstance) {
  util::Rng rng(12);
  WorkloadSpec spec;
  spec.jobs = 25;
  const Instance inst = generate(rng, builders::figure1_tree(), spec);
  std::stringstream ss;
  write_trace(ss, inst);
  const Instance back = read_trace(ss.str());
  ASSERT_EQ(back.job_count(), inst.job_count());
  EXPECT_EQ(back.tree().node_count(), inst.tree().node_count());
  for (JobId j = 0; j < inst.job_count(); ++j) {
    EXPECT_DOUBLE_EQ(back.job(j).release, inst.job(j).release);
    EXPECT_DOUBLE_EQ(back.job(j).size, inst.job(j).size);
  }
}

TEST(TraceIo, RoundTripsUnrelatedInstance) {
  util::Rng rng(13);
  WorkloadSpec spec;
  spec.jobs = 10;
  spec.endpoints = EndpointModel::kUnrelated;
  const Instance inst = generate(rng, builders::star_of_paths(2, 1), spec);
  std::stringstream ss;
  write_trace(ss, inst);
  const Instance back = read_trace(ss.str());
  for (JobId j = 0; j < inst.job_count(); ++j)
    EXPECT_EQ(back.job(j).leaf_sizes, inst.job(j).leaf_sizes);
}

TEST(TraceIo, RejectsMalformedInput) {
  {
    std::stringstream ss("model identical\n");
    EXPECT_THROW(read_trace(ss.str()), std::invalid_argument);
  }
  {
    std::stringstream ss("tree 2\nnode 0 -1 root\nnode 1 0 router\nbogus\n");
    EXPECT_THROW(read_trace(ss.str()), std::invalid_argument);
  }
  {
    std::stringstream ss("tree 1\nnode 0 -1 alien\nmodel identical\n");
    EXPECT_THROW(read_trace(ss.str()), std::invalid_argument);
  }
}

TEST(Adversarial, GadgetsProduceValidInstances) {
  EXPECT_GT(congestion_trap(10).job_count(), 0);
  EXPECT_GT(size_mixer(5).job_count(), 0);
  EXPECT_GT(class_cascade(4, 3, 0.5).job_count(), 0);
  EXPECT_GT(unrelated_trap(8).job_count(), 0);
  EXPECT_EQ(unrelated_trap(8).model(), EndpointModel::kUnrelated);
}

}  // namespace
}  // namespace treesched::workload
