// Umbrella header: the full public API of the treesched library.
//
// Quickstart:
//   #include "treesched/treesched.hpp"
//   using namespace treesched;
//   Tree tree = builders::star_of_paths(2, 3);
//   util::Rng rng(42);
//   workload::WorkloadSpec spec;             // Poisson arrivals, load 0.7
//   Instance inst = workload::generate(rng, tree, spec);
//   algo::PaperGreedyPolicy policy(/*eps=*/0.5);
//   sim::Engine engine(inst, SpeedProfile::uniform(tree, 1.5));
//   engine.run(policy);
//   std::cout << engine.metrics().total_flow_time() << '\n';
#pragma once

#include "treesched/core/instance.hpp"
#include "treesched/core/job.hpp"
#include "treesched/core/speed_profile.hpp"
#include "treesched/core/tree.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/core/types.hpp"

#include "treesched/fault/model.hpp"
#include "treesched/fault/plan.hpp"

#include "treesched/sim/audit.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/gantt.hpp"
#include "treesched/sim/metrics.hpp"
#include "treesched/sim/priority.hpp"
#include "treesched/sim/recorder.hpp"
#include "treesched/sim/reference.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/sim/sampler.hpp"

#include "treesched/algo/anycast.hpp"
#include "treesched/algo/broomstick.hpp"
#include "treesched/algo/general_tree.hpp"
#include "treesched/algo/policies.hpp"
#include "treesched/algo/psw_model.hpp"
#include "treesched/algo/runner.hpp"

#include "treesched/overload/config.hpp"
#include "treesched/overload/controller.hpp"
#include "treesched/overload/estimator.hpp"

#include "treesched/lp/dual_fitting.hpp"
#include "treesched/lp/flowtime_lp.hpp"
#include "treesched/lp/lower_bounds.hpp"
#include "treesched/lp/opt_search.hpp"
#include "treesched/lp/simplex.hpp"

#include "treesched/workload/adversarial.hpp"
#include "treesched/workload/arrivals.hpp"
#include "treesched/workload/generator.hpp"
#include "treesched/workload/sizes.hpp"
#include "treesched/workload/trace_io.hpp"
#include "treesched/workload/unrelated.hpp"

#include "treesched/exec/parallel.hpp"
#include "treesched/exec/sweep.hpp"
#include "treesched/exec/thread_pool.hpp"

#include "treesched/experiments/harness.hpp"

#include "treesched/stats/bootstrap.hpp"
#include "treesched/stats/histogram.hpp"
#include "treesched/stats/summary.hpp"

#include "treesched/util/cli.hpp"
#include "treesched/util/class_rounding.hpp"
#include "treesched/util/csv.hpp"
#include "treesched/util/fs.hpp"
#include "treesched/util/rng.hpp"
#include "treesched/util/string_util.hpp"
#include "treesched/util/table.hpp"
