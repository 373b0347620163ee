// E3 — Lemma 1: once a job leaves its root child, it clears the remaining
// identical nodes within (6/eps^2) * p_j * d_{v_e} time.
//
// Measures the worst observed wait/bound ratio across topologies, loads and
// eps, under the lemma's premises (class-rounded sizes; speed >= 1+eps off
// the root layer). Expected shape: max ratio <= 1 everywhere, usually far
// below (the proof's constants are loose). The ratios are the interior-wait
// rows of the offline audit (sim::audit_run) over the recorded run.
#include <algorithm>
#include <iostream>

#include "treesched/treesched.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  util::Cli cli("bench_lemma1_interior_wait",
                "Observed interior wait vs the Lemma 1 bound.");
  auto& jobs = cli.add_int("jobs", 500, "jobs per cell");
  auto& load = cli.add_double("load", 0.9, "root-cut utilization");
  auto& seed = cli.add_int("seed", 3, "base seed");
  auto& csv_path = cli.add_string("csv", "", "optional CSV output");
  cli.parse(argc, argv);

  std::cout <<
      "E3 / Lemma 1 — interior wait <= (6/eps^2) p_j d_{v_e}\n"
      "Expected shape: observed/bound <= 1 for every job, zero violations.\n\n";

  util::Table table({"tree", "eps", "jobs", "max ratio", "mean ratio",
                     "violations"});
  util::CsvWriter csv({"tree", "eps", "max_ratio", "mean_ratio",
                       "violations"});

  for (const auto& [name, tree] : experiments::standard_trees()) {
    for (const double eps : {1.0, 0.5, 0.25}) {
      util::Rng rng(static_cast<std::uint64_t>(seed) + eps * 7919);
      workload::WorkloadSpec spec;
      spec.jobs = static_cast<int>(jobs);
      spec.load = load;
      spec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
      spec.sizes.class_eps = eps;
      const Instance inst = workload::generate(rng, tree, spec);

      const SpeedProfile speeds =
          SpeedProfile::layered(inst.tree(), 1.0, 1.0 + eps);
      algo::PaperGreedyPolicy policy(eps);
      sim::EngineConfig cfg;
      cfg.record_schedule = true;
      sim::Engine engine(inst, speeds, cfg);
      engine.run(policy);
      sim::AuditOptions opts;
      opts.eps = eps;
      const sim::AuditReport rep =
          sim::audit_run(inst, sim::make_run_log(inst, engine), opts);
      long measured = 0, violations = 0;
      double max_ratio = 0.0, ratio_sum = 0.0;
      for (const sim::LemmaRow& row : rep.lemma_rows) {
        if (row.wait_ratio < 0.0) continue;
        ++measured;
        ratio_sum += row.wait_ratio;
        max_ratio = std::max(max_ratio, row.wait_ratio);
        if (row.wait_ratio > 1.0 + 1e-9) ++violations;
      }
      const double mean_ratio =
          measured > 0 ? ratio_sum / static_cast<double>(measured) : 0.0;
      table.add(name, eps, measured, max_ratio, mean_ratio, violations);
      csv.add(name, eps, max_ratio, mean_ratio, violations);
    }
  }
  std::cout << table.str();
  if (!csv_path.empty()) csv.write_file(csv_path);
  return 0;
}
