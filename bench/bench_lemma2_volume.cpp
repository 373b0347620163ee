// E4 — Lemma 2: on any identical non-root-adjacent node, the available
// higher-priority volume in front of a job never exceeds (2/eps) p_j.
//
// Records each run and reads the offline audit's per-job Lemma 2 rows: the
// supremum of the volume over the job's whole stay on each eligible node.
// Includes a premise-violating row (interior speed 1.0 < 1+eps) to show
// the bound is not vacuous: without the speed premise the volume can pile
// past the bound.
#include <algorithm>
#include <iostream>

#include "treesched/treesched.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  util::Cli cli("bench_lemma2_volume",
                "Observed available volume vs the Lemma 2 bound.");
  auto& jobs = cli.add_int("jobs", 400, "jobs per cell");
  auto& load = cli.add_double("load", 0.95, "root-cut utilization");
  auto& seed = cli.add_int("seed", 4, "base seed");
  auto& csv_path = cli.add_string("csv", "", "optional CSV output");
  cli.parse(argc, argv);

  std::cout <<
      "E4 / Lemma 2 — available higher-priority volume <= (2/eps) p_j\n"
      "Expected shape: zero violations when premises hold; the speed-1\n"
      "row intentionally violates the premises as a control.\n\n";

  util::Table table({"tree", "eps", "interior speed", "jobs", "max ratio",
                     "violating jobs"});
  util::CsvWriter csv({"tree", "eps", "interior_speed", "max_ratio",
                       "violating_jobs"});

  const auto run_cell = [&](const std::string& name, const Tree& tree,
                            double eps, double interior) {
    util::Rng rng(static_cast<std::uint64_t>(seed) + eps * 104729 +
                  interior * 31);
    workload::WorkloadSpec spec;
    spec.jobs = static_cast<int>(jobs);
    spec.load = load;
    spec.sizes.dist = workload::SizeDistribution::kBimodal;
    spec.sizes.spread = 16.0;
    spec.sizes.class_eps = eps;
    const Instance inst = workload::generate(rng, tree, spec);
    const SpeedProfile speeds =
        SpeedProfile::layered(inst.tree(), 1.0, interior);
    algo::PaperGreedyPolicy policy(eps);
    sim::EngineConfig cfg;
    cfg.record_schedule = true;
    sim::Engine engine(inst, speeds, cfg);
    engine.run(policy);
    sim::AuditOptions opts;
    opts.eps = eps;
    const sim::AuditReport rep =
        sim::audit_run(inst, sim::make_run_log(inst, engine), opts);
    long measured = 0, violating = 0;
    for (const sim::LemmaRow& row : rep.lemma_rows) {
      if (row.lemma2_ratio < 0.0) continue;
      ++measured;
      if (row.lemma2_ratio > 1.0 + 1e-9) ++violating;
    }
    const double max_ratio = std::max(rep.lemma2_max_ratio, 0.0);
    table.add(name, eps, interior, measured, max_ratio, violating);
    csv.add(name, eps, interior, max_ratio, violating);
  };

  for (const double eps : {1.0, 0.5, 0.25}) {
    run_cell("star-2x4", builders::star_of_paths(2, 4), eps, 1.0 + eps);
    run_cell("caterpillar", builders::caterpillar(2, 3, 2), eps, 1.0 + eps);
  }
  // Premise-violating control: interior speed 1 < 1 + eps.
  run_cell("star-2x4 (control)", builders::star_of_paths(2, 4), 0.5, 1.0);

  std::cout << table.str()
            << "\n(the control row may legitimately exceed ratio 1 — the "
               "lemma's speed premise is necessary)\n";
  if (!csv_path.empty()) csv.write_file(csv_path);
  return 0;
}
