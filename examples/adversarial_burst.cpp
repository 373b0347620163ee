// Adversarial scenarios: bursty (MMPP) arrivals plus the hand-crafted
// gadget instances, each designed to defeat one naive heuristic. Also
// records a bursty run and audits its Lemma 1/2 margins so the structural
// guarantees can be watched holding (or failing, if you drop the speed
// below the premises with --starve).
//
//   ./adversarial_burst [--waves W] [--eps E] [--starve]
#include <iostream>

#include "treesched/treesched.hpp"

using namespace treesched;

namespace {

void compare_on(const std::string& title, const Instance& inst, double eps) {
  const SpeedProfile speeds = SpeedProfile::uniform(inst.tree(), 1.0 + eps);
  const double lb = lp::combined_lower_bound(inst);
  util::Table table({"policy", "total flow", "flow/LB"});
  for (const char* name :
       {"paper", "closest", "round-robin", "least-volume", "least-count"}) {
    const auto r = algo::run_named_policy(inst, speeds, name, eps, 3);
    table.add(name, r.total_flow, r.total_flow / lb);
  }
  std::cout << "--- " << title << " ---\n" << table.str() << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("adversarial_burst",
                "Gadget instances that defeat naive assignment policies, "
                "plus audited lemma margins under bursty load.");
  auto& waves = cli.add_int("waves", 40, "gadget length (waves of jobs)");
  auto& eps = cli.add_double("eps", 1.0, "speed augmentation epsilon");
  auto& starve = cli.add_flag(
      "starve", "drop the interior speed below the lemma premises");
  cli.parse(argc, argv);

  compare_on("congestion trap (defeats closest-leaf)",
             workload::congestion_trap(static_cast<int>(waves)), eps);
  compare_on("size mixer (defeats round-robin)",
             workload::size_mixer(static_cast<int>(waves) / 2), eps);
  compare_on("unrelated trap (defeats leaf-blind rules)",
             workload::unrelated_trap(static_cast<int>(waves)), eps);

  // Bursty MMPP load, recorded and audited for the Lemma 1/2 margins.
  const Tree tree = builders::caterpillar(2, 3, 2);
  util::Rng rng(13);
  workload::WorkloadSpec spec;
  spec.jobs = 400;
  spec.load = 0.8;
  spec.arrivals = workload::ArrivalProcess::kMmpp;
  spec.sizes.class_eps = eps;  // the lemmas assume class-rounded sizes
  const Instance inst = workload::generate(rng, tree, spec);

  const double interior = starve ? 1.0 : 1.0 + eps;
  const SpeedProfile speeds = SpeedProfile::layered(tree, 1.0, interior);
  algo::PaperGreedyPolicy policy(eps);
  sim::QueueSampler sampler(/*min_gap=*/2.0);
  sim::EngineConfig cfg;
  cfg.record_schedule = true;
  sim::Engine engine(inst, speeds, cfg);
  engine.set_observer(&sampler);
  engine.run(policy);
  sim::AuditOptions opts;
  opts.eps = eps;
  const sim::AuditReport audit =
      sim::audit_run(inst, sim::make_run_log(inst, engine), opts);
  long l2_jobs = 0, l2_violating = 0, wait_jobs = 0, wait_violating = 0;
  for (const sim::LemmaRow& row : audit.lemma_rows) {
    if (row.lemma2_ratio >= 0.0) {
      ++l2_jobs;
      if (row.lemma2_ratio > 1.0 + 1e-9) ++l2_violating;
    }
    if (row.wait_ratio >= 0.0) {
      ++wait_jobs;
      if (row.wait_ratio > 1.0 + 1e-9) ++wait_violating;
    }
  }

  std::cout << "queued jobs over time (bursts visible as spikes):\n"
            << sim::ascii_sparkline(sampler.queued_series()) << "\n\n";

  std::cout << "--- burst run with audited lemma margins (interior speed "
            << interior << ") ---\n"
            << "Lemma 2 volume bound: max observed/bound = "
            << audit.lemma2_max_ratio << " across " << l2_jobs
            << " jobs, violating jobs = " << l2_violating << '\n'
            << "Lemma 1 interior wait: max observed/bound = "
            << audit.wait_max_ratio << " across " << wait_jobs
            << " jobs, violating jobs = " << wait_violating << '\n';
  if (starve)
    std::cout << "(speeds below the lemma premises: violations above are "
                 "expected and demonstrate the premises are necessary)\n";
  return 0;
}
