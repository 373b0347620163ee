// treesched_sweep — parallel policy × topology × eps × fault × shed-policy
// × seed sweeps.
//
// Overload dimension: --shed-policies none,largest-first,... compares
// admission-control policies per cell (with --queue-cap / --deadline-slack),
// reporting goodput and shed counts alongside the flow-time ratios.
//
//   treesched_sweep --policies paper,closest --trees star-2x3,figure1
//       --eps 1.0,0.5 --seeds 5 --threads 8 --json results.json
//   treesched_sweep --policies fault-greedy --fault-rates 0,0.01,0.05
//       --checkpoint sweep.ckpt --json faults.json
//
// The flags form a declarative sweep spec (exec::SweepSpec). Tasks fan out
// over the exec thread pool; every task's seed derives from --seed and the
// task's fixed grid index, so results — and the default JSON document — are
// byte-identical for any --threads value. Wall-clock and speedup metadata
// are printed to stdout and embedded in the JSON only with --timing, which
// keeps the default output deterministic.
//
// Robustness: --retries N re-runs transiently failing tasks with capped
// exponential backoff; --checkpoint journals every finished task (one
// fsynced append each); --resume skips everything the journal covers and still
// produces JSON byte-identical to an uninterrupted run. SIGINT/SIGTERM
// cancel the sweep cleanly: pending tasks are dropped, in-flight tasks
// finish and land in the journal, and no final JSON is written.
//
// Exit codes: 0 = clean, 2 = usage/config error (bad flag value, unknown
// policy/tree, eps <= 0, unwritable --record-dir, foreign checkpoint),
// 3 = tasks were skipped (per-task --timeout-ms exceeded or a task kept
// failing), 130 = interrupted by SIGINT/SIGTERM, 1 = unexpected error.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <iostream>

#include "treesched/exec/parallel.hpp"
#include "treesched/exec/sweep.hpp"
#include "treesched/treesched.hpp"

using namespace treesched;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitSkipped = 3;
constexpr int kExitInterrupted = 130;
constexpr int kExitUnexpected = 1;

std::atomic<bool> g_cancel{false};

extern "C" void on_signal(int) { g_cancel.store(true); }

std::vector<std::string> parse_list(const std::string& flag,
                                    const std::string& csv) {
  std::vector<std::string> out;
  for (const std::string& part : util::split(csv, ','))
    if (!part.empty()) out.push_back(part);
  if (out.empty())
    throw std::invalid_argument("--" + flag +
                                " needs a non-empty comma-separated list, got '" +
                                csv + "'");
  return out;
}

std::vector<double> parse_doubles(const std::string& flag,
                                  const std::string& csv) {
  std::vector<double> out;
  for (const std::string& part : parse_list(flag, csv)) {
    try {
      std::size_t used = 0;
      const double v = std::stod(part, &used);
      if (used != part.size()) throw std::invalid_argument(part);
      out.push_back(v);
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + flag + ": '" + part +
                                  "' is not a number");
    }
  }
  return out;
}

std::vector<double> parse_eps(const std::string& csv) {
  if (csv == "paper") return experiments::epsilon_sweep();
  return parse_doubles("eps", csv);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("treesched_sweep",
                "Deterministic parallel sweep over policies/trees/eps/"
                "fault-rates/seeds.");
  auto& policies = cli.add_string("policies", "paper",
                                  "comma-separated run_named_policy names");
  auto& trees = cli.add_string(
      "trees", "all", "comma-separated standard_trees names, or 'all'");
  auto& eps = cli.add_string(
      "eps", "paper", "comma-separated eps grid, or 'paper' for the sweep");
  auto& seeds = cli.add_int("seeds", 3, "repetitions per cell");
  auto& seed = cli.add_int("seed", 1, "base seed (task i gets split_seed(seed, i))");
  auto& jobs = cli.add_int("jobs", 200, "jobs per generated instance");
  auto& load = cli.add_double("load", 0.85, "root-cut utilization");
  auto& fault_rates = cli.add_string(
      "fault-rates", "",
      "comma-separated node crash rates; adds the fault grid dimension");
  auto& fault_mttr = cli.add_double("fault-mttr", 5.0,
                                    "mean time to repair for crashed nodes");
  auto& fault_horizon = cli.add_double(
      "fault-horizon", 0.0, "fault window horizon (0 = auto from releases)");
  auto& shed_policies = cli.add_string(
      "shed-policies", "",
      "comma-separated admission policies (none|bounded-queue|largest-first|"
      "deadline); adds the overload grid dimension");
  auto& queue_cap = cli.add_double(
      "queue-cap", 0.0,
      "root-cut volume cap for bounded-queue/largest-first cells");
  auto& deadline_slack = cli.add_double(
      "deadline-slack", 8.0, "deadline cells admit iff F <= slack * p_j");
  auto& threads = cli.add_int(
      "threads", 0, "worker threads (0 = TREESCHED_THREADS or hardware)");
  auto& timeout_ms = cli.add_double(
      "timeout-ms", 0.0, "per-task patience; late tasks are skipped, not awaited");
  auto& retries = cli.add_int(
      "retries", 0, "per-task retries with capped exponential backoff");
  auto& backoff_ms = cli.add_double("retry-backoff-ms", 5.0,
                                    "base backoff before a retry");
  auto& checkpoint = cli.add_string(
      "checkpoint", "", "append-only journal of finished tasks");
  auto& resume = cli.add_flag(
      "resume", "skip tasks already in --checkpoint (same grid required)");
  auto& json_path = cli.add_string("json", "", "machine-readable results file");
  auto& timing = cli.add_flag(
      "timing", "embed wall-clock/speedup metadata in the JSON (non-deterministic)");
  auto& record_dir = cli.add_string(
      "record-dir", "", "write per-task traces + run logs here for treesched_audit");
  auto& quiet = cli.add_flag("quiet", "suppress the human table");

  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\nrun with --help for usage\n";
    return kExitUsage;
  }

  try {
    exec::SweepSpec spec;
    spec.policies = parse_list("policies", policies);
    spec.trees = trees == "all" ? std::vector<std::string>{}
                                : parse_list("trees", trees);
    spec.eps_grid = parse_eps(eps);
    spec.seeds = static_cast<int>(seeds);
    spec.base_seed = static_cast<std::uint64_t>(seed);
    spec.jobs = static_cast<int>(jobs);
    spec.load = load;
    if (!fault_rates.empty())
      spec.fault_rates = parse_doubles("fault-rates", fault_rates);
    spec.fault_mttr = fault_mttr;
    spec.fault_horizon = fault_horizon;
    if (!shed_policies.empty())
      spec.shed_policies = parse_list("shed-policies", shed_policies);
    spec.queue_cap = queue_cap;
    spec.deadline_slack = deadline_slack;
    spec.threads = static_cast<std::size_t>(threads);
    spec.timeout_ms = timeout_ms;
    spec.retries = static_cast<int>(retries);
    spec.retry_backoff_ms = backoff_ms;
    spec.checkpoint = checkpoint;
    spec.resume = resume;
    spec.record_dir = record_dir;
    spec.cancel = &g_cancel;

    if (!record_dir.empty()) {
      // Fail before the sweep, not after: an unwritable record dir would
      // otherwise surface as one cryptic task failure per grid point.
      std::error_code ec;
      std::filesystem::create_directories(record_dir, ec);
      if (ec)
        throw std::invalid_argument("--record-dir '" + record_dir +
                                    "' is not writable: " + ec.message());
      const std::string probe = record_dir + "/.treesched_probe";
      try {
        util::write_file_atomic(probe, "probe\n");
        std::filesystem::remove(probe, ec);
      } catch (const std::exception& e) {
        throw std::invalid_argument("--record-dir '" + record_dir +
                                    "' is not writable: " + e.what());
      }
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    // The silent-overload footgun: class-rounded sizes inflate the ACHIEVED
    // load past the --load target, so a nominally stable spec can saturate
    // the root cut. Probe the real rho and warn unless a shedding cell will
    // keep the backlog bounded.
    const bool any_shedding =
        std::any_of(spec.shed_policies.begin(), spec.shed_policies.end(),
                    [](const std::string& p) { return p != "none"; });
    const double rho = exec::probe_offered_load(spec);
    if (rho >= 1.0 && !any_shedding)
      std::cerr << "warning: offered load rho=" << rho
                << " >= 1: generated instances saturate the root cut and "
                   "flow times diverge (consider --shed-policies)\n";

    const exec::SweepResult result = exec::run_sweep(spec);

    if (result.interrupted) {
      std::cerr << "interrupted: pending tasks dropped";
      if (!checkpoint.empty())
        std::cerr << "; finished work is journaled — rerun with --resume "
                     "--checkpoint "
                  << checkpoint << " to continue";
      std::cerr << '\n';
      return kExitInterrupted;
    }

    if (!json_path.empty())
      exec::write_sweep_json_file(json_path, result, timing);

    std::size_t skipped = 0;
    for (const auto& task : result.tasks)
      if (task.status != exec::TaskStatus::kOk) ++skipped;

    if (!quiet) {
      std::cout << sweep_table(result) << '\n'
                << "tasks              : " << result.tasks.size()
                << " (" << skipped << " skipped, " << result.resumed
                << " resumed)\n"
                << "threads            : " << result.threads_used << '\n'
                << "wall clock         : " << result.wall_ms / 1000.0 << " s\n"
                << "task time (sum)    : " << result.task_ms_sum / 1000.0
                << " s\n"
                << "speedup estimate   : "
                << (result.wall_ms > 0.0
                        ? result.task_ms_sum / result.wall_ms
                        : 0.0)
                << "x\n";
      for (const auto& task : result.tasks) {
        if (task.status == exec::TaskStatus::kTimedOut)
          std::cout << "skipped (timeout)  : task " << task.index << " "
                    << result.spec.policies[task.policy_i] << "/"
                    << result.spec.trees[task.tree_i] << "/eps="
                    << result.spec.eps_grid[task.eps_i] << " seed#"
                    << task.seed_index << '\n';
        else if (task.status == exec::TaskStatus::kFailed)
          std::cout << "skipped (error)    : task " << task.index << ": "
                    << task.error << '\n';
      }
    }
    return skipped > 0 ? kExitSkipped : kExitOk;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\nrun with --help for usage\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitUnexpected;
  }
}
