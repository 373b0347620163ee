// Declarative policy × topology × eps × fault-rate × shed-policy × seed
// sweeps over the thread pool.
//
// A sweep expands its grid into a fixed task enumeration, gives task i the
// seed util::split_seed(base_seed, i), fans the tasks out over a ThreadPool,
// and gathers results by task index. Because no task ever observes thread
// count or completion order, the aggregated results — and the JSON emitted
// by sweep_json(result, /*include_timing=*/false) — are byte-identical for
// any --threads value, which is the determinism contract the ctest suite
// pins down.
//
// Resilience: tasks may be retried with capped exponential backoff
// (`retries`), completed measurements can be journaled to an append-only
// checkpoint file (`checkpoint`), and a later run with `resume` merges the
// journal instead of re-running finished cells — producing JSON
// byte-identical to an uninterrupted run. A cooperative `cancel` flag (set
// by treesched_sweep's SIGINT handler) stops the sweep cleanly: pending
// tasks are dropped, in-flight ones still land in the journal.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace treesched::exec {

struct SweepTask;

/// The declarative sweep description (the CLI flags of treesched_sweep map
/// onto this 1:1). The first block identifies the results; the second block
/// only controls execution and is excluded from the deterministic JSON.
struct SweepSpec {
  std::vector<std::string> policies{"paper"};  ///< run_named_policy names
  /// Topology names from experiments::standard_trees(); empty = all of them.
  std::vector<std::string> trees;
  /// Speed-augmentation grid; empty = experiments::epsilon_sweep().
  std::vector<double> eps_grid;
  int seeds = 3;                 ///< repetitions per grid cell
  std::uint64_t base_seed = 1;
  int jobs = 200;                ///< jobs per generated instance
  double load = 0.85;            ///< root-cut utilization

  /// Fault-injection grid dimension: node crash rates (failures per unit
  /// time per node, exponential MTBF). Empty = fault-free sweep with the
  /// classic 4-dimensional grid; non-empty adds the dimension, generates a
  /// seed-derived fault::FaultPlan per task, and measures flow-time
  /// degradation vs failure rate. A rate of 0 is the control cell.
  std::vector<double> fault_rates;
  double fault_mttr = 5.0;       ///< mean time to repair for crashed nodes
  /// Fault-window generation horizon; 0 = auto (twice the last release,
  /// at least 10 time units).
  double fault_horizon = 0.0;

  /// Overload-protection grid dimension: admission-control policy names
  /// ("none", "bounded-queue", "largest-first", "deadline"). Empty = no
  /// dimension and a grid (and JSON) byte-identical to pre-overload sweeps;
  /// non-empty adds the dimension and measures goodput / shed volume per
  /// policy. "none" is the control cell.
  std::vector<std::string> shed_policies;
  double queue_cap = 0.0;        ///< root-cut cap for the volume policies
  double deadline_slack = 8.0;   ///< deadline policy: admit iff F <= slack*p_j

  // Execution knobs — never part of the result identity.
  std::size_t threads = 0;       ///< 0 = default_thread_count()
  double timeout_ms = 0.0;       ///< per-task gather patience; 0 = none
  /// When non-empty: every task writes its instance trace and run log here
  /// (index-suffixed via sim::task_log_path) for offline treesched_audit.
  /// Segment-aware: a streaming task's segmented log derives its per-segment
  /// names via sim::segment_log_path FROM the task-suffixed base
  /// (`x.task000003.seg000001.log`), so recorded streaming sweeps never
  /// collide with each other or with their own manifest.
  std::string record_dir;
  /// Transient-failure retries per task; each attempt k sleeps
  /// retry_backoff_ms * min(2^(k-1), 32) before re-running.
  int retries = 0;
  double retry_backoff_ms = 5.0;
  /// Append-only checkpoint journal; empty disables checkpointing. One
  /// fsynced util::append_line_durable record per finished task, so a killed
  /// sweep loses at most the record being written, which util::read_log
  /// drops (util/fs.hpp).
  std::string checkpoint;
  /// Load `checkpoint` and skip every task it already covers. The journal's
  /// spec fingerprint must match (resuming under a different grid throws),
  /// and a damaged record that is not a torn one throws
  /// std::invalid_argument naming its line. A missing journal file is not
  /// an error (fresh start).
  bool resume = false;
  /// Cooperative cancellation, polled while gathering: once true, pending
  /// tasks are dropped and the result is marked interrupted.
  const std::atomic<bool>* cancel = nullptr;
  /// Test hook, called before every attempt of every task; throwing
  /// simulates a transient task failure (consumed by the retry loop).
  std::function<void(const SweepTask&, int attempt)> inject_fault;
};

enum class TaskStatus { kOk, kTimedOut, kFailed, kCancelled };

/// One (policy, tree, eps, fault-rate, shed-policy, seed-index) measurement.
struct SweepTask {
  std::size_t index = 0;         ///< position in the fixed enumeration
  std::size_t policy_i = 0, tree_i = 0, eps_i = 0, fault_i = 0, shed_i = 0;
  int seed_index = 0;
  std::uint64_t seed = 0;        ///< split_seed(base_seed, index)
  TaskStatus status = TaskStatus::kOk;
  double ratio = 0.0;
  double alg_flow = 0.0;
  double lower_bound = 0.0;
  double mean_flow = 0.0;        ///< NaN when nothing completed (JSON null)
  double goodput = 0.0;          ///< completed / makespan; NaN when empty
  std::size_t completed = 0;     ///< jobs that finished
  std::size_t shed_jobs = 0;     ///< jobs shed or rejected by admission
  int attempts = 0;              ///< runs it took (0 = loaded from journal)
  double wall_ms = 0.0;          ///< timing metadata; not in deterministic JSON
  std::string error;             ///< kFailed: the exception message
};

/// Per-cell aggregate over the cell's completed repetitions.
struct SweepCellStats {
  std::size_t policy_i = 0, tree_i = 0, eps_i = 0, fault_i = 0, shed_i = 0;
  std::size_t count = 0;    ///< completed repetitions
  std::size_t skipped = 0;  ///< timed out, failed, or cancelled
  double ratio_mean = 0.0, ratio_ci_lo = 0.0, ratio_ci_hi = 0.0;
  double ratio_min = 0.0, ratio_max = 0.0;
  double mean_flow = 0.0;
  double goodput_mean = 0.0;     ///< NaN-excluding mean over repetitions
  std::size_t completed = 0;     ///< summed over repetitions
  std::size_t shed_jobs = 0;     ///< summed over repetitions
};

struct SweepResult {
  SweepSpec spec;                   ///< trees / eps grid resolved
  std::vector<SweepTask> tasks;
  std::vector<SweepCellStats> cells;
  std::size_t threads_used = 1;
  std::size_t resumed = 0;          ///< tasks satisfied from the checkpoint
  bool interrupted = false;         ///< the cancel flag fired mid-sweep
  double wall_ms = 0.0;             ///< orchestration wall clock
  double task_ms_sum = 0.0;         ///< sequential-cost estimate
};

/// Expands the grid and runs it. Throws std::invalid_argument on unknown
/// policy/tree names, an empty grid, or a checkpoint fingerprint mismatch.
/// Timed-out tasks are reported as skipped (never hang the sweep); their
/// workers are abandoned on exit.
SweepResult run_sweep(const SweepSpec& spec);

/// Worst achieved offered load over the sweep's (tree, eps) cells, probed by
/// generating one instance per cell exactly as the sweep would (rounded
/// sizes, paper-identical speeds) with the first task's seed stream.
/// treesched_sweep warns when this reaches 1 and no shedding cell is armed:
/// such a sweep measures a diverging queue, not a steady state.
double probe_offered_load(const SweepSpec& spec);

/// Machine-readable results. The default document is deterministic: spec,
/// per-cell stats (mean / bootstrap CI / min / max), per-task ratios, and
/// skip reports, all doubles printed with %.17g. include_timing appends a
/// "timing" block (threads, wall clock, speedup estimate) that naturally
/// varies run to run.
std::string sweep_json(const SweepResult& result, bool include_timing);
/// Atomic write (tmp + fsync + rename): a killed sweep never leaves a torn
/// JSON file behind.
void write_sweep_json_file(const std::string& path, const SweepResult& result,
                           bool include_timing);

/// The human-facing per-cell table.
std::string sweep_table(const SweepResult& result);

}  // namespace treesched::exec
