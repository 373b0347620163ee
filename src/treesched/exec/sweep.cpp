#include "treesched/exec/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "treesched/algo/policies.hpp"
#include "treesched/exec/parallel.hpp"
#include "treesched/overload/controller.hpp"
#include "treesched/experiments/harness.hpp"
#include "treesched/fault/model.hpp"
#include "treesched/lp/lower_bounds.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/stats/bootstrap.hpp"
#include "treesched/stats/summary.hpp"
#include "treesched/util/fields.hpp"
#include "treesched/util/fs.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/rng.hpp"
#include "treesched/util/stopwatch.hpp"
#include "treesched/util/table.hpp"
#include "treesched/workload/generator.hpp"
#include "treesched/workload/trace_io.hpp"

namespace treesched::exec {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON numbers: NaN/inf have no JSON representation, so completed-job
/// averages of an empty set (fully shed cells) serialize as null.
std::string json_num(double v) {
  return std::isfinite(v) ? fmt(v) : std::string("null");
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Grid {
  SweepSpec spec;  // trees / eps resolved
  std::vector<std::shared_ptr<const Tree>> trees;

  std::size_t fault_count() const {
    return spec.fault_rates.empty() ? 1 : spec.fault_rates.size();
  }
  std::size_t shed_count() const {
    return spec.shed_policies.empty() ? 1 : spec.shed_policies.size();
  }

  /// The resolved shed configuration of task cell `shed_i` (disabled when
  /// the dimension is absent or the cell is the "none" control).
  overload::ShedConfig shed_config(std::size_t shed_i) const {
    overload::ShedConfig sc;
    if (!spec.shed_policies.empty()) {
      sc.policy = overload::parse_shed_policy(spec.shed_policies[shed_i]);
      sc.queue_cap = spec.queue_cap;
      sc.deadline_slack = spec.deadline_slack;
    }
    return sc;
  }
};

Grid resolve(const SweepSpec& in) {
  Grid g;
  g.spec = in;
  if (g.spec.policies.empty())
    throw std::invalid_argument("sweep: no policies given");
  for (const std::string& p : g.spec.policies) {
    if (p.empty()) throw std::invalid_argument("sweep: empty policy name");
    if (!algo::is_known_policy(p))
      throw std::invalid_argument("sweep: unknown policy '" + p +
                                  "' (see algo::make_policy)");
  }
  if (g.spec.seeds <= 0)
    throw std::invalid_argument("sweep: seeds must be positive");
  if (g.spec.jobs <= 0)
    throw std::invalid_argument("sweep: jobs must be positive");
  if (g.spec.load <= 0.0)
    throw std::invalid_argument("sweep: load must be positive");
  if (g.spec.eps_grid.empty()) g.spec.eps_grid = experiments::epsilon_sweep();
  for (const double e : g.spec.eps_grid)
    if (e <= 0.0)
      throw std::invalid_argument("sweep: eps must be positive, got " +
                                  fmt(e));
  for (const double r : g.spec.fault_rates)
    if (r < 0.0)
      throw std::invalid_argument(
          "sweep: fault rates must be non-negative, got " + fmt(r));
  if (!g.spec.fault_rates.empty() && g.spec.fault_mttr <= 0.0)
    throw std::invalid_argument("sweep: fault mttr must be positive");
  if (g.spec.fault_horizon < 0.0)
    throw std::invalid_argument("sweep: fault horizon must be >= 0");
  for (std::size_t i = 0; i < g.spec.shed_policies.size(); ++i) {
    try {
      overload::validate_shed_config(g.shed_config(i));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("sweep: ") + e.what());
    }
  }
  if (g.spec.retries < 0)
    throw std::invalid_argument("sweep: retries must be >= 0");
  if (g.spec.resume && g.spec.checkpoint.empty())
    throw std::invalid_argument("sweep: --resume needs --checkpoint");

  const auto named = experiments::standard_trees();
  if (g.spec.trees.empty())
    for (const auto& nt : named) g.spec.trees.push_back(nt.name);
  for (const std::string& want : g.spec.trees) {
    const auto it =
        std::find_if(named.begin(), named.end(),
                     [&want](const auto& nt) { return nt.name == want; });
    if (it == named.end())
      throw std::invalid_argument("sweep: unknown tree '" + want +
                                  "' (see experiments::standard_trees)");
    g.trees.push_back(std::make_shared<const Tree>(it->tree));
  }
  return g;
}

/// Canonical identity of the resolved result grid — everything that decides
/// what the measurements ARE, nothing about how they are executed. Journal
/// files carry this as their fingerprint so --resume refuses a stale or
/// foreign checkpoint.
std::uint64_t spec_fingerprint(const SweepSpec& spec) {
  std::ostringstream os;
  os << "sweep-grid-v2";
  for (const auto& p : spec.policies) os << "|p=" << p;
  for (const auto& t : spec.trees) os << "|t=" << t;
  for (const double e : spec.eps_grid) os << "|e=" << fmt(e);
  for (const double r : spec.fault_rates) os << "|f=" << fmt(r);
  os << "|seeds=" << spec.seeds << "|base=" << spec.base_seed
     << "|jobs=" << spec.jobs << "|load=" << fmt(spec.load);
  if (!spec.fault_rates.empty())
    os << "|mttr=" << fmt(spec.fault_mttr)
       << "|horizon=" << fmt(spec.fault_horizon);
  for (const auto& sp : spec.shed_policies) os << "|shed=" << sp;
  if (!spec.shed_policies.empty())
    os << "|cap=" << fmt(spec.queue_cap)
       << "|slack=" << fmt(spec.deadline_slack);
  return util::fnv1a_64(os.str());
}

/// Append-only checkpoint journal: an atomically written header, then one
/// util::append_line_durable record per completed task. A kill tears at most
/// the record in flight; util::read_log drops it, and any other record that
/// does not parse is corruption the loader refuses.
class Checkpoint {
 public:
  Checkpoint(const std::string& path, std::uint64_t fingerprint, bool resume)
      : path_(path) {
    if (resume && std::filesystem::exists(path)) {
      load(fingerprint);
      return;
    }
    util::write_file_atomic(path, "sweepjournal 2\nfingerprint " +
                                      std::to_string(fingerprint) + '\n');
  }

  const std::map<std::size_t, SweepTask>& completed() const { return done_; }

  /// Thread-safe: called from pool workers as tasks finish.
  void record(const SweepTask& t) {
    if (t.status != TaskStatus::kOk) return;
    std::ostringstream os;
    os << "task " << t.index << ' ' << fmt(t.ratio) << ' ' << fmt(t.alg_flow)
       << ' ' << fmt(t.lower_bound) << ' ' << fmt(t.mean_flow) << ' '
       << fmt(t.goodput) << ' ' << t.completed << ' ' << t.shed_jobs << " ok";
    const std::lock_guard<std::mutex> lock(mu_);
    util::append_line_durable(path_, os.str());
  }

 private:
  void load(std::uint64_t fingerprint) {
    const std::optional<util::LogLines> journal = util::read_log(path_);
    if (!journal)
      throw std::runtime_error("cannot read checkpoint journal '" + path_ +
                               "'");
    const std::vector<util::LogLine>& lines = journal->lines;
    // Version 2 added goodput / completed / shed-count columns; resuming a
    // version-1 journal would silently drop them, so it is refused.
    if (lines.empty() || lines[0].text != "sweepjournal 2")
      throw std::invalid_argument(
          "'" + path_ +
          "' is not a sweepjournal-2 checkpoint (pre-overload journals "
          "cannot be resumed; rerun without --resume)");
    std::uint64_t fp = 0;
    util::Fields header(lines.size() > 1 ? std::string_view(lines[1].text)
                                         : std::string_view());
    if (!(header.expect("fingerprint") >> fp) || !header.done())
      throw std::invalid_argument("checkpoint journal '" + path_ +
                                  "' is missing its fingerprint");
    if (fp != fingerprint)
      throw std::invalid_argument(
          "checkpoint journal '" + path_ +
          "' belongs to a different sweep grid; rerun without --resume or "
          "point --checkpoint elsewhere");
    for (std::size_t i = 2; i < lines.size(); ++i) {
      // A fully-shed cell journals its mean flow as "nan", which
      // util::parse_number reads.
      util::Fields f(lines[i].text);
      SweepTask t;
      f.expect("task") >> t.index >> t.ratio >> t.alg_flow >> t.lower_bound >>
          t.mean_flow >> t.goodput >> t.completed >> t.shed_jobs;
      if (!f.expect("ok") || !f.done())
        throw std::invalid_argument(
            "checkpoint journal '" + path_ + "' line " +
            std::to_string(lines[i].number) +
            " is corrupt (not a torn record, or a tear healed by an older "
            "build); rerun without --resume");
      t.status = TaskStatus::kOk;
      done_[t.index] = t;
    }
  }

  std::string path_;
  std::mutex mu_;
  std::map<std::size_t, SweepTask> done_;
};

/// Runs one grid point. Pure in (grid, task.index): every random choice
/// derives from task.seed, so the result is thread-count independent.
SweepTask run_one(const Grid& grid, SweepTask task) {
  const util::Stopwatch watch;
  const SweepSpec& spec = grid.spec;
  const double eps = spec.eps_grid[task.eps_i];

  util::Rng rng(task.seed);
  workload::WorkloadSpec wspec;
  wspec.jobs = spec.jobs;
  wspec.load = spec.load;
  wspec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
  wspec.sizes.class_eps = eps;
  const Instance inst =
      workload::generate(rng, grid.trees[task.tree_i], wspec);
  const SpeedProfile speeds = SpeedProfile::paper_identical(inst.tree(), eps);

  sim::EngineConfig cfg;
  const bool record = !spec.record_dir.empty();
  cfg.record_schedule = record;
  const overload::ShedConfig shed_cfg = grid.shed_config(task.shed_i);
  cfg.shed = shed_cfg;
  const auto policy =
      algo::make_policy(spec.policies[task.policy_i], inst, eps, task.seed);
  sim::Engine engine(inst, speeds, cfg);

  std::optional<overload::AdmissionController> admission;
  if (shed_cfg.enabled()) {
    admission.emplace(shed_cfg, eps);
    engine.set_admission(&*admission);
  }

  fault::FaultPlan plan;
  algo::FaultAwareGreedy redispatch(eps);
  if (!spec.fault_rates.empty()) {
    fault::FaultModel model;
    model.node_failure_rate = spec.fault_rates[task.fault_i];
    model.node_mttr = spec.fault_mttr;
    const Time last_release =
        inst.job_count() > 0 ? inst.jobs().back().release : 0.0;
    model.horizon = spec.fault_horizon > 0.0 ? spec.fault_horizon
                                             : std::max(10.0, 2.0 * last_release);
    // ~task.seed decorrelates the plan stream from the workload stream
    // (Rng(seed) itself consumes the first split_seed outputs of `seed`).
    plan = fault::generate_plan(inst.tree(), model,
                                util::split_seed(~task.seed, 1));
    engine.set_fault_plan(&plan, &redispatch);
  }
  engine.run(*policy);

  const sim::Metrics& m = engine.metrics();
  task.alg_flow = m.total_flow_time();
  task.mean_flow = m.mean_flow_time();
  task.goodput = m.goodput();
  task.completed = m.jobs().size() - m.shed_count() - m.rejected_count();
  task.shed_jobs = m.shed_count() + m.rejected_count();
  task.lower_bound = lp::combined_lower_bound(inst);
  task.ratio =
      task.lower_bound > 0.0 ? task.alg_flow / task.lower_bound : 0.0;
  if (record) {
    // One file pair per task (index-suffixed): concurrent workers never
    // share a stream, and each pair replays under treesched_audit.
    workload::write_trace_file(
        sim::task_log_path(spec.record_dir + "/trace.txt", task.index), inst);
    sim::write_run_log_file(
        sim::task_log_path(spec.record_dir + "/run.log", task.index),
        sim::make_run_log(inst, engine));
  }
  task.status = TaskStatus::kOk;
  task.wall_ms = watch.elapsed_seconds() * 1000.0;
  return task;
}

/// run_one wrapped in the transient-failure retry loop: attempt k sleeps
/// retry_backoff_ms * min(2^(k-1), 32) first, then re-runs. Determinism is
/// unaffected — a retried task re-derives everything from the same seed.
SweepTask run_with_retries(const Grid& grid, const SweepTask& task) {
  const SweepSpec& spec = grid.spec;
  for (int attempt = 1;; ++attempt) {
    try {
      if (spec.inject_fault) spec.inject_fault(task, attempt);
      SweepTask done = run_one(grid, task);
      done.attempts = attempt;
      return done;
    } catch (...) {
      if (attempt > spec.retries) throw;
      const double mult = std::min(32.0, std::ldexp(1.0, attempt - 1));
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          spec.retry_backoff_ms * mult));
    }
  }
}

}  // namespace

double probe_offered_load(const SweepSpec& in) {
  const Grid grid = resolve(in);
  const SweepSpec& spec = grid.spec;
  double worst = 0.0;
  for (const auto& tree : grid.trees)
    for (const double eps : spec.eps_grid) {
      util::Rng rng(util::split_seed(spec.base_seed, 0));
      workload::WorkloadSpec wspec;
      wspec.jobs = spec.jobs;
      wspec.load = spec.load;
      wspec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
      wspec.sizes.class_eps = eps;
      const Instance inst = workload::generate(rng, tree, wspec);
      worst = std::max(
          worst, workload::offered_load(
                     inst, SpeedProfile::paper_identical(inst.tree(), eps)));
    }
  return worst;
}

SweepResult run_sweep(const SweepSpec& in) {
  const util::Stopwatch watch;
  const Grid grid = resolve(in);
  const SweepSpec& spec = grid.spec;
  if (!spec.record_dir.empty())
    std::filesystem::create_directories(spec.record_dir);

  // Fixed task enumeration; task identity never depends on execution.
  std::vector<SweepTask> tasks;
  for (std::size_t p = 0; p < spec.policies.size(); ++p)
    for (std::size_t t = 0; t < grid.trees.size(); ++t)
      for (std::size_t e = 0; e < spec.eps_grid.size(); ++e)
        for (std::size_t f = 0; f < grid.fault_count(); ++f)
          for (std::size_t sh = 0; sh < grid.shed_count(); ++sh)
            for (int s = 0; s < spec.seeds; ++s) {
              SweepTask task;
              task.index = tasks.size();
              task.policy_i = p;
              task.tree_i = t;
              task.eps_i = e;
              task.fault_i = f;
              task.shed_i = sh;
              task.seed_index = s;
              task.seed = util::split_seed(spec.base_seed, task.index);
              tasks.push_back(task);
            }

  SweepResult result;
  result.spec = spec;
  result.threads_used =
      spec.threads == 0 ? default_thread_count() : spec.threads;
  result.tasks.resize(tasks.size());

  std::shared_ptr<Checkpoint> journal;
  if (!spec.checkpoint.empty())
    journal = std::make_shared<Checkpoint>(
        spec.checkpoint, spec_fingerprint(spec), spec.resume);

  // Satisfy resumed tasks from the journal; only the rest run.
  std::vector<SweepTask> pending;
  for (const SweepTask& task : tasks) {
    if (journal) {
      const auto it = journal->completed().find(task.index);
      if (it != journal->completed().end()) {
        SweepTask done = task;  // identity from the fresh enumeration
        done.status = TaskStatus::kOk;
        done.ratio = it->second.ratio;
        done.alg_flow = it->second.alg_flow;
        done.lower_bound = it->second.lower_bound;
        done.mean_flow = it->second.mean_flow;
        done.goodput = it->second.goodput;
        done.completed = it->second.completed;
        done.shed_jobs = it->second.shed_jobs;
        result.tasks[task.index] = done;
        ++result.resumed;
        continue;
      }
    }
    pending.push_back(task);
  }

  const bool use_pool = result.threads_used > 1 || spec.timeout_ms > 0.0;
  if (!use_pool) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (spec.cancel != nullptr &&
          spec.cancel->load(std::memory_order_relaxed)) {
        result.interrupted = true;
        for (; i < pending.size(); ++i) {
          result.tasks[pending[i].index] = pending[i];
          result.tasks[pending[i].index].status = TaskStatus::kCancelled;
        }
        break;
      }
      const SweepTask& task = pending[i];
      try {
        SweepTask done = run_with_retries(grid, task);
        if (journal) journal->record(done);
        result.tasks[task.index] = std::move(done);
      } catch (const std::exception& e) {
        result.tasks[task.index] = task;
        result.tasks[task.index].status = TaskStatus::kFailed;
        result.tasks[task.index].error = e.what();
        std::cerr << "[WARN] sweep task " << task.index
                  << " failed: " << e.what() << '\n';
      }
    }
  } else if (!pending.empty()) {
    ThreadPool pool(std::min(result.threads_used, pending.size()));
    std::vector<std::future<SweepTask>> futures;
    futures.reserve(pending.size());
    for (const SweepTask& task : pending)
      futures.push_back(pool.submit([&grid, task, journal] {
        SweepTask done = run_with_retries(grid, task);
        if (journal) journal->record(done);
        return done;
      }));
    // Any positive budget must stay a budget: sub-millisecond values would
    // otherwise truncate to 0, which the gather reads as "forever".
    const auto patience = std::chrono::milliseconds(
        spec.timeout_ms > 0.0
            ? std::max(1LL, static_cast<long long>(spec.timeout_ms))
            : 0LL);
    auto gathered = gather_cancellable(futures, patience, spec.cancel);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (gathered.values[i]) {
        result.tasks[pending[i].index] = std::move(*gathered.values[i]);
      } else {
        result.tasks[pending[i].index] = pending[i];
        result.tasks[pending[i].index].status = TaskStatus::kTimedOut;
      }
    }
    for (const auto& [i, what] : gathered.failed) {
      result.tasks[pending[i].index].status = TaskStatus::kFailed;
      result.tasks[pending[i].index].error = what;
      std::cerr << "[WARN] sweep task " << pending[i].index
                << " failed: " << what << '\n';
    }
    for (const std::size_t i : gathered.cancelled)
      result.tasks[pending[i].index].status = TaskStatus::kCancelled;
    if (!gathered.cancelled.empty()) {
      // Clean interruption: drop the queue but let in-flight tasks finish
      // (and land in the journal) while the pool joins.
      result.interrupted = true;
      pool.cancel_pending();
    }
    if (!gathered.timed_out.empty()) {
      // Skipped-task report instead of a hang: drop unstarted work and
      // detach any worker still stuck inside a task.
      std::cerr << "[WARN] sweep: " << gathered.timed_out.size()
                << " task(s) exceeded --timeout-ms; reporting them as "
                   "skipped\n";
      pool.cancel_pending();
      pool.abandon();
    }
  }

  // Per-cell aggregation, in enumeration order, from index-ordered results.
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < spec.policies.size(); ++p)
    for (std::size_t t = 0; t < grid.trees.size(); ++t)
      for (std::size_t e = 0; e < spec.eps_grid.size(); ++e)
        for (std::size_t f = 0; f < grid.fault_count(); ++f)
          for (std::size_t sh = 0; sh < grid.shed_count(); ++sh) {
          SweepCellStats cell;
          cell.policy_i = p;
          cell.tree_i = t;
          cell.eps_i = e;
          cell.fault_i = f;
          cell.shed_i = sh;
          stats::Summary ratios;
          stats::Summary flows;
          stats::Summary goodputs;
          std::vector<double> samples;
          for (int s = 0; s < spec.seeds; ++s, ++cursor) {
            const SweepTask& task = result.tasks[cursor];
            if (task.status != TaskStatus::kOk) {
              ++cell.skipped;
              continue;
            }
            ratios.add(task.ratio);
            // A fully-shed repetition has no completed jobs and a NaN mean
            // flow / goodput; the cell means average the defined ones.
            if (std::isfinite(task.mean_flow)) flows.add(task.mean_flow);
            if (std::isfinite(task.goodput)) goodputs.add(task.goodput);
            cell.completed += task.completed;
            cell.shed_jobs += task.shed_jobs;
            samples.push_back(task.ratio);
          }
          cell.count = ratios.count();
          if (cell.count > 0) {
            cell.ratio_mean = ratios.mean();
            cell.ratio_min = ratios.min();
            cell.ratio_max = ratios.max();
            cell.mean_flow = flows.count() > 0
                                 ? flows.mean()
                                 : std::numeric_limits<double>::quiet_NaN();
            cell.goodput_mean =
                goodputs.count() > 0
                    ? goodputs.mean()
                    : std::numeric_limits<double>::quiet_NaN();
            // Bootstrap stream keyed by the cell's enumeration index, not by
            // any task stream: deterministic at any thread count.
            util::Rng boot(util::split_seed(~spec.base_seed,
                                            result.cells.size()));
            const auto ci = stats::bootstrap_mean_ci(boot, samples);
            cell.ratio_ci_lo = ci.first;
            cell.ratio_ci_hi = ci.second;
          }
          result.cells.push_back(cell);
        }

  for (const SweepTask& task : result.tasks) result.task_ms_sum += task.wall_ms;
  result.wall_ms = watch.elapsed_seconds() * 1000.0;
  return result;
}

std::string sweep_json(const SweepResult& r, bool include_timing) {
  const SweepSpec& spec = r.spec;
  const bool faulty = !spec.fault_rates.empty();
  const bool shedding = !spec.shed_policies.empty();
  std::ostringstream os;
  os << "{\n  \"schema\": \"treesched-sweep-v1\",\n  \"spec\": {\n";
  os << "    \"policies\": [";
  for (std::size_t i = 0; i < spec.policies.size(); ++i)
    os << (i ? ", " : "") << quoted(spec.policies[i]);
  os << "],\n    \"trees\": [";
  for (std::size_t i = 0; i < spec.trees.size(); ++i)
    os << (i ? ", " : "") << quoted(spec.trees[i]);
  os << "],\n    \"eps\": [";
  for (std::size_t i = 0; i < spec.eps_grid.size(); ++i)
    os << (i ? ", " : "") << fmt(spec.eps_grid[i]);
  os << "],\n";
  if (faulty) {
    os << "    \"fault_rates\": [";
    for (std::size_t i = 0; i < spec.fault_rates.size(); ++i)
      os << (i ? ", " : "") << fmt(spec.fault_rates[i]);
    os << "],\n    \"fault_mttr\": " << fmt(spec.fault_mttr)
       << ",\n    \"fault_horizon\": " << fmt(spec.fault_horizon) << ",\n";
  }
  if (shedding) {
    os << "    \"shed_policies\": [";
    for (std::size_t i = 0; i < spec.shed_policies.size(); ++i)
      os << (i ? ", " : "") << quoted(spec.shed_policies[i]);
    os << "],\n    \"queue_cap\": " << fmt(spec.queue_cap)
       << ",\n    \"deadline_slack\": " << fmt(spec.deadline_slack) << ",\n";
  }
  os << "    \"seeds\": " << spec.seeds
     << ",\n    \"base_seed\": " << spec.base_seed
     << ",\n    \"jobs\": " << spec.jobs
     << ",\n    \"load\": " << fmt(spec.load)
     << ",\n    \"timeout_ms\": " << fmt(spec.timeout_ms) << "\n  },\n";

  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const SweepCellStats& c = r.cells[i];
    os << "    {\"policy\": " << quoted(spec.policies[c.policy_i])
       << ", \"tree\": " << quoted(spec.trees[c.tree_i])
       << ", \"eps\": " << fmt(spec.eps_grid[c.eps_i]);
    if (faulty)
      os << ", \"fault_rate\": " << fmt(spec.fault_rates[c.fault_i]);
    if (shedding)
      os << ", \"shed_policy\": " << quoted(spec.shed_policies[c.shed_i]);
    os << ", \"count\": " << c.count << ", \"skipped\": " << c.skipped
       << ", \"ratio_mean\": " << fmt(c.ratio_mean)
       << ", \"ratio_ci95\": [" << fmt(c.ratio_ci_lo) << ", "
       << fmt(c.ratio_ci_hi) << "]"
       << ", \"ratio_min\": " << fmt(c.ratio_min)
       << ", \"ratio_max\": " << fmt(c.ratio_max)
       << ", \"mean_flow\": " << json_num(c.mean_flow);
    if (shedding)
      os << ", \"goodput_mean\": " << json_num(c.goodput_mean)
         << ", \"completed\": " << c.completed
         << ", \"shed\": " << c.shed_jobs;
    os << "}" << (i + 1 < r.cells.size() ? "," : "") << '\n';
  }
  os << "  ],\n";

  os << "  \"tasks\": [\n";
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    const SweepTask& t = r.tasks[i];
    const char* status = t.status == TaskStatus::kOk          ? "ok"
                         : t.status == TaskStatus::kTimedOut  ? "timeout"
                         : t.status == TaskStatus::kCancelled ? "cancelled"
                                                              : "failed";
    os << "    {\"index\": " << t.index << ", \"policy\": "
       << quoted(spec.policies[t.policy_i])
       << ", \"tree\": " << quoted(spec.trees[t.tree_i])
       << ", \"eps\": " << fmt(spec.eps_grid[t.eps_i]);
    if (faulty)
      os << ", \"fault_rate\": " << fmt(spec.fault_rates[t.fault_i]);
    if (shedding)
      os << ", \"shed_policy\": " << quoted(spec.shed_policies[t.shed_i]);
    os << ", \"seed_index\": " << t.seed_index << ", \"seed\": " << t.seed
       << ", \"status\": \"" << status << "\""
       << ", \"ratio\": " << fmt(t.ratio)
       << ", \"alg_flow\": " << fmt(t.alg_flow)
       << ", \"lower_bound\": " << fmt(t.lower_bound);
    if (shedding)
      os << ", \"goodput\": " << json_num(t.goodput)
         << ", \"completed\": " << t.completed
         << ", \"shed\": " << t.shed_jobs;
    os << "}" << (i + 1 < r.tasks.size() ? "," : "") << '\n';
  }
  os << "  ],\n";

  os << "  \"skipped_tasks\": [";
  bool first = true;
  for (const SweepTask& t : r.tasks)
    if (t.status != TaskStatus::kOk) {
      os << (first ? "" : ", ") << t.index;
      first = false;
    }
  os << "]";

  if (include_timing) {
    // Everything below varies run to run; it is opt-in so the default
    // document stays byte-identical across thread counts.
    os << ",\n  \"timing\": {\"threads\": " << r.threads_used
       << ", \"wall_ms\": " << fmt(r.wall_ms)
       << ", \"task_ms_sum\": " << fmt(r.task_ms_sum)
       << ", \"resumed\": " << r.resumed
       << ", \"speedup_estimate\": "
       << fmt(r.wall_ms > 0.0 ? r.task_ms_sum / r.wall_ms : 0.0) << "}";
  }
  os << "\n}\n";
  return os.str();
}

void write_sweep_json_file(const std::string& path, const SweepResult& result,
                           bool include_timing) {
  util::write_file_atomic(path, sweep_json(result, include_timing));
}

std::string sweep_table(const SweepResult& r) {
  const bool faulty = !r.spec.fault_rates.empty();
  const bool shedding = !r.spec.shed_policies.empty();
  std::vector<std::string> headers{"policy", "tree", "eps"};
  if (faulty) headers.push_back("fault rate");
  if (shedding) headers.push_back("shed policy");
  for (const char* h : {"reps", "ratio mean", "ci95 lo", "ci95 hi",
                        "ratio max", "skipped"})
    headers.push_back(h);
  if (shedding) {
    headers.push_back("goodput");
    headers.push_back("shed");
  }
  util::Table table(headers);
  for (const SweepCellStats& c : r.cells) {
    std::vector<std::string> row{r.spec.policies[c.policy_i],
                                 r.spec.trees[c.tree_i],
                                 util::Table::num(r.spec.eps_grid[c.eps_i])};
    if (faulty) row.push_back(util::Table::num(r.spec.fault_rates[c.fault_i]));
    if (shedding) row.push_back(r.spec.shed_policies[c.shed_i]);
    row.push_back(std::to_string(c.count));
    row.push_back(util::Table::num(c.ratio_mean));
    row.push_back(util::Table::num(c.ratio_ci_lo));
    row.push_back(util::Table::num(c.ratio_ci_hi));
    row.push_back(util::Table::num(c.ratio_max));
    row.push_back(std::to_string(c.skipped));
    if (shedding) {
      row.push_back(std::isfinite(c.goodput_mean)
                        ? util::Table::num(c.goodput_mean)
                        : std::string("-"));
      row.push_back(std::to_string(c.shed_jobs));
    }
    table.add_row(row);
  }
  return table.str();
}

}  // namespace treesched::exec
