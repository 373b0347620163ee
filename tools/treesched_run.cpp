// treesched_run — schedule a trace file and report every objective.
//
//   treesched_gen --out t.txt && treesched_run --trace t.txt --policy paper
//
// Policies: paper, broomstick-mirror, closest, random, round-robin,
// least-volume, least-count, fault-greedy — or
// anycast-{closest,least-volume,greedy} for traces with arbitrary-source
// jobs. Speeds: "uniform:<s>", "paper-identical:<eps>",
// "paper-unrelated:<eps>", "layered:<rc>:<rest>".
//
// Fault injection: --fault-plan replays a JSON fault plan
// (treesched-fault-plan-v1); --fault-rate generates a seed-derived plan
// from an MTBF/MTTR model instead. Either way the run uses fault-greedy
// re-dispatch for crashed machines, and --record-out logs the fault events
// so treesched_audit can verify the recovery invariants offline.
//
// Overload protection: --shed-policy arms admission control at the root
// (bounded-queue and largest-first need --queue-cap, deadline uses
// --deadline-slack). Every shed/reject decision lands in the run log, and
// treesched_audit re-verifies caps and deadline bounds offline.
//
// Durability: streaming snapshots rotate checksummed generations under a
// manifest (--snapshot-path is the manifest; --snapshot-keep the retention
// budget) and --resume-snapshot walks the self-healing ladder, falling back
// to the newest valid generation and quarantining corrupt ones.
// --failpoints (or $TREESCHED_FAILPOINTS) arms deterministic I/O fault
// injection for the chaos tests — see util/failpoint.hpp for the spec.
//
// Supervision (--supervise): fork/execs the streaming run as a child,
// restarts it from the newest verified snapshot generation on crash
// (capped exponential backoff), trips a crash-loop breaker after
// --restart-max crashes inside --restart-window-s, and refreshes
// --health-file atomically. In-process guards for the child:
// --watchdog-window-s arms the progress watchdog (log at 1x, force
// snapshot at 2x, abort 70 at 3x the deadline) and
// --rss-ceiling-mb/--queue-ceiling/--arena-ceiling arm the resource
// governor's staged degradation ladder (streaming metrics -> shrink window
// -> tighten shed -> abort 71), every transition recorded in --guard-log
// for treesched_audit --guard. SIGINT/SIGTERM during --stream flush the
// open segment, write a final snapshot generation, and exit 130 —
// resumable.
//
// Exit codes: 0 = clean, 64 = usage/config error (bad flag, unknown
// policy/speed/node-policy name, malformed fault plan), 2 = --validate
// found an audit violation, 1 = runtime error (unreadable trace, I/O),
// 130 = stopped by --die-at-snapshot or a graceful SIGINT/SIGTERM.
// Resume-ladder outcomes: 65 = every snapshot generation
// corrupt/unrecoverable (quarantine report written), 66 = no snapshot
// manifest at the resume path, 67 = snapshot is clean but from a different
// run spec. Supervision outcomes: 69 = crash-loop breaker gave up, 70 =
// watchdog abort (wedged window, snapshot intact), 71 = governor abort
// (ladder exhausted, snapshot intact).
#include <algorithm>
#include <atomic>
#include <csignal>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include <unistd.h>

#include "spec_parse.hpp"
#include "treesched/algo/anycast.hpp"
#include "treesched/exec/snapshot_store.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/guard/config.hpp"
#include "treesched/guard/supervisor.hpp"
#include "treesched/treesched.hpp"
#include "treesched/util/failpoint.hpp"
#include "treesched/util/fs.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/mem.hpp"
#include "treesched/util/stopwatch.hpp"

using namespace treesched;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 64;
constexpr int kExitValidation = 2;
constexpr int kExitRuntime = 1;
/// Streaming run stopped deliberately by --die-at-snapshot (mirrors the
/// exit status of a SIGINT kill, which it stands in for).
constexpr int kExitInterrupted = 130;
/// Resume ladder exhausted: every snapshot generation failed verification
/// (EX_DATAERR). The corrupt files are quarantined, never deleted.
constexpr int kExitSnapshotCorrupt = 65;
/// --resume-snapshot points at a path with no snapshot manifest (EX_NOINPUT).
constexpr int kExitSnapshotMissing = 66;
/// Snapshot verified clean but was taken under a different run spec.
constexpr int kExitSpecMismatch = 67;
/// Watchdog abort: the stream window made no progress for 3x the deadline.
/// The snapshot generation forced at 2x is intact.
constexpr int kExitWatchdogAbort = 70;
/// Governor abort: resource ceilings still breached after the full
/// degradation ladder. A snapshot generation is intact.
constexpr int kExitGovernorAbort = 71;

/// Graceful-stop flag for --stream: SIGINT/SIGTERM set it, the runner polls
/// it at arrival boundaries and shuts down resumably.
std::atomic<bool> g_cancel{false};
void on_cancel_signal(int /*sig*/) { g_cancel.store(true); }

/// Rebuilds this process's argv for the supervised child: drops the
/// supervisor-only options (the child must not supervise recursively, and
/// the supervisor decides resume itself) in both `--flag value` and
/// `--flag=value` spellings, then appends the child-side guard plumbing.
std::vector<std::string> build_child_argv(
    int argc, char** argv, const std::string& status_file,
    const std::string& guard_log) {
  static const std::set<std::string> kDropValued = {
      "--health-file",    "--heartbeat-deadline-s", "--restart-max",
      "--restart-window-s", "--backoff-base-s",     "--backoff-cap-s",
      "--resume-snapshot", "--guard-status",        "--guard-log"};
  static const std::set<std::string> kDropFlags = {"--supervise"};

  std::vector<std::string> out;
  char exe[4096];
  const ::ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n > 0) {
    exe[n] = '\0';
    out.emplace_back(exe);
  } else {
    out.emplace_back(argv[0]);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string head = arg.substr(0, arg.find('='));
    if (kDropFlags.count(head) != 0) continue;
    if (kDropValued.count(head) != 0) {
      if (arg.find('=') == std::string::npos && i + 1 < argc) ++i;
      continue;
    }
    out.push_back(arg);
  }
  if (!status_file.empty()) {
    out.push_back("--guard-status");
    out.push_back(status_file);
  }
  if (!guard_log.empty()) {
    out.push_back("--guard-log");
    out.push_back(guard_log);
  }
  return out;
}

SpeedProfile parse_speeds(const std::string& spec, const Tree& tree) {
  const auto parts = util::split(spec, ':');
  const std::string kind = parts[0];
  auto arg = [&parts, &spec](std::size_t i, double def) {
    if (i >= parts.size()) return def;
    try {
      return std::stod(parts[i]);
    } catch (const std::exception&) {
      throw std::invalid_argument("--speeds '" + spec + "': '" + parts[i] +
                                  "' is not a number");
    }
  };
  if (kind == "uniform") return SpeedProfile::uniform(tree, arg(1, 1.0));
  if (kind == "paper-identical")
    return SpeedProfile::paper_identical(tree, arg(1, 0.5));
  if (kind == "paper-unrelated")
    return SpeedProfile::paper_unrelated(tree, arg(1, 0.5));
  if (kind == "layered")
    return SpeedProfile::layered(tree, arg(1, 1.0), arg(2, 1.5));
  throw std::invalid_argument(
      "unknown speed spec '" + spec +
      "' (want uniform:<s>, paper-identical:<eps>, paper-unrelated:<eps>, "
      "or layered:<rc>:<rest>)");
}

bool has_custom_sources(const Instance& inst) {
  for (const Job& j : inst.jobs())
    if (j.source != kInvalidNode) return true;
  return false;
}

/// Writes the run log to `record_out` (if set) and, with `validate`, audits
/// the same log offline. Returns false when the audit finds a violation.
bool record_and_validate(const Instance& inst, const sim::RunLog& log,
                         const std::string& record_out, bool validate) {
  if (!record_out.empty()) sim::write_run_log_file(record_out, log);
  if (!validate) return true;
  const sim::AuditReport rep = sim::audit_run(inst, log);
  std::cout << "validation         : " << rep.summary() << '\n';
  return rep.ok;
}

sim::NodePolicy parse_node_policy(const std::string& name) {
  if (name == "sjf") return sim::NodePolicy::kSjf;
  if (name == "fifo") return sim::NodePolicy::kFifo;
  if (name == "srpt") return sim::NodePolicy::kSrpt;
  if (name == "lcfs") return sim::NodePolicy::kLcfs;
  if (name == "hdf") return sim::NodePolicy::kHdf;
  throw std::invalid_argument("unknown node policy '" + name +
                              "' (want sjf|fifo|srpt|lcfs|hdf)");
}

/// --progress-every heartbeat for monolithic (whole-trace) runs. Wall time
/// comes from util::Stopwatch — the sanctioned clock shim — so the simulation
/// stays deterministic and the det-wallclock lint rule stays quiet.
class ProgressBeat final : public sim::EngineObserver {
 public:
  ProgressBeat(double every, std::size_t total) : every_(every), total_(total) {}

  void on_event(const sim::Engine& engine, Time t) override {
    if (watch_.elapsed_seconds() - last_ < every_) return;
    last_ = watch_.elapsed_seconds();
    std::cerr << "[run] jobs " << engine.metrics().completed_count() << '/'
              << total_ << " simtime " << t << " rss "
              << util::current_rss_bytes() / (1024 * 1024) << "MB\n";
  }

 private:
  util::Stopwatch watch_;
  double every_;
  double last_ = 0.0;
  std::size_t total_;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("treesched_run", "Run a policy on a trace and report metrics.");
  auto& trace = cli.add_string("trace", "", "input trace path (required)");
  auto& policy_name = cli.add_string("policy", "paper", "assignment policy");
  auto& speeds_spec = cli.add_string("speeds", "paper-identical:0.5",
                                     "speed profile spec");
  auto& eps = cli.add_double("eps", 0.5, "epsilon for the paper rule");
  auto& node_policy = cli.add_string("node-policy", "sjf",
                                     "sjf|fifo|srpt|lcfs|hdf");
  auto& chunk = cli.add_double("chunk", 0.0,
                               "pipelined router chunk size (0=off)");
  auto& fault_plan_path = cli.add_string(
      "fault-plan", "", "JSON fault plan to inject (treesched-fault-plan-v1)");
  auto& fault_rate = cli.add_double(
      "fault-rate", 0.0, "generate a fault plan: node crashes per time unit");
  auto& fault_mttr = cli.add_double("fault-mttr", 5.0,
                                    "mean time to repair for generated plans");
  auto& fault_horizon = cli.add_double(
      "fault-horizon", 0.0, "generated-plan horizon (0 = auto from releases)");
  auto& shed_policy = cli.add_string(
      "shed-policy", "none",
      "admission control: none|bounded-queue|largest-first|deadline");
  auto& queue_cap = cli.add_double(
      "queue-cap", 0.0,
      "root-cut volume cap for bounded-queue/largest-first shedding");
  auto& deadline_slack = cli.add_double(
      "deadline-slack", 8.0, "deadline shedding admits iff F <= slack * p_j");
  auto& validate = cli.add_flag(
      "validate", "audit the recorded schedule (as treesched_audit does)");
  auto& record_out = cli.add_string(
      "record-out", "", "write the burst log here for treesched_audit");
  auto& with_lb = cli.add_flag("lb", "also compute the certified lower bound");
  auto& seed = cli.add_int("seed", 1, "seed for randomized policies");
  auto& progress_every = cli.add_double(
      "progress-every", 0.0, "stderr heartbeat period in seconds (0=off)");
  auto& stream_mode = cli.add_flag(
      "stream", "streaming endurance mode: generate arrivals on the fly "
                "instead of reading --trace (bounded memory)");
  auto& tree_spec = cli.add_string("tree", "fat:2x2x2",
                                   "streaming: topology spec (as treesched_gen)");
  auto& stream_jobs = cli.add_int("stream-jobs", 100000,
                                  "streaming: total arrivals to run");
  auto& load = cli.add_double("load", 0.7,
                              "streaming: root-cut utilization target");
  auto& sizes_name = cli.add_string(
      "sizes", "pareto", "streaming: fixed|uniform|exp|pareto|bimodal");
  auto& scale = cli.add_double("scale", 8.0, "streaming: size scale");
  auto& class_eps = cli.add_double(
      "class-eps", 0.0, "streaming: round sizes to powers of 1+eps (0=off)");
  auto& window = cli.add_int(
      "window", 4096,
      "streaming: jobs per engine window (results are window-invariant)");
  auto& segment_cap = cli.add_int(
      "segment-cap", 4096, "streaming: run-log payload lines per segment");
  auto& snapshot_every = cli.add_int(
      "snapshot-every", 0, "streaming: arrivals between snapshots (0=off)");
  auto& snapshot_path = cli.add_string(
      "snapshot-path", "",
      "streaming: snapshot manifest path (generations land as .genNNN)");
  auto& snapshot_keep = cli.add_int(
      "snapshot-keep", 3,
      "streaming: healthy snapshot generations to retain (>= 1)");
  auto& resume_snapshot = cli.add_string(
      "resume-snapshot", "",
      "streaming: resume from the snapshot manifest at this path (falls "
      "back across corrupt generations)");
  auto& die_at_snapshot = cli.add_int(
      "die-at-snapshot", 0,
      "streaming: exit 130 right after this process writes its N-th "
      "snapshot (deterministic kill for endurance tests)");
  auto& metrics_json = cli.add_string(
      "metrics-json", "",
      "streaming: write final metrics as JSON here (full precision, "
      "byte-stable across kill-and-resume)");
  auto& failpoints = cli.add_string(
      "failpoints", "",
      "arm deterministic I/O fault injection: site:kind:nth,... "
      "(chaos testing; also read from $TREESCHED_FAILPOINTS)");
  auto& supervise = cli.add_flag(
      "supervise", "streaming: run as a supervised child with auto-restart "
                   "from the newest verified snapshot generation");
  auto& health_file = cli.add_string(
      "health-file", "",
      "supervise: status JSON (pid, state, restarts, window, rho_hat, "
      "stage), refreshed atomically");
  auto& heartbeat_deadline = cli.add_double(
      "heartbeat-deadline-s", 0.0,
      "supervise: SIGKILL + restart a child whose status-file arrivals "
      "freeze this long (0=off)");
  auto& restart_max = cli.add_int(
      "restart-max", 5,
      "supervise: crash-loop breaker — give up (exit 69) after this many "
      "crashes inside --restart-window-s");
  auto& restart_window = cli.add_double(
      "restart-window-s", 60.0, "supervise: crash-loop breaker window");
  auto& backoff_base = cli.add_double(
      "backoff-base-s", 0.5, "supervise: first restart backoff (doubles per "
                             "consecutive crash)");
  auto& backoff_cap = cli.add_double("backoff-cap-s", 30.0,
                                     "supervise: restart backoff ceiling");
  auto& watchdog_window = cli.add_double(
      "watchdog-window-s", 0.0,
      "streaming: wall-clock progress deadline per stream window — log at "
      "1x, force snapshot at 2x, abort 70 at 3x (0=off)");
  auto& rss_ceiling_mb = cli.add_int(
      "rss-ceiling-mb", 0,
      "streaming: governor RSS ceiling in MB (0=unchecked)");
  auto& queue_ceiling = cli.add_int(
      "queue-ceiling", 0,
      "streaming: governor ceiling on engine event-queue entries (0=off)");
  auto& arena_ceiling = cli.add_int(
      "arena-ceiling", 0,
      "streaming: governor ceiling on engine job-arena slots (0=off)");
  auto& guard_log = cli.add_string(
      "guard-log", "",
      "streaming: guard sidecar log (watchdog/governor/supervisor events; "
      "audited by treesched_audit --guard)");
  auto& guard_status = cli.add_string(
      "guard-status", "",
      "streaming: child status JSON for the supervisor's wedge watch "
      "(defaults to <health-file>.child under --supervise)");
  auto& guard_stall_at = cli.add_int(
      "guard-stall-at", 0,
      "TEST ONLY: freeze at this global arrival for --guard-stall-s "
      "seconds (wedged-window stand-in)");
  auto& guard_stall_s = cli.add_double(
      "guard-stall-s", 0.0, "TEST ONLY: stall duration in wall seconds");

  try {
    cli.parse(argc, argv);
    // The supervisor must NOT arm failpoints in its own process: health and
    // guard-log writes go through the same fs seams the chaos battery
    // targets, and the spec is meant for the CHILD — it reaches it via the
    // pass-through argv / inherited environment.
    if (!supervise) {
      util::arm_failpoints_from_env();
      if (!failpoints.empty()) util::arm_failpoints(failpoints);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\nrun with --help for usage\n";
    return kExitUsage;
  }

  if (supervise) {
    try {
      if (!stream_mode)
        throw std::invalid_argument("--supervise requires --stream");
      if (restart_max <= 0)
        throw std::invalid_argument("--restart-max must be positive");
      guard::SupervisorConfig sup;
      sup.snapshot_base = snapshot_path;
      sup.health_file = health_file;
      sup.child_status_file = guard_status;
      if (sup.child_status_file.empty() && !health_file.empty())
        sup.child_status_file = health_file + ".child";
      sup.guard_log = guard_log;
      sup.heartbeat_deadline_s = heartbeat_deadline;
      sup.restart.breaker_max = static_cast<std::size_t>(restart_max);
      sup.restart.breaker_window_s = restart_window;
      sup.restart.backoff_base_s = backoff_base;
      sup.restart.backoff_cap_s = backoff_cap;
      sup.child_argv =
          build_child_argv(argc, argv, sup.child_status_file, guard_log);
      return guard::run_supervisor(sup);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\nrun with --help for usage\n";
      return kExitUsage;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return kExitRuntime;
    }
  }

  try {
    if (eps <= 0.0)
      throw std::invalid_argument("--eps must be positive");

    if (stream_mode) {
      if (!trace.empty())
        throw std::invalid_argument(
            "--stream generates its own arrivals; drop --trace");
      if (!fault_plan_path.empty() || fault_rate > 0.0)
        throw std::invalid_argument(
            "--stream does not support fault injection");
      if (chunk != 0.0)
        throw std::invalid_argument(
            "--stream needs --chunk 0 (whole-job forwarding)");
      if (validate)
        throw std::invalid_argument(
            "--validate has no streaming mode; record with --record-out and "
            "run treesched_audit --segments instead");
      if (with_lb)
        throw std::invalid_argument(
            "--lb needs the whole instance up front; not available with "
            "--stream");
      if (stream_jobs <= 0)
        throw std::invalid_argument("--stream-jobs must be positive");
      if (load <= 0.0)
        throw std::invalid_argument("--load must be positive");

      overload::ShedConfig shed_cfg;
      shed_cfg.policy = overload::parse_shed_policy(shed_policy);
      shed_cfg.queue_cap = queue_cap;
      shed_cfg.deadline_slack = deadline_slack;

      util::Rng tree_rng(static_cast<std::uint64_t>(seed));
      auto tree =
          std::make_shared<const Tree>(tools::parse_tree(tree_spec, tree_rng));
      const SpeedProfile speeds = parse_speeds(speeds_spec, *tree);

      exec::StreamRunnerConfig scfg;
      scfg.stream.seed = static_cast<std::uint64_t>(seed);
      scfg.stream.sizes.dist = tools::parse_sizes(sizes_name);
      scfg.stream.sizes.scale = scale;
      scfg.stream.sizes.class_eps = class_eps;
      scfg.stream.lambda = workload::arrival_rate_for_load(
          static_cast<int>(tree->root_children().size()),
          scfg.stream.sizes.mean(), load);
      scfg.total_jobs = static_cast<std::uint64_t>(stream_jobs);
      scfg.window = static_cast<std::size_t>(window);
      scfg.policy = policy_name;
      scfg.eps = eps;
      scfg.policy_seed = static_cast<std::uint64_t>(seed);
      scfg.node_policy = parse_node_policy(node_policy);
      scfg.shed = shed_cfg;
      scfg.record_path = record_out;
      scfg.segment_cap = static_cast<std::size_t>(segment_cap);
      scfg.snapshot_every = static_cast<std::uint64_t>(snapshot_every);
      scfg.snapshot_path = snapshot_path;
      scfg.snapshot_keep = static_cast<int>(snapshot_keep);
      scfg.resume_snapshot = resume_snapshot;
      scfg.die_after_snapshot = static_cast<std::uint64_t>(die_at_snapshot);
      scfg.progress_every = progress_every;
      scfg.guard.watchdog.window_deadline_s = watchdog_window;
      scfg.guard.governor.rss_ceiling_bytes =
          static_cast<std::uint64_t>(rss_ceiling_mb) * 1024 * 1024;
      scfg.guard.governor.queue_ceiling =
          static_cast<std::size_t>(queue_ceiling);
      scfg.guard.governor.arena_ceiling =
          static_cast<std::size_t>(arena_ceiling);
      scfg.guard.guard_log = guard_log;
      scfg.status_file = guard_status;
      scfg.guard_stall_at = static_cast<std::uint64_t>(guard_stall_at);
      scfg.guard_stall_s = guard_stall_s;
      scfg.cancel = &g_cancel;

      // Graceful SIGINT/SIGTERM: flush the open segment, write a final
      // snapshot generation, exit 130 — resumable.
      struct ::sigaction sa{};
      sa.sa_handler = &on_cancel_signal;
      ::sigemptyset(&sa.sa_mask);
      ::sigaction(SIGINT, &sa, nullptr);
      ::sigaction(SIGTERM, &sa, nullptr);

      const exec::StreamRunnerResult res =
          exec::run_stream(tree, speeds, scfg);
      if (res.cancelled) {
        std::cerr << "[stream] interrupted at arrival " << res.arrivals
                  << "; segments flushed"
                  << (snapshot_path.empty()
                          ? std::string()
                          : ", resume with --resume-snapshot " +
                                snapshot_path)
                  << '\n';
        return kExitInterrupted;
      }
      if (res.interrupted) {
        std::cerr << "[stream] stopping after snapshot " << res.snapshots_written
                  << " (--die-at-snapshot); resume with --resume-snapshot "
                  << snapshot_path << '\n';
        return kExitInterrupted;
      }

      const sim::StreamAccumulator& a = res.acc;
      const double mean_flow =
          a.completed > 0 ? a.flow.value() / static_cast<double>(a.completed)
                          : 0.0;
      std::cout << "policy             : " << policy_name << " (streaming)\n"
                << "arrivals           : " << res.arrivals << '\n'
                << "completed          : " << a.completed << '\n'
                << "shed               : " << a.shed << '\n'
                << "rejected           : " << a.rejected << '\n'
                << "total flow time    : " << a.flow.value() << '\n'
                << "mean flow time     : " << mean_flow << '\n'
                << "max flow time      : " << a.max_flow << '\n'
                << "fractional flow    : " << a.frac.value() << '\n'
                << "weighted flow      : " << a.weighted_flow.value() << '\n'
                << "makespan           : " << a.makespan << '\n'
                << "p50 flow (digest)  : " << a.flow_digest.quantile(0.5)
                << '\n'
                << "p99 flow (digest)  : " << a.flow_digest.quantile(0.99)
                << '\n'
                << "p99 flow (marker)  : " << a.p99_marker.estimate() << '\n'
                << "max window         : " << res.max_window << '\n'
                << "segments written   : " << res.segments_written << '\n'
                << "peak rss           : "
                << util::peak_rss_bytes() / (1024 * 1024) << " MB\n";
      if (!metrics_json.empty()) {
        // Only run-invariant quantities (identical whether or not the run
        // was killed and resumed) — this file is the byte-cmp artifact of
        // the endurance differential, so process-local stats like
        // max_window or segments-written-by-this-process must stay out.
        std::ostringstream js;
        js << std::setprecision(17);
        js << "{\n"
           << "  \"format\": \"treesched-stream-metrics-v2\",\n"
           << "  \"arrivals\": " << res.arrivals << ",\n"
           << "  \"completed\": " << a.completed << ",\n"
           << "  \"shed\": " << a.shed << ",\n"
           << "  \"rejected\": " << a.rejected << ",\n"
           << "  \"total_flow\": " << a.flow.value() << ",\n"
           << "  \"weighted_flow\": " << a.weighted_flow.value() << ",\n"
           << "  \"fractional_flow\": " << a.frac.value() << ",\n"
           << "  \"shed_volume\": " << a.shed_volume.value() << ",\n"
           << "  \"max_flow\": " << a.max_flow << ",\n"
           << "  \"makespan\": " << a.makespan << ",\n"
           << "  \"p50_digest\": " << a.flow_digest.quantile(0.5) << ",\n"
           << "  \"p90_digest\": " << a.flow_digest.quantile(0.9) << ",\n"
           << "  \"p99_digest\": " << a.flow_digest.quantile(0.99) << ",\n"
           << "  \"p99_marker\": " << a.p99_marker.estimate();
        if (shed_cfg.enabled())
          // Saturation telemetry rides in the byte-cmp artifact: the
          // fingerprint makes the estimator's kill/resume round-trip
          // load-bearing in the endurance differential.
          js << ",\n  \"rho_hat_root\": " << res.rho_hat_root
             << ",\n  \"overload_state_fp\": "
             << util::fnv1a_64(res.overload_state);
        js << "\n}\n";
        util::write_file_atomic(metrics_json, js.str());
      }
      return kExitOk;
    }

    if (trace.empty())
      throw std::invalid_argument("--trace is required (make one with "
                                  "treesched_gen --out trace.txt)");
    if (!fault_plan_path.empty() && fault_rate > 0.0)
      throw std::invalid_argument(
          "--fault-plan and --fault-rate are mutually exclusive");
    if (fault_rate < 0.0)
      throw std::invalid_argument("--fault-rate must be non-negative");
    const bool faulty = !fault_plan_path.empty() || fault_rate > 0.0;

    overload::ShedConfig shed_cfg;
    shed_cfg.policy = overload::parse_shed_policy(shed_policy);
    shed_cfg.queue_cap = queue_cap;
    shed_cfg.deadline_slack = deadline_slack;
    overload::validate_shed_config(shed_cfg);
    if (shed_cfg.enabled()) {
      if (chunk != 0.0)
        throw std::invalid_argument(
            "load shedding needs --chunk 0 (whole-job forwarding)");
    }

    const Instance inst = workload::read_trace_file(trace);
    const SpeedProfile speeds = parse_speeds(speeds_spec, inst.tree());
    const double rho = workload::offered_load(inst, speeds);
    if (rho >= 1.0 && !shed_cfg.enabled())
      std::cerr << "warning: offered load rho=" << rho
                << " >= 1: the trace saturates the root cut at these speeds "
                   "and flow times diverge with it (consider --shed-policy)\n";

    sim::EngineConfig cfg;
    cfg.shed = shed_cfg;
    cfg.router_chunk_size = chunk;
    cfg.record_schedule = validate || !record_out.empty();
    cfg.node_policy = parse_node_policy(node_policy);

    if (faulty) {
      if (chunk != 0.0)
        throw std::invalid_argument(
            "fault injection needs --chunk 0 (store-and-forward routing)");
      if (util::starts_with(policy_name, "anycast-") ||
          has_custom_sources(inst))
        throw std::invalid_argument(
            "fault injection is not supported for anycast/arbitrary-source "
            "traces");
    }

    sim::Metrics metrics;
    if (util::starts_with(policy_name, "anycast-") ||
        has_custom_sources(inst)) {
      if (shed_cfg.enabled())
        throw std::invalid_argument(
            "load shedding is not supported for anycast/arbitrary-source "
            "traces");
      algo::AnycastStrategy strategy = algo::AnycastStrategy::kGreedy;
      if (policy_name == "anycast-closest")
        strategy = algo::AnycastStrategy::kClosest;
      else if (policy_name == "anycast-least-volume")
        strategy = algo::AnycastStrategy::kLeastVolume;
      else if (policy_name != "anycast-greedy" && policy_name != "paper")
        throw std::invalid_argument(
            "trace has arbitrary-source jobs; use an anycast-* policy");
      std::vector<std::vector<NodeId>> paths;
      sim::ScheduleRecorder recorder;
      metrics = algo::run_anycast(inst, speeds, strategy, cfg, &paths,
                                  &recorder);
      if (cfg.record_schedule &&
          !record_and_validate(
              inst, sim::make_run_log(inst, speeds, cfg, recorder, metrics,
                                      paths),
              record_out, validate))
        return kExitValidation;
      std::cout << "policy             : "
                << algo::anycast_strategy_name(strategy) << '\n';
    } else {
      auto policy = algo::make_policy(policy_name, inst, eps,
                                      static_cast<std::uint64_t>(seed));
      sim::Engine engine(inst, speeds, cfg);

      std::optional<ProgressBeat> beat;
      if (progress_every > 0.0) {
        beat.emplace(progress_every, inst.jobs().size());
        engine.set_observer(&*beat);
      }

      std::optional<overload::AdmissionController> admission;
      if (shed_cfg.enabled()) {
        admission.emplace(shed_cfg, eps);
        engine.set_admission(&*admission);
      }

      fault::FaultPlan plan;
      algo::FaultAwareGreedy redispatch(eps);
      if (faulty) {
        if (!fault_plan_path.empty()) {
          plan = fault::read_plan_file(fault_plan_path);
        } else {
          fault::FaultModel model;
          model.node_failure_rate = fault_rate;
          model.node_mttr = fault_mttr;
          const Time last_release =
              inst.job_count() > 0 ? inst.jobs().back().release : 0.0;
          model.horizon = fault_horizon > 0.0
                              ? fault_horizon
                              : std::max(10.0, 2.0 * last_release);
          plan = fault::generate_plan(
              inst.tree(), model,
              util::split_seed(~static_cast<std::uint64_t>(seed), 1));
        }
        plan.validate(inst.tree());
        engine.set_fault_plan(&plan, &redispatch);
      }

      engine.run(*policy);
      if (cfg.record_schedule &&
          !record_and_validate(inst, sim::make_run_log(inst, engine),
                               record_out, validate))
        return kExitValidation;
      metrics = engine.metrics();
      std::cout << "policy             : " << policy->name() << '\n';
      if (faulty) {
        std::size_t redispatches = 0;
        for (const auto& fr : engine.fault_log())
          if (fr.kind == sim::FaultRecord::Kind::kRedispatch) ++redispatches;
        std::cout << "fault events       : "
                  << engine.fault_log().size() - redispatches << '\n'
                  << "re-dispatches      : " << redispatches << '\n';
      }
    }

    std::cout << "jobs               : " << metrics.jobs().size() << '\n'
              << "total flow time    : " << metrics.total_flow_time() << '\n'
              << "mean flow time     : " << metrics.mean_flow_time() << '\n'
              << "max flow time      : " << metrics.max_flow_time() << '\n'
              << "l2 norm            : " << metrics.lk_norm_flow_time(2.0)
              << '\n'
              << "fractional flow    : "
              << metrics.total_fractional_flow_time() << '\n'
              << "weighted flow      : "
              << metrics.total_weighted_flow_time() << '\n'
              << "makespan           : " << metrics.makespan() << '\n';
    if (shed_cfg.enabled())
      std::cout << "offered load rho   : " << rho << '\n'
                << "admitted           : " << metrics.admitted_count() << '\n'
                << "rejected           : " << metrics.rejected_count() << '\n'
                << "shed               : " << metrics.shed_count() << '\n'
                << "shed volume        : " << metrics.shed_volume() << '\n'
                << "goodput            : " << metrics.goodput() << '\n'
                << "p99 flow time      : " << metrics.flow_percentile(0.99)
                << '\n';
    if (with_lb) {
      const double lb = lp::combined_lower_bound(inst);
      std::cout << "OPT lower bound    : " << lb << '\n'
                << "flow / lower bound : " << metrics.total_flow_time() / lb
                << '\n';
    }
  } catch (const exec::SnapshotSpecMismatchError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitSpecMismatch;
  } catch (const guard::WatchdogAbortError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitWatchdogAbort;
  } catch (const guard::GovernorAbortError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitGovernorAbort;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\nrun with --help for usage\n";
    return kExitUsage;
  } catch (const exec::SnapshotMissingError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitSnapshotMissing;
  } catch (const exec::SnapshotUnrecoverableError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitSnapshotCorrupt;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return kExitRuntime;
  }
  return kExitOk;
}
