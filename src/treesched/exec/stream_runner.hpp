// Streaming endurance driver: unbounded arrival streams over a bounded
// memory footprint.
//
// The engine's Instance is immutable and sized up front, so an endurance run
// cannot hand it 10^8 jobs. Instead the runner windows the stream: it
// generates arrivals lazily (workload::JobStream), admits them into an
// engine built over the current window, and
//
//  * rotates when the system drains before the next arrival — a quiescent
//    instant: the finished window's records are dropped, a fresh engine over
//    the next window carries the metrics forward through the streaming
//    accumulator (sim::Metrics::enable_streaming);
//  * extends when the next arrival lands while work is in flight: the live
//    engine grows in memory (Engine::extend) to an instance over a window
//    one quantum longer, keeping every piece of its state.
//
// Because rotation happens only at quiescent instants and extension keeps
// the engine as it is, every schedule decision, metric bit, and run-log
// byte is INDEPENDENT of the window quantum — the windowing is invisible.
// Window memory follows the busy period: a stream that never drains keeps
// every job since the last rotation in its window.
//
// Snapshots: every `snapshot_every` arrivals the runner force-commits the
// segmented run log and writes one checksummed snapshot GENERATION
// (exec/snapshot_store.hpp): a treesched-snapshot-v2 envelope holding the
// stream cursors, policy decision state, writer chain position, the engine
// state (live jobs only; retired ones are a status letter — see
// sim/snapshot.cpp), and — when shedding is on — the admission controller's
// saturation estimator. Generations rotate under a manifest with a keep
// budget. A run resumed from a snapshot replays byte-identically: same
// metrics bits, same segment files, same manifest — the kill-and-resume
// differential the endurance CI leg checks. Snapshot points sit at arrival
// boundaries, after a full recorder drain, which is what makes them safe
// commit points for the segment writer.
//
// Resume walks a SELF-HEALING LADDER: generations are verified newest
// first; a missing or corrupt generation is skipped (corrupt files are
// quarantined, never deleted) and the run falls back to the newest valid
// one, cross-checking the segmented run-log chain as it lands. A clean
// snapshot from a different run spec raises SnapshotSpecMismatchError; no
// manifest at all raises SnapshotMissingError; a fully exhausted ladder
// raises SnapshotUnrecoverableError with a one-line actionable report —
// treesched_run maps the three to distinct exit codes.
//
// Streaming restrictions (TS_REQUIREd or rejected eagerly): Poisson root
// arrivals with unit weights, identical endpoints, whole-job forwarding
// (chunk 0), no fault injection, and a policy whose decision state
// round-trips through AssignmentPolicy::stream_state (paper, closest,
// random, round-robin, least-volume, least-count, two-choice).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "treesched/core/speed_profile.hpp"
#include "treesched/core/tree.hpp"
#include "treesched/guard/config.hpp"
#include "treesched/overload/config.hpp"
#include "treesched/sim/metrics.hpp"
#include "treesched/sim/priority.hpp"
#include "treesched/workload/stream.hpp"

namespace treesched::exec {

struct StreamRunnerConfig {
  workload::StreamSpec stream;   ///< the arrival process
  std::uint64_t total_jobs = 0;  ///< arrivals to consume; > 0
  /// Window quantum: jobs per engine window (and per extension step). Pure
  /// memory/speed tuning — results are window-invariant (see file comment).
  std::size_t window = 4096;
  std::string policy = "paper";
  double eps = 0.5;
  std::uint64_t policy_seed = 1;  ///< for the randomized policies
  sim::NodePolicy node_policy = sim::NodePolicy::kSjf;
  overload::ShedConfig shed;     ///< admission control (validated eagerly)
  /// Segmented run-log manifest path ("" = no recording).
  std::string record_path;
  std::size_t segment_cap = 4096;
  /// Arrivals between snapshots (0 = no snapshots; requires snapshot_path).
  std::uint64_t snapshot_every = 0;
  /// Snapshot manifest path; generations land next to it as .genNNN files.
  std::string snapshot_path;
  /// Healthy snapshot generations to retain (--snapshot-keep, >= 1).
  int snapshot_keep = 3;
  /// Resume from the snapshot manifest at this path instead of starting
  /// fresh ("" = fresh). Resume verifies generations newest-first and falls
  /// back across corrupt ones (see the file comment).
  std::string resume_snapshot;
  /// Exit right after writing the N-th snapshot of THIS process (0 = never)
  /// — the deterministic stand-in for kill -9 in the endurance smoke tests.
  std::uint64_t die_after_snapshot = 0;
  /// Seconds between stderr heartbeats (0 = silent).
  double progress_every = 0.0;
  /// Supervision: watchdog deadline, governor ceilings, guard sidecar log
  /// (guard/config.hpp). Guard events never touch a run-log or metric byte —
  /// they are wall-clock-driven, so they live outside the deterministic
  /// fingerprint chain. The governor's window shrinking adjusts only the
  /// RUNTIME quantum; `window` above stays the spec identity, so snapshots
  /// from a degraded run still resume under the original flags.
  guard::GuardConfig guard;
  /// Child status JSON (treesched-child-status-v1) refreshed atomically a
  /// few times per second for the supervisor's wedge watch ("" = off).
  std::string status_file;
  /// TEST ONLY: when global arrival N is reached, freeze (poll loop, status
  /// writes and watchdog polls continue, arrivals do not) for guard_stall_s
  /// wall seconds — the deterministic stand-in for a wedged window in the
  /// watchdog/breaker end-to-end tests. 0 = off.
  std::uint64_t guard_stall_at = 0;
  double guard_stall_s = 0.0;
  /// Graceful-stop flag (set by the SIGINT/SIGTERM handler), polled at
  /// arrival boundaries: when it goes true the runner flushes the open
  /// segment, writes one final snapshot generation, and returns with
  /// cancelled=true (treesched_run exits 130; resumable).
  const std::atomic<bool>* cancel = nullptr;
};

struct StreamRunnerResult {
  /// True when die_after_snapshot stopped the run early.
  bool interrupted = false;
  /// True when the cancel flag (SIGINT/SIGTERM) stopped the run early; the
  /// open segment was flushed and a final snapshot generation written.
  bool cancelled = false;
  /// Deepest degradation-ladder stage the governor reached this process.
  guard::Stage stage = guard::Stage::kNormal;
  std::uint64_t arrivals = 0;       ///< arrivals processed (admit or reject)
  std::uint64_t snapshots_written = 0;  ///< by this process
  std::size_t max_window = 0;       ///< peak window size (extension depth)
  std::size_t segments_written = 0; ///< run-log segments closed
  /// The streaming metrics accumulator at the end of the run (complete only
  /// when !interrupted).
  sim::StreamAccumulator acc;
  /// Serialized AdmissionController durable state (the saturation
  /// estimator's windowed readings) at the end of the run; empty when
  /// shedding is off. Chaos tests byte-compare it across kill/resume.
  std::string overload_state;
  /// Windowed rho-hat over the root cut at the end of the run (0 when
  /// shedding is off or nothing was admitted).
  double rho_hat_root = 0.0;
};

/// Runs the stream to total_jobs arrivals (or the next snapshot when
/// die_after_snapshot triggers). Throws std::invalid_argument on config
/// errors (unknown/unsupported policy, bad shed config, snapshot flags
/// without a path, spec mismatch on resume) and the typed snapshot errors
/// from exec/snapshot_store.hpp on resume-ladder outcomes.
StreamRunnerResult run_stream(std::shared_ptr<const Tree> tree,
                              const SpeedProfile& speeds,
                              const StreamRunnerConfig& cfg);

}  // namespace treesched::exec
