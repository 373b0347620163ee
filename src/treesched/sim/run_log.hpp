// Serializable record of a finished simulation run: the engine config, the
// speed profile, every job's processing path and claimed completion, and the
// full burst log. Written by `treesched_run --record-out` and consumed by
// `treesched_audit`, which re-checks the paper's invariants offline without
// trusting any engine state.
//
// Format (line-oriented, '#' comments allowed, full double precision):
//   runlog 1
//   policy <sjf|fifo|srpt|lcfs|hdf>
//   chunk <router_chunk_size>
//   speeds <node_count> <s_0> ... <s_{n-1}>
//   job <id> <completion> <path_len> <v_0> ... <v_{len-1}>
//   seg <node> <job> <chunk> <t0> <t1> <rate>
//
// Fault-injected runs additionally carry the applied fault timeline (in
// application order), which switches treesched_audit into its fault mode:
//   fevent <node-down|node-up|edge-down|edge-up|slow> <t> <node> <factor>
//   redispatch <t> <job> <from> <to>
//
// Overload-protected runs (shed policy != none) carry the admission-control
// config and decision timeline, which arms treesched_audit's overload rules
// (shed jobs never processed afterwards, caps held, deadline bounds
// respected). Runs without shedding emit none of these lines, keeping their
// logs byte-identical to the pre-overload format:
//   shedcfg <none|bounded-queue|largest-first|deadline> <cap> <slack>
//   shed <t> <job>
//   reject <t> <job> <f> <bound>
//   admitf <t> <job> <f> <bound>
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "treesched/core/instance.hpp"
#include "treesched/core/speed_profile.hpp"
#include "treesched/sim/engine.hpp"

namespace treesched::sim {

/// Everything `treesched_audit` needs besides the instance itself.
struct RunLog {
  NodePolicy node_policy = NodePolicy::kSjf;
  double router_chunk_size = 0.0;
  std::vector<double> speeds;                 ///< per node id
  std::vector<std::vector<NodeId>> paths;     ///< per job id: processing path
  std::vector<Time> completion;               ///< per job id; -1 = unfinished
  std::vector<Segment> segments;
  /// Applied fault timeline (plan events + re-dispatch records) in the order
  /// the engine consumed them. Non-empty turns on the audit's fault mode;
  /// `paths` then holds each job's FINAL path (earlier epochs are
  /// reconstructed from the redispatch records).
  std::vector<FaultRecord> faults;
  /// Admission-control configuration of the run. Serialized (and the audit's
  /// overload rules armed) only when the policy is not kNone.
  overload::ShedConfig shed;
  /// Admission-control decision timeline, in decision order.
  std::vector<ShedRecord> sheds;
};

/// Captures a finished engine run. Paths are derived from the recorded leaf
/// assignment (tree().path_to), so this overload covers root-dispatched runs.
RunLog make_run_log(const Instance& instance, const SpeedProfile& speeds,
                    const EngineConfig& cfg, const ScheduleRecorder& recorder,
                    const Metrics& metrics);

/// Same with explicit per-job paths (runs that used Engine::admit_via_path).
RunLog make_run_log(const Instance& instance, const SpeedProfile& speeds,
                    const EngineConfig& cfg, const ScheduleRecorder& recorder,
                    const Metrics& metrics,
                    const std::vector<std::vector<NodeId>>& paths);

/// Captures everything straight from a finished engine, including the fault
/// timeline — the overload fault-injected runs must use.
RunLog make_run_log(const Instance& instance, const Engine& engine);

void write_run_log(std::ostream& os, const RunLog& log);
void write_run_log_file(const std::string& path, const RunLog& log);

/// Concurrent-recording convention: task `index` of a parallel sweep writes
/// to its own file, so no two pool workers ever share a stream. Inserts a
/// zero-padded ".taskNNNNNN" tag before the final extension of `base`
/// ("runs/sweep.log", 7 → "runs/sweep.task000007.log"; extension-less bases
/// get the tag appended). The audit format itself is unchanged — each
/// per-task file is a complete, independently auditable run log.
std::string task_log_path(const std::string& base, std::size_t task_index);

/// Segment-file naming of the streaming run-log format
/// (runlog_segments.hpp): segment `index` of a segmented log rooted at
/// `base` lives in its own file, tagged ".segNNNNNN" before the final
/// extension ("runs/stream.log", 3 → "runs/stream.seg000003.log").
/// Composes with task_log_path — apply task_log_path first, so a recorded
/// streaming sweep cell writes "trace.task000007.seg000003.txt" and cells
/// never collide.
std::string segment_log_path(const std::string& base, std::size_t index);

/// segment_log_path written into `out` (replacing its contents), so a
/// writer that names a segment per commit reuses one buffer.
void assign_segment_log_path(std::string& out, const std::string& base,
                             std::size_t index);

/// Parses a run log; throws std::invalid_argument on malformed input.
RunLog read_run_log(std::string_view bytes);
RunLog read_run_log_file(const std::string& path);

}  // namespace treesched::sim
