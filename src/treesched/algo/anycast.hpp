// Jobs created at arbitrary nodes — the generalization the paper names as
// future work ("What can be shown if jobs arrive at arbitrary nodes in the
// network?").
//
// A job carries a `source` node (kInvalidNode = the root, the base model);
// its data must be forwarded along the unique tree path from the source to
// the chosen machine, processing on every node it enters (the root acts as
// a transit router when the path crosses it, so it needs positive speed).
// This module provides online target-selection strategies and a runner
// that drives the Engine through Engine::admit_via_path.
#pragma once

#include "treesched/sim/engine.hpp"

namespace treesched::algo {

/// How an arriving source-born job picks its machine.
enum class AnycastStrategy {
  kClosest,      ///< minimize the job's own path processing volume
  kLeastVolume,  ///< minimize path volume + queued work along the path
  kGreedy,       ///< least-volume plus the displaced smaller-jobs term,
                 ///< mirroring the structure of the paper's rule
};

const char* anycast_strategy_name(AnycastStrategy s);

/// Picks a machine for `job` given the current engine state; returns the
/// processing path (engine.tree().path_between(source, leaf)).
std::vector<NodeId> choose_anycast_path(const sim::Engine& engine,
                                        const Job& job,
                                        AnycastStrategy strategy);

/// Runs a whole instance whose jobs may carry arbitrary sources. The speed
/// profile must give the root positive speed if any source lies in a
/// different subtree than every machine it may reach. When `paths_out` is
/// given, the per-job processing paths are returned (the path-aware
/// make_run_log overload consumes them, so the run can be audited). When
/// `recorder_out` is given and cfg.record_schedule is set, the burst log is
/// copied out.
sim::Metrics run_anycast(const Instance& instance, const SpeedProfile& speeds,
                         AnycastStrategy strategy,
                         sim::EngineConfig cfg = {},
                         std::vector<std::vector<NodeId>>* paths_out = nullptr,
                         sim::ScheduleRecorder* recorder_out = nullptr);

}  // namespace treesched::algo
