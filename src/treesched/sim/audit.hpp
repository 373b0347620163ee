// Offline invariant analyzer for recorded runs — the project's one checker
// of recorded schedules (treesched_run --validate, the tests and
// treesched_audit all call audit_run).
//
// Re-derives every model invariant from (instance, run log) alone, trusting
// neither Engine state nor Metrics. One pass checks the feasibility rules of
// Section 2 — bursts run at the node's speed, nothing runs before release,
// each (job, node, chunk) gets exactly its work, the claimed completions
// match the log — and reconstructs per-work-item availability windows from
// the burst log to check the *scheduling discipline* itself:
//
//   - store-and-forward precedence (chunk c starts on a node no earlier than
//     it finished on the parent; leaf work waits for all data);
//   - unit capacity: each node runs at most one work item at any instant;
//   - priority consistency: a node never runs an item while a strictly
//     higher-priority item is available on it (SJF/FIFO/LCFS/HDF — SRPT keys
//     depend on instantaneous remaining work and are skipped);
//   - assignment stability (immediate dispatch): all of a job's work stays on
//     the single path fixed at admission, with machine work only at its end;
//   - optionally, the paper's lemma bounds with per-job worst-case margins:
//     Lemma 2's (2/eps)·p_j available-volume bound, as its supremum over
//     the job's whole stay on each eligible node, and the Lemma 1/3
//     interior wait bound (6/eps²)·p_j·d_v. This is the project's only
//     evaluator of these margins; benches, examples and tests record the
//     run and read the AuditReport.
//
// Run logs carrying fault records are read as epochs: a job's path changes
// at every re-dispatch, and a run without faults is the case of one epoch
// per job, at slowdown factor 1 with no down windows. The same per-segment
// pass then also checks that no work progresses at a dead node and that
// burst rates match speed x slowdown factor; on top, re-dispatch chains
// must move jobs from a dead machine to a live one, the final attempt must
// perform exactly the required machine work, and all routing must precede
// it. Priority consistency and lemma margins are skipped with a note.
//
// Run logs carrying admission-control records (a shed policy) get the
// overload rules on top, in both modes: a rejected job never runs and is
// exempt from the never-dispatched check, a shed job never progresses after
// its eviction and never completes, and no job is both shed and
// re-dispatched. Without faults the volume caps of bounded-queue /
// largest-first are re-verified at every admission epoch by reconstructing
// the root-cut backlog from the burst log, and deadline admissions must
// match their recorded Lemma-4 F estimate against bound = slack x p_j.
#pragma once

#include <string>
#include <vector>

#include "treesched/core/instance.hpp"
#include "treesched/sim/run_log.hpp"

namespace treesched::sim {

struct AuditOptions {
  /// Speed-augmentation epsilon: 0 skips the lemma margins, a finite
  /// value > 0 computes them. Anything else is rejected.
  double eps = 0.0;
  /// Treat a lemma ratio > 1 as a violation (off by default: the lemmas
  /// presuppose class-rounded sizes and (1+eps)-speeds, which an arbitrary
  /// run log need not satisfy). Requires eps > 0.
  bool strict_lemmas = false;
  /// Absolute tolerance of time and rate comparisons (work comparisons
  /// scale it by the amount). Must be finite and >= 0.
  double tol = 1e-6;
};

/// Worst-case lemma margins for one job. Ratios are measured/bound; <= 1
/// means the bound held. -1 marks "not applicable" (no eligible node).
struct LemmaRow {
  JobId job = kInvalidJob;
  double size = 0.0;
  double lemma2_ratio = -1.0;   ///< sup over the stay, max over eligible nodes
  NodeId lemma2_node = kInvalidNode;
  double interior_wait = -1.0;
  double wait_bound = -1.0;
  double wait_ratio = -1.0;
};

struct AuditReport {
  bool ok = true;
  std::vector<std::string> violations;
  std::vector<std::string> notes;   ///< non-fatal observations (skipped checks)
  std::size_t jobs_checked = 0;
  std::size_t segments_checked = 0;
  std::vector<LemmaRow> lemma_rows;
  double lemma2_max_ratio = -1.0;
  double wait_max_ratio = -1.0;

  void fail(std::string msg) {
    ok = false;
    if (violations.size() < 100) violations.push_back(std::move(msg));
  }
  /// One-paragraph verdict plus every violation and note.
  std::string summary() const;
  /// Per-job lemma margin table (empty string when eps was not set).
  std::string lemma_table() const;
};

/// Audits a recorded run against the instance it claims to schedule.
/// Throws std::invalid_argument for an eps or tol that is negative, NaN or
/// infinite, and for strict_lemmas without eps > 0.
AuditReport audit_run(const Instance& instance, const RunLog& log,
                      const AuditOptions& opts = {});

}  // namespace treesched::sim
