// Guard sidecar log (treesched-guardlog-v1): the audited record of every
// supervision event — watchdog escalations, governor degradation-ladder
// transitions, supervisor restarts.
//
// Guard events are wall-clock-driven and therefore nondeterministic, so
// they deliberately live OUTSIDE the segmented run log: a guard line must
// never change a segment byte or the fingerprint chain the kill/resume
// differential byte-compares. The sidecar is line-oriented and appended
// with util::append_line_durable — one write(2) per record, torn tails
// healed — so the supervisor and its child can share one file and a crash
// mid-append can tear at most the final line. The audit reads it through
// util::read_log, which drops torn records (util/fs.hpp); any other line it
// cannot parse is a violation.
//
// Format (one record per line):
//
//   treesched-guardlog-v1
//   ceiling rss <bytes> queue <n> arena <n> deadline <s>
//   guard <t_s> governor escalate <from> <to> rss <bytes> queue <n> arena <n>
//   guard <t_s> watchdog <log|snapshot|abort> stalled <s> arrivals <n>
//   guard <t_s> supervisor <start|exit|backoff|giveup|done|interrupted> ...
//
// A `ceiling` line is written once per child incarnation at startup and
// resets the audit's notion of ladder stage, watchdog episode, and child
// time base — restarted children legitimately begin at stage normal with a
// fresh clock. Timestamps are seconds since the writing process started
// (guard::Clock), monotone per incarnation (child lines) and across the
// whole file for supervisor lines.
//
// `audit_guard_log` re-verifies the supervision invariants offline
// (treesched_audit --guard): the ladder fired in ORDER (one stage at a
// time, never skipping, never regressing within an incarnation), every
// escalation happened UNDER RECORDED PRESSURE (some observed metric at or
// over its configured nonzero ceiling), watchdog actions escalate
// log -> snapshot -> abort with recorded stall times over the armed
// deadline multiples, and timestamps are monotone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "treesched/guard/config.hpp"

namespace treesched::guard {

/// Durable line appender for guard events. Safe for two processes
/// (supervisor + child) to hold writers on the same path concurrently.
class GuardLogWriter {
 public:
  /// Creates the file with its header line when absent or empty; otherwise
  /// appends to what is there.
  explicit GuardLogWriter(std::string path);

  /// Child-incarnation preamble: the armed ceilings (0 = unchecked) and the
  /// watchdog deadline, against which the audit judges every later line.
  void ceiling(const GovernorConfig& gov, double watchdog_deadline_s);

  void governor_escalate(double t_s, Stage from, Stage to, const Pressure& p);
  /// `action` is one of "log", "snapshot", "abort".
  void watchdog(double t_s, const std::string& action, double stalled_s,
                std::uint64_t arrivals);
  /// Free-form supervisor event ("start pid 123", "exit code 1",
  /// "backoff 0.5 restarts 2", "giveup crashes 5 window 60", ...).
  void supervisor(double t_s, const std::string& detail);

  const std::string& path() const { return path_; }

 private:
  void append(const std::string& line);

  std::string path_;
};

struct GuardAuditViolation {
  std::size_t line = 0;  ///< 1-based line number in the guard log
  std::string message;
};

struct GuardAuditResult {
  bool ok = false;
  std::vector<GuardAuditViolation> violations;
  std::size_t incarnations = 0;       ///< ceiling lines seen
  std::size_t governor_escalations = 0;
  std::size_t watchdog_events = 0;
  std::size_t supervisor_events = 0;
  Stage max_stage = Stage::kNormal;   ///< deepest ladder stage reached
};

/// Offline verification of a guard log (rules in the file comment). A
/// missing file or bad header is a violation, not an exception; real I/O
/// errors still throw std::runtime_error.
GuardAuditResult audit_guard_log(const std::string& path);

}  // namespace treesched::guard
