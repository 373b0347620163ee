// Progress watchdog for streaming runs: detects a wedged stream window —
// the event loop ticking without completing arrivals, or not ticking at
// all — by wall-clock deadline, and escalates in three staged steps:
//
//   1x deadline  -> kLog       (loud stderr + guard-log line)
//   2x deadline  -> kSnapshot  (force a snapshot generation + segment
//                               rotate, so no progress is lost if the stall
//                               never clears)
//   3x deadline  -> kAbort     (controlled abort, exit 70, snapshot intact)
//
// The watchdog itself is pure bookkeeping over an injectable Clock: the
// stream runner reports progress and polls from the engine-observer tick
// callback, and performs whatever action poll() returns. Acting inside the
// tick callback matters — a wedged window by definition never reaches the
// next arrival boundary, so deferring actions there would never fire.
//
// Only poll() and stalled_s() read the clock. progress() stores the arrival
// count; the next reading that sees the count advanced dates the progress
// to the reading before it — the earliest instant it can have happened —
// so a stall is never under-reported, and over-reported by at most one
// polling interval. That keeps the per-arrival cost at one store.
//
// None of this can perturb determinism: a fired watchdog only writes guard
// sidecar lines and forces a snapshot at an instant the engine is already
// consistent; schedules, metrics, and run-log bytes are untouched.
#pragma once

#include <cstdint>

#include "treesched/guard/clock.hpp"
#include "treesched/guard/config.hpp"

namespace treesched::guard {

class Watchdog {
 public:
  enum class Action { kNone, kLog, kSnapshot, kAbort };

  /// `clock` must outlive the watchdog. A disabled config (deadline 0)
  /// makes every poll() return kNone.
  Watchdog(WatchdogConfig cfg, Clock* clock);

  /// Report forward progress (an arrival fully processed, or a window
  /// rotation). Stores the count only; the next poll() or stalled_s() that
  /// sees it advanced re-arms the deadline and resets the escalation ladder.
  void progress(std::uint64_t arrivals) { arrivals_ = arrivals; }

  /// Returns the next escalation step that has come due, at most one step
  /// per call and each step at most once per stall episode.
  Action poll();

  /// Seconds since the last reported progress (0 before any progress).
  double stalled_s();

  /// Arrival count at the last reported progress.
  std::uint64_t arrivals() const { return arrivals_; }

  static const char* action_name(Action a);

 private:
  /// Reads the clock, first accounting any progress reported since the
  /// previous reading, and returns the seconds since the last progress.
  double observe();

  WatchdogConfig cfg_;
  Clock* clock_;
  double last_read_t_;      ///< the previous clock reading
  double last_progress_t_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t seen_arrivals_ = 0;  ///< count at the previous reading
  int fired_rank_ = 0;  ///< 0 none, 1 log, 2 snapshot, 3 abort
};

}  // namespace treesched::guard
