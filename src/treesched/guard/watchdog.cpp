#include "treesched/guard/watchdog.hpp"

namespace treesched::guard {

Watchdog::Watchdog(WatchdogConfig cfg, Clock* clock)
    : cfg_(cfg),
      clock_(clock),
      last_read_t_(clock->now_s()),
      last_progress_t_(last_read_t_) {}

double Watchdog::observe() {
  const double now = clock_->now_s();
  if (arrivals_ != seen_arrivals_) {
    seen_arrivals_ = arrivals_;
    last_progress_t_ = last_read_t_;
    fired_rank_ = 0;
  }
  last_read_t_ = now;
  return now - last_progress_t_;
}

double Watchdog::stalled_s() { return observe(); }

Watchdog::Action Watchdog::poll() {
  if (!cfg_.enabled()) return Action::kNone;
  const double stalled = observe();
  if (fired_rank_ >= 3) return Action::kNone;
  // Fire the next rank the moment its deadline multiple passes; one rank per
  // poll keeps the log -> snapshot -> abort order even if polls are sparse
  // and the stall already overshot several multiples.
  const int due_rank = fired_rank_ + 1;
  if (stalled < cfg_.window_deadline_s * due_rank) return Action::kNone;
  fired_rank_ = due_rank;
  switch (due_rank) {
    case 1: return Action::kLog;
    case 2: return Action::kSnapshot;
    default: return Action::kAbort;
  }
}

const char* Watchdog::action_name(Action a) {
  switch (a) {
    case Action::kNone: return "none";
    case Action::kLog: return "log";
    case Action::kSnapshot: return "snapshot";
    case Action::kAbort: return "abort";
  }
  return "?";
}

}  // namespace treesched::guard
