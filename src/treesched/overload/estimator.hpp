// Saturation estimation: windowed offered-load rho-hat per node, plus
// instantaneous backlog readings.
//
// The estimator is a passive EngineObserver: on every admission it credits
// the job's per-node work to a sliding arrival window, so rho-hat(v) =
// (work routed through v over the last W of simulated time) / (W * s_v) —
// an online estimate of the offered load the generator aimed at. Backlog
// readings are the engine's own (Engine::pending_remaining, root_backlog).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "treesched/sim/engine.hpp"

namespace treesched::overload {

class SaturationEstimator : public sim::EngineObserver {
 public:
  /// `window` is the sliding-window width W in simulated time units.
  explicit SaturationEstimator(double window = 50.0);

  void on_job_admitted(const sim::Engine& engine, JobId j) override;

  /// Windowed offered load of v: admitted work routed through v during the
  /// last W, over W * s_v (the effective window shrinks to now() early in
  /// the run so t < W does not dilute the estimate). Infinity when work
  /// arrived but the window or speed is degenerate (zero-width, s_v = 0).
  double rho_hat(const sim::Engine& engine, NodeId v);

  /// Max rho_hat over the root children — the saturation headline number
  /// (the root cut is the paper's bottleneck).
  double max_root_child_rho(const sim::Engine& engine);

  /// Text round-trip (full %.17g precision) of the windowed state — the
  /// per-node arrival deques and their running sums — with an FNV-1a-64
  /// self-checksum, so a shed streaming run's rho-hat readings continue
  /// byte-identically across kill/resume. load_state rejects truncated or
  /// bit-flipped bytes and a mismatched window with std::invalid_argument.
  /// save_state appends to `out`.
  void save_state(std::string& out) const;
  void load_state(util::Fields& f);

 private:
  struct Arrival {
    Time t = 0.0;
    double work = 0.0;
  };

  void prune(NodeId v, Time now);
  /// Appends the canonical serialized state (the checksummed bytes).
  void append_payload(std::string& out) const;

  double window_;
  std::vector<std::deque<Arrival>> arrivals_;  ///< per node, time-ordered
  std::vector<double> sums_;                   ///< per node window sum
};

}  // namespace treesched::overload
