// Time-series sampling of engine state, for burst visualization and
// load-dynamics experiments.
#pragma once

#include <string>
#include <vector>

#include "treesched/sim/engine.hpp"

namespace treesched::sim {

/// Samples aggregate queue state at engine events, rate-limited to at most
/// one sample per `min_gap` of simulated time.
class QueueSampler : public EngineObserver {
 public:
  explicit QueueSampler(double min_gap = 1.0) : min_gap_(min_gap) {}

  void on_event(const Engine& engine, Time t) override {
    if (!samples_.empty() && t - samples_.back().t < min_gap_) return;
    Sample s;
    s.t = t;
    const Tree& tree = engine.tree();
    for (NodeId v = 0; v < tree.node_count(); ++v) {
      if (tree.is_root(v)) continue;
      s.queued_jobs += engine.queue_size(v);
    }
    for (const NodeId rc : tree.root_children())
      s.alive_jobs += engine.queue_size(rc);
    s.backlog = engine.root_backlog();
    s.shed_decisions = engine.shed_log().size();
    samples_.push_back(s);
  }

  struct Sample {
    Time t = 0.0;
    std::size_t queued_jobs = 0;  ///< sum of |Q_v| over processing nodes
    std::size_t alive_jobs = 0;   ///< jobs not yet past their root child
    double backlog = 0.0;         ///< root-cut volume (saturation timeline)
    /// Cumulative admission-control decisions so far (shed/reject/admitf) —
    /// 0 throughout non-overload runs.
    std::size_t shed_decisions = 0;
  };

  const std::vector<Sample>& samples() const { return samples_; }

  /// The queued-jobs series (for sparklines / CSV).
  std::vector<double> queued_series() const {
    std::vector<double> out;
    out.reserve(samples_.size());
    for (const auto& s : samples_)
      out.push_back(static_cast<double>(s.queued_jobs));
    return out;
  }

  /// The root-cut backlog series — the saturation timeline of a degraded
  /// run (flat under shedding, divergent without it at rho > 1).
  std::vector<double> backlog_series() const {
    std::vector<double> out;
    out.reserve(samples_.size());
    for (const auto& s : samples_) out.push_back(s.backlog);
    return out;
  }

 private:
  double min_gap_;
  std::vector<Sample> samples_;
};

/// Renders a series as a one-line unicode-free sparkline using ' .:-=+*#%@'
/// levels, downsampled to `width` columns by taking column maxima.
std::string ascii_sparkline(const std::vector<double>& series,
                            std::size_t width = 80);

}  // namespace treesched::sim
