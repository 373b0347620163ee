#include "treesched/overload/estimator.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "treesched/util/assert.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::overload {

SaturationEstimator::SaturationEstimator(double window) : window_(window) {
  TS_REQUIRE(window > 0.0, "estimator window must be positive");
}

void SaturationEstimator::on_job_admitted(const sim::Engine& engine, JobId j) {
  if (arrivals_.empty()) {
    arrivals_.resize(uidx(engine.tree().node_count()));
    sums_.assign(uidx(engine.tree().node_count()), 0.0);
  }
  const Time now = engine.now();
  const NodeId leaf = engine.assigned_leaf(j);
  for (const NodeId v : engine.tree().path_to(leaf)) {
    const double work = engine.size_on(j, v);
    prune(v, now);
    arrivals_[uidx(v)].push_back({now, work});
    sums_[uidx(v)] += work;
  }
}

void SaturationEstimator::prune(NodeId v, Time now) {
  auto& dq = arrivals_[uidx(v)];
  while (!dq.empty() && dq.front().t < now - window_) {
    sums_[uidx(v)] -= dq.front().work;
    dq.pop_front();
  }
}

double SaturationEstimator::rho_hat(const sim::Engine& engine, NodeId v) {
  if (arrivals_.empty()) return 0.0;
  const Time now = engine.now();
  prune(v, now);
  const double work = std::max(sums_[uidx(v)], 0.0);
  if (work == 0.0) return 0.0;
  const double horizon = std::min(window_, now);
  const double speed = engine.speeds().speed(v);
  if (horizon <= 0.0 || speed <= 0.0)
    return std::numeric_limits<double>::infinity();
  return work / (horizon * speed);
}

double SaturationEstimator::max_root_child_rho(const sim::Engine& engine) {
  double mx = 0.0;
  for (const NodeId rc : engine.tree().root_children())
    mx = std::max(mx, rho_hat(engine, rc));
  return mx;
}

void SaturationEstimator::append_payload(std::string& out) const {
  out += "satest 1 ";
  util::append_number(out, window_);
  out += ' ';
  util::append_number(out, arrivals_.size());
  out += '\n';
  for (std::size_t v = 0; v < arrivals_.size(); ++v) {
    out += "sat ";
    util::append_number(out, v);
    out += ' ';
    util::append_number(out, arrivals_[v].size());
    out += ' ';
    util::append_number(out, sums_[v]);
    for (const Arrival& a : arrivals_[v]) {
      out += ' ';
      util::append_number(out, a.t);
      out += ' ';
      util::append_number(out, a.work);
    }
    out += '\n';
  }
}

void SaturationEstimator::save_state(std::string& out) const {
  const std::size_t from = out.size();
  append_payload(out);
  util::seal(out, from, "satcsum");
}

void SaturationEstimator::load_state(util::Fields& f) {
  int version = 0;
  TS_REQUIRE((f.expect("satest") >> version) && version == 1,
             "estimator load: bad magic/version (corrupt or unsupported)");
  SaturationEstimator tmp(window_);
  double window = 0.0;
  std::size_t nodes = 0;
  TS_REQUIRE((f >> window >> nodes) && window == window_,
             "estimator load: window mismatch (state from a different run?)");
  // Grown record by record: a corrupt count cannot drive an allocation.
  for (std::size_t v = 0; v < nodes; ++v) {
    std::size_t id = 0, n = 0;
    double sum = 0.0;
    TS_REQUIRE((f.expect("sat") >> id >> n >> sum) && id == v,
               "estimator load: node record out of order (corrupt state)");
    tmp.sums_.push_back(sum);
    tmp.arrivals_.emplace_back();
    for (std::size_t i = 0; i < n && f; ++i) {
      Arrival a;
      f >> a.t >> a.work;
      tmp.arrivals_[v].push_back(a);
    }
  }
  TS_REQUIRE(f, "estimator load: truncated state");
  std::string payload;
  tmp.append_payload(payload);
  util::expect_seal(f, "satcsum", payload, "estimator load");
  arrivals_ = std::move(tmp.arrivals_);
  sums_ = std::move(tmp.sums_);
}

}  // namespace treesched::overload
