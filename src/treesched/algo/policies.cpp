#include "treesched/algo/policies.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "treesched/algo/general_tree.hpp"
#include "treesched/util/assert.hpp"
#include "treesched/util/fields.hpp"

namespace treesched::algo {

// ---------------------------------------------------------------------------
// PaperGreedyPolicy
// ---------------------------------------------------------------------------

PaperGreedyPolicy::PaperGreedyPolicy(double eps)
    : PaperGreedyPolicy(eps, 6.0 / (eps * eps)) {}

PaperGreedyPolicy::PaperGreedyPolicy(double eps, double depth_penalty_coeff,
                                     TieBreak tie_break)
    : eps_(eps), penalty_(depth_penalty_coeff), tie_break_(tie_break) {
  TS_REQUIRE(eps > 0.0, "eps must be positive");
  TS_REQUIRE(depth_penalty_coeff >= 0.0, "penalty must be non-negative");
}

double PaperGreedyPolicy::F(const sim::Engine& engine, const Job& job,
                            NodeId leaf) {
  return F_at(engine, job, engine.tree().root_child_of(leaf));
}

double PaperGreedyPolicy::F_prime(const sim::Engine& engine, const Job& job,
                                  NodeId leaf) {
  if (engine.instance().model() == EndpointModel::kIdentical) return 0.0;
  const double p_jv = engine.size_on(job.id, leaf);
  return engine.higher_priority_remaining(leaf, p_jv, job.release, job.id) +
         p_jv +
         p_jv * engine.larger_residual_fraction(leaf, p_jv);
}

const std::vector<double>& PaperGreedyPolicy::sweep(const sim::Engine& engine,
                                                   const Job& job) const {
  build_groups(engine);
  const auto& rcs = engine.tree().root_children();
  for (std::size_t k = 0; k < rcs.size(); ++k)
    f_rc_[k] = F_at(engine, job, rcs[k]);
  return f_rc_;
}

double PaperGreedyPolicy::swept_cost(const sim::Engine& engine, const Job& job,
                                     std::size_t pos) const {
  const LeafGroup& grp = groups_[uidx(group_of_pos_[pos])];
  // F' is identically zero for identical endpoints; skip the per-leaf
  // queries entirely there.
  const double f_prime =
      engine.instance().model() == EndpointModel::kIdentical
          ? 0.0
          : F_prime(engine, job, engine.tree().leaves()[pos]);
  return cost_of(f_rc_[uidx(grp.rc)], f_prime, grp.depth, job.size);
}

double PaperGreedyPolicy::F_min(const sim::Engine& engine,
                                const Job& job) const {
  // Every leaf lies under some root child and every root child has a leaf
  // (no machine is adjacent to the root), so this is the leaves' minimum.
  double fmin = std::numeric_limits<double>::infinity();
  for (const double f : sweep(engine, job)) fmin = std::min(fmin, f);
  return fmin;
}

double PaperGreedyPolicy::assignment_cost(const sim::Engine& engine,
                                          const Job& job, NodeId leaf) const {
  const double f_prime = engine.instance().model() == EndpointModel::kIdentical
                             ? 0.0
                             : F_prime(engine, job, leaf);
  return cost_of(F(engine, job, leaf), f_prime, engine.tree().d(leaf),
                 job.size);
}

void PaperGreedyPolicy::build_groups(const sim::Engine& engine) const {
  if (group_engine_ == engine.serial()) return;
  group_engine_ = engine.serial();
  const Tree& tree = engine.tree();
  const auto& leaves = tree.leaves();
  const auto& rcs = tree.root_children();
  groups_.clear();
  group_of_pos_.assign(leaves.size(), -1);
  // Groups are found through a per-root-child chain (a root child has few
  // distinct leaf depths); every container keeps its capacity, so a rebuild
  // for a same-shaped tree allocates nothing.
  rc_ordinal_.assign(uidx(tree.node_count()), -1);
  for (std::size_t k = 0; k < rcs.size(); ++k)
    rc_ordinal_[uidx(rcs[k])] = static_cast<std::int32_t>(k);
  group_last_of_rc_.assign(rcs.size(), -1);
  f_rc_.assign(rcs.size(), 0.0);
  for (std::size_t pos = 0; pos < leaves.size(); ++pos) {
    const NodeId v = leaves[pos];
    const std::int32_t rc = rc_ordinal_[uidx(tree.root_child_of(v))];
    const int depth = tree.d(v);
    std::int32_t g = group_last_of_rc_[uidx(rc)];
    while (g >= 0 && groups_[uidx(g)].depth != depth)
      g = groups_[uidx(g)].prev_same_rc;
    if (g < 0) {
      g = static_cast<std::int32_t>(groups_.size());
      groups_.push_back({v, rc, depth, 0, group_last_of_rc_[uidx(rc)]});
      group_last_of_rc_[uidx(rc)] = g;
    }
    ++groups_[uidx(g)].count;
    group_of_pos_[pos] = g;
  }
  // The tie marks are sized on the first kRotate tie scan: kFirst never
  // needs them.
  group_tied_stamp_.clear();
  group_tie_gen_ = 0;
}

NodeId PaperGreedyPolicy::assign_grouped(const sim::Engine& engine,
                                         const Job& job) {
  const std::vector<double>& f = sweep(engine, job);
  // The identical model has no F' term; each group's cost is its root
  // child's swept F plus the group's depth penalty — assignment_cost of
  // any member, without re-deriving R(v) and d_v per group.
  const auto group_cost = [&](const LeafGroup& grp) {
    return cost_of(f[uidx(grp.rc)], 0.0, grp.depth, job.size);
  };
  // Pass 1 over group representatives. Groups are ordered by their first
  // position in leaves(), so a strict-< scan selects the same leaf the
  // per-leaf sweep would: the first leaf (in leaves() order) attaining the
  // minimum is necessarily the first member of the first minimal group.
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_g = groups_.size();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const double cost = group_cost(groups_[g]);
    if (cost < best) {
      best = cost;
      best_g = g;
    }
  }
  TS_CHECK(best_g < groups_.size(), "no leaf to assign to");
  if (tie_break_ != TieBreak::kRotate) return groups_[best_g].first_leaf;
  // Pass 2: a group is tied iff its (shared, bit-identical) cost is within
  // tolerance, making every member tied. The k-th tied leaf in leaves()
  // order is found by walking positions and checking the group mark.
  const double tol = 1e-9 * std::max(1.0, std::fabs(best));
  if (group_tied_stamp_.empty()) group_tied_stamp_.assign(groups_.size(), 0);
  ++group_tie_gen_;
  std::size_t count = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (group_cost(groups_[g]) <= best + tol) {
      group_tied_stamp_[g] = group_tie_gen_;
      count += uidx(groups_[g].count);
    }
  }
  if (count <= 1) return groups_[best_g].first_leaf;
  std::size_t k = rotation_++ % count;
  const auto& leaves = engine.tree().leaves();
  for (std::size_t pos = 0;; ++pos) {
    if (group_tied_stamp_[uidx(group_of_pos_[pos])] == group_tie_gen_) {
      if (k == 0) return leaves[pos];
      --k;
    }
  }
}

NodeId PaperGreedyPolicy::assign(const sim::Engine& engine, const Job& job) {
  // Identical-endpoint fast path: the cost is constant across each (root
  // child, depth) leaf group, so one representative per group suffices.
  if (engine.instance().model() == EndpointModel::kIdentical)
    return assign_grouped(engine, job);
  // Pass 1: the true minimum. The old single-pass version derived the tie
  // tolerance from the *running* best (zero while best_leaf was still
  // kInvalidNode), so a chain of sub-tolerance improvements could leave
  // `best` strictly above the minimum and the first exactly-tied candidate
  // out of the rotation set.
  sweep(engine, job);
  const auto& leaves = engine.tree().leaves();
  double best = std::numeric_limits<double>::infinity();
  NodeId best_leaf = kInvalidNode;
  for (std::size_t pos = 0; pos < leaves.size(); ++pos) {
    const double cost = swept_cost(engine, job, pos);
    if (cost < best) {
      best = cost;
      best_leaf = leaves[pos];
    }
  }
  TS_CHECK(best_leaf != kInvalidNode, "no leaf to assign to");
  if (tie_break_ != TieBreak::kRotate) return best_leaf;
  // Pass 2: collect every leaf within tolerance of the settled minimum (F
  // is read from the sweep, so this re-sweep repeats no rc queries).
  const double tol = 1e-9 * std::max(1.0, std::fabs(best));
  std::vector<NodeId> tied;
  for (std::size_t pos = 0; pos < leaves.size(); ++pos)
    if (swept_cost(engine, job, pos) <= best + tol)
      tied.push_back(leaves[pos]);
  if (tied.size() > 1) return tied[rotation_++ % tied.size()];
  return best_leaf;
}

// ---------------------------------------------------------------------------
// FaultAwareGreedy
// ---------------------------------------------------------------------------

NodeId FaultAwareGreedy::best_live_leaf(const sim::Engine& engine,
                                        const Job& job) const {
  greedy_.sweep(engine, job);
  const auto& leaves = engine.tree().leaves();
  double best = std::numeric_limits<double>::infinity();
  NodeId best_leaf = kInvalidNode;
  for (std::size_t pos = 0; pos < leaves.size(); ++pos) {
    if (engine.node_down(leaves[pos])) continue;
    const double cost = greedy_.swept_cost(engine, job, pos);
    if (cost < best) {
      best = cost;
      best_leaf = leaves[pos];
    }
  }
  TS_REQUIRE(best_leaf != kInvalidNode,
             "fault-greedy: every machine is down at assignment time");
  return best_leaf;
}

NodeId FaultAwareGreedy::assign(const sim::Engine& engine, const Job& job) {
  return best_live_leaf(engine, job);
}

NodeId FaultAwareGreedy::reassign(const sim::Engine& engine, JobId job,
                                  NodeId /*dead_leaf*/) {
  return best_live_leaf(engine, engine.instance().job(job));
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

NodeId ClosestLeafPolicy::assign(const sim::Engine& engine, const Job& job) {
  double best = std::numeric_limits<double>::infinity();
  NodeId best_leaf = kInvalidNode;
  for (const NodeId v : engine.tree().leaves()) {
    const double cost = engine.instance().path_processing_time(job.id, v);
    if (cost < best) {
      best = cost;
      best_leaf = v;
    }
  }
  return best_leaf;
}

RandomLeafPolicy::RandomLeafPolicy(std::uint64_t seed) : rng_(seed) {}

NodeId RandomLeafPolicy::assign(const sim::Engine& engine, const Job&) {
  const auto& leaves = engine.tree().leaves();
  return leaves[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(leaves.size()) - 1))];
}

NodeId RoundRobinPolicy::assign(const sim::Engine& engine, const Job&) {
  const auto& leaves = engine.tree().leaves();
  const NodeId v = leaves[next_ % leaves.size()];
  ++next_;
  return v;
}

NodeId LeastVolumePolicy::assign(const sim::Engine& engine, const Job& job) {
  double best = std::numeric_limits<double>::infinity();
  NodeId best_leaf = kInvalidNode;
  for (const NodeId v : engine.tree().leaves()) {
    const NodeId rc = engine.tree().root_child_of(v);
    const double vol = engine.instance().path_processing_time(job.id, v) +
                       engine.pending_remaining(rc) +
                       engine.pending_remaining(v);
    if (vol < best) {
      best = vol;
      best_leaf = v;
    }
  }
  return best_leaf;
}

NodeId LeastCountPolicy::assign(const sim::Engine& engine, const Job&) {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  int best_depth = std::numeric_limits<int>::max();
  NodeId best_leaf = kInvalidNode;
  for (const NodeId v : engine.tree().leaves()) {
    const NodeId rc = engine.tree().root_child_of(v);
    const std::size_t count = engine.queue_size(rc) + engine.queue_size(v);
    const int depth = engine.tree().d(v);
    if (count < best || (count == best && depth < best_depth)) {
      best = count;
      best_depth = depth;
      best_leaf = v;
    }
  }
  return best_leaf;
}

TwoChoicePolicy::TwoChoicePolicy(std::uint64_t seed) : rng_(seed) {}

double TwoChoicePolicy::volume_cost(const sim::Engine& engine, const Job& job,
                                    NodeId leaf) const {
  const NodeId rc = engine.tree().root_child_of(leaf);
  return engine.instance().path_processing_time(job.id, leaf) +
         engine.pending_remaining(rc) + engine.pending_remaining(leaf);
}

NodeId TwoChoicePolicy::assign(const sim::Engine& engine, const Job& job) {
  const auto& leaves = engine.tree().leaves();
  const auto pick = [&]() {
    return leaves[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(leaves.size()) - 1))];
  };
  const NodeId a = pick();
  const NodeId b = pick();
  if (a == b) return a;
  return volume_cost(engine, job, a) <= volume_cost(engine, job, b) ? a : b;
}

// ---------------------------------------------------------------------------
// Stream-state round-trips (single whitespace-free tokens; see
// sim::AssignmentPolicy::stream_state)
// ---------------------------------------------------------------------------

namespace {

std::string rng_token(const util::Rng& rng) {
  const auto s = rng.state();
  std::ostringstream os;
  os << "rng:" << s[0] << ':' << s[1] << ':' << s[2] << ':' << s[3];
  return os.str();
}

/// The N numbers of a "<tag>:<n_1>:...:<n_N>" token, each a whole decimal
/// field; any other shape throws std::invalid_argument.
template <std::size_t N>
std::array<std::uint64_t, N> from_state_token(std::string_view token,
                                              std::string_view tag) {
  std::array<std::uint64_t, N> out{};
  bool ok = token.starts_with(tag);
  std::string_view rest = token.substr(ok ? tag.size() : token.size());
  for (std::uint64_t& n : out) {
    const std::size_t end = std::min(rest.find(':', 1), rest.size());
    ok = ok && rest.starts_with(':') &&
         util::parse_number(rest.substr(1, end - 1), n);
    rest.remove_prefix(end);
  }
  TS_REQUIRE(ok && rest.empty(),
             "malformed stream-state token: " + std::string(token));
  return out;
}

}  // namespace

std::string PaperGreedyPolicy::stream_state() const {
  std::ostringstream os;
  os << "rot:" << rotation_;
  return os.str();
}

void PaperGreedyPolicy::restore_stream_state(const std::string& state) {
  rotation_ = from_state_token<1>(state, "rot")[0];
}

std::string RandomLeafPolicy::stream_state() const { return rng_token(rng_); }

void RandomLeafPolicy::restore_stream_state(const std::string& state) {
  rng_.set_state(from_state_token<4>(state, "rng"));
}

std::string RoundRobinPolicy::stream_state() const {
  std::ostringstream os;
  os << "rr:" << next_;
  return os.str();
}

void RoundRobinPolicy::restore_stream_state(const std::string& state) {
  next_ = from_state_token<1>(state, "rr")[0];
}

std::string TwoChoicePolicy::stream_state() const { return rng_token(rng_); }

void TwoChoicePolicy::restore_stream_state(const std::string& state) {
  rng_.set_state(from_state_token<4>(state, "rng"));
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<sim::AssignmentPolicy> make_policy(const std::string& name,
                                                   const Instance& instance,
                                                   double eps,
                                                   std::uint64_t seed) {
  if (name == "paper") return std::make_unique<PaperGreedyPolicy>(eps);
  if (name == "closest") return std::make_unique<ClosestLeafPolicy>();
  if (name == "random") return std::make_unique<RandomLeafPolicy>(seed);
  if (name == "round-robin") return std::make_unique<RoundRobinPolicy>();
  if (name == "least-volume") return std::make_unique<LeastVolumePolicy>();
  if (name == "least-count") return std::make_unique<LeastCountPolicy>();
  if (name == "two-choice") return std::make_unique<TwoChoicePolicy>(seed);
  if (name == "fault-greedy") return std::make_unique<FaultAwareGreedy>(eps);
  if (name == "broomstick-mirror")
    return std::make_unique<BroomstickMirrorPolicy>(instance, eps);
  throw std::invalid_argument("unknown policy: " + name);
}

bool is_known_policy(const std::string& name) {
  static const char* const kNames[] = {
      "paper",       "closest",    "random",     "round-robin", "least-volume",
      "least-count", "two-choice", "fault-greedy", "broomstick-mirror"};
  for (const char* const n : kNames)
    if (name == n) return true;
  return false;
}

}  // namespace treesched::algo
