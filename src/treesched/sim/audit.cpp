#include "treesched/sim/audit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "treesched/sim/priority.hpp"
#include "treesched/util/csum.hpp"
#include "treesched/util/table.hpp"

namespace treesched::sim {

namespace {

constexpr Time kInf = std::numeric_limits<double>::infinity();

std::string fmt(double x) {
  std::ostringstream os;
  os << x;
  return os.str();
}

/// Aggregate of all bursts of one work item (job, hop, chunk).
struct ItemAgg {
  double work = 0.0;
  Time first = kInf;
  Time last = -1.0;
  bool ran() const { return last >= 0.0; }
};

/// One stretch of a job's stay: from `start` until its next re-dispatch it
/// is processed along `path`. A run without faults gives every job one
/// epoch, its recorded path.
struct Epoch {
  Time start = 0.0;
  const std::vector<NodeId>* path = nullptr;
};

/// Index of v on the path, -1 if absent. Paths are short; linear is fine.
int hop_on(const std::vector<NodeId>& path, NodeId v) {
  for (std::size_t i = 0; i < path.size(); ++i)
    if (path[i] == v) return static_cast<int>(i);
  return -1;
}

/// Everything the audit derives about one job's walk down its path.
struct JobAudit {
  const std::vector<NodeId>* path = nullptr;  ///< final path; null => skipped
  std::vector<Epoch> epochs;                  ///< the last one runs `path`
  std::int32_t chunks = 1;
  double chunk_size = 0.0;
  /// [hop][chunk] of the final path, hops 0..len-2. A router the final path
  /// shares with earlier epochs collects their work too.
  std::vector<std::vector<ItemAgg>> router;
  ItemAgg leaf;                               ///< final-epoch machine work
  Time last_router_end = -1.0;                ///< over every epoch
  std::vector<std::vector<const Segment*>> bursts;  ///< [hop], log order
  std::vector<std::vector<Time>> avail;       ///< availability window starts
  Time leaf_avail = -1.0;

  std::size_t len() const { return path ? path->size() : 0; }
};

/// Strictly higher priority, in the engine's exact lexicographic order. Key
/// inputs (instance sizes, releases, burst endpoints) round-trip bit-exactly
/// through the run log, so no tolerance is needed — and using one would flag
/// correct near-tie decisions.
bool higher_priority(const PriorityKey& x, const PriorityKey& y) {
  return x < y;
}

// ---------------------------------------------------------------------------
// Overload mode: admission-control records (shedcfg / shed / reject / admitf)
// ---------------------------------------------------------------------------

/// Per-job view of the admission-control records, shared by the clean and
/// fault audits. Cross-record sanity (a job both shed and rejected, records
/// naming unknown jobs, shed records without a shed policy) is reported here.
struct OverloadAudit {
  bool active = false;       ///< a shed policy was configured
  std::vector<Time> shed_t;  ///< eviction time; -1 = never shed
  std::vector<char> rejected;
  std::vector<double> reject_f, reject_bound;
  std::vector<char> has_admitf;
  std::vector<double> admit_f, admit_bound;

  bool shed(std::size_t j) const { return shed_t[j] >= 0.0; }
};

/// Requires log.paths.size() == instance.job_count() (checked by callers).
OverloadAudit build_overload_audit(const Instance& instance, const RunLog& log,
                                   AuditReport& rep) {
  OverloadAudit ov;
  const std::size_t n_jobs = uidx(instance.job_count());
  ov.active = log.shed.enabled();
  ov.shed_t.assign(n_jobs, -1.0);
  ov.rejected.assign(n_jobs, 0);
  ov.reject_f.assign(n_jobs, -1.0);
  ov.reject_bound.assign(n_jobs, -1.0);
  ov.has_admitf.assign(n_jobs, 0);
  ov.admit_f.assign(n_jobs, -1.0);
  ov.admit_bound.assign(n_jobs, -1.0);
  if (!ov.active && !log.sheds.empty())
    rep.fail("log carries admission-control records but no shed policy");
  for (const ShedRecord& sr : log.sheds) {
    if (sr.job < 0 || uidx(sr.job) >= n_jobs) {
      rep.fail("admission record names unknown job " + std::to_string(sr.job));
      continue;
    }
    const std::size_t j = uidx(sr.job);
    switch (sr.kind) {
      case ShedRecord::Kind::kShed:
        if (ov.shed(j))
          rep.fail("job " + std::to_string(sr.job) + " shed twice");
        ov.shed_t[j] = sr.t;
        break;
      case ShedRecord::Kind::kReject:
        if (ov.rejected[j])
          rep.fail("job " + std::to_string(sr.job) + " rejected twice");
        ov.rejected[j] = 1;
        ov.reject_f[j] = sr.f;
        ov.reject_bound[j] = sr.bound;
        break;
      case ShedRecord::Kind::kAdmit:
        ov.has_admitf[j] = 1;
        ov.admit_f[j] = sr.f;
        ov.admit_bound[j] = sr.bound;
        break;
    }
  }
  for (std::size_t j = 0; j < n_jobs; ++j) {
    if (ov.rejected[j] && ov.shed(j))
      rep.fail("job " + std::to_string(j) + " both rejected and shed");
    if (ov.rejected[j] && !log.paths[j].empty())
      rep.fail("rejected job " + std::to_string(j) +
               " has a recorded path (was dispatched anyway)");
    if (ov.shed(j) && log.paths[j].empty())
      rep.fail("shed job " + std::to_string(j) +
               " has no recorded path (was never admitted)");
  }
  return ov;
}

// ---------------------------------------------------------------------------
// Fault mode: the fault timeline and each job's re-dispatch chain
// ---------------------------------------------------------------------------

/// Per-node down windows and slowdown steps, and per-job re-dispatch
/// records, read from the log's fault timeline. A run without faults has
/// none: every node stays up at factor 1.
struct FaultTimeline {
  struct Window {
    Time lo = 0.0;
    Time hi = kInf;
  };
  std::vector<std::vector<Window>> down;
  std::vector<std::vector<std::pair<Time, double>>> steps;
  std::vector<std::vector<const FaultRecord*>> redispatches;

  FaultTimeline(std::size_t n_jobs, std::size_t n_nodes)
      : down(n_nodes), steps(n_nodes), redispatches(n_jobs) {}

  bool down_at(NodeId v, Time t) const {
    for (const Window& w : down[uidx(v)])
      if (w.lo <= t && t < w.hi) return true;
    return false;
  }
  double factor_at(NodeId v, Time t) const {
    double f = 1.0;
    for (const auto& [st, sf] : steps[uidx(v)]) {
      if (st > t) break;
      f = sf;
    }
    return f;
  }
  /// Whether a step strictly inside (t0, t1) moves the factor away from `f`.
  /// A burst may end exactly at a step, so the endpoints never count.
  bool factor_changes_inside(NodeId v, Time t0, Time t1, double f,
                             double tol) const {
    for (const auto& [st, sf] : steps[uidx(v)])
      if (t0 < st && st < t1 && std::fabs(sf - f) > tol) return true;
    return false;
  }
};

/// Reads the fault timeline into `ft`. Returns false when it is unusable
/// (out of order, unknown nodes or jobs, inconsistent up/down pairs);
/// every problem is reported.
bool read_fault_timeline(const RunLog& log, double tol, FaultTimeline& ft,
                         AuditReport& rep) {
  const std::size_t n_jobs = ft.redispatches.size();
  const std::size_t n_nodes = ft.down.size();
  std::vector<char> is_down(n_nodes, 0), is_edge_down(n_nodes, 0);
  bool ok = true;
  auto fail = [&](std::string msg) {
    rep.fail(std::move(msg));
    ok = false;
  };
  Time prev = 0.0;
  for (const FaultRecord& fr : log.faults) {
    if (fr.t < prev - tol) {
      fail("fault log out of order at t=" + fmt(fr.t));
      return false;
    }
    prev = std::max(prev, fr.t);
    if (fr.node < 0 || uidx(fr.node) >= n_nodes) {
      fail("fault record names unknown node " + std::to_string(fr.node));
      return false;
    }
    const std::size_t v = uidx(fr.node);
    switch (fr.kind) {
      case FaultRecord::Kind::kNodeDown:
        if (is_down[v])
          fail("node " + std::to_string(fr.node) +
               " down twice without recovering");
        is_down[v] = 1;
        ft.down[v].push_back({fr.t, kInf});
        break;
      case FaultRecord::Kind::kNodeUp:
        if (!is_down[v]) {
          fail("node " + std::to_string(fr.node) +
               " recovered without being down");
        } else {
          is_down[v] = 0;
          ft.down[v].back().hi = fr.t;
        }
        break;
      case FaultRecord::Kind::kEdgeDown:
        if (is_edge_down[v])
          fail("edge to node " + std::to_string(fr.node) + " severed twice");
        is_edge_down[v] = 1;
        break;
      case FaultRecord::Kind::kEdgeUp:
        if (!is_edge_down[v])
          fail("edge to node " + std::to_string(fr.node) +
               " restored without being severed");
        is_edge_down[v] = 0;
        break;
      case FaultRecord::Kind::kSlow:
        if (fr.factor <= 0.0)
          fail("slowdown factor " + fmt(fr.factor) + " on node " +
               std::to_string(fr.node) + " is not positive");
        ft.steps[v].push_back({fr.t, fr.factor});
        break;
      case FaultRecord::Kind::kRedispatch:
        if (fr.job < 0 || uidx(fr.job) >= n_jobs) {
          fail("redispatch names unknown job " + std::to_string(fr.job));
          return false;
        }
        if (fr.to < 0 || uidx(fr.to) >= n_nodes) {
          fail("redispatch names unknown target node " +
               std::to_string(fr.to));
          return false;
        }
        ft.redispatches[uidx(fr.job)].push_back(&fr);
        break;
    }
  }
  return ok;
}

/// Rebuilds job j's epochs from its re-dispatch chain: initial leaf ->
/// re-dispatch targets -> the recorded final leaf. Each move must leave a
/// dead machine for a live one, and the chain must end where the recorded
/// path does. Returns false (reported) when the chain cannot be followed.
bool read_redispatch_chain(const Tree& tree, const FaultTimeline& ft,
                           std::size_t j, const std::vector<NodeId>& path,
                           std::vector<Epoch>& epochs, AuditReport& rep) {
  const NodeId final_leaf = path.back();
  if (path != tree.path_to(final_leaf)) {
    rep.fail("job " + std::to_string(j) +
             " recorded path is not the tree path to machine " +
             std::to_string(final_leaf));
    return false;
  }
  const auto& chain = ft.redispatches[j];
  NodeId cur = chain.empty() ? final_leaf : chain.front()->node;
  if (!tree.is_leaf(cur)) {
    rep.fail("job " + std::to_string(j) + " initial leaf " +
             std::to_string(cur) + " is not a machine");
    return false;
  }
  epochs.push_back({0.0, &tree.path_to(cur)});
  for (const FaultRecord* fr : chain) {
    if (fr->node != cur) {
      rep.fail("redispatch of job " + std::to_string(j) + " at t=" +
               fmt(fr->t) + " moves it from node " + std::to_string(fr->node) +
               " but it was assigned to " + std::to_string(cur));
      return false;
    }
    if (!ft.down_at(fr->node, fr->t))
      rep.fail("job " + std::to_string(j) + " re-dispatched at t=" +
               fmt(fr->t) + " away from node " + std::to_string(fr->node) +
               " which was not down");
    if (!tree.is_leaf(fr->to) || ft.down_at(fr->to, fr->t)) {
      rep.fail("job " + std::to_string(j) + " re-dispatched at t=" +
               fmt(fr->t) + " to node " + std::to_string(fr->to) +
               " which is not a live machine");
      if (!tree.is_leaf(fr->to)) return false;
    }
    cur = fr->to;
    epochs.push_back({fr->t, &tree.path_to(cur)});
  }
  if (cur != final_leaf) {
    rep.fail("job " + std::to_string(j) + " re-dispatch chain ends at node " +
             std::to_string(cur) + " but the recorded final machine is " +
             std::to_string(final_leaf));
    return false;
  }
  return true;
}

}  // namespace

std::string AuditReport::summary() const {
  std::ostringstream os;
  if (ok) {
    os << "audit clean: " << jobs_checked << " job(s), " << segments_checked
       << " segment(s), all invariants hold";
  } else {
    os << violations.size() << " audit violation(s):\n";
    for (const auto& v : violations) os << "  - " << v << '\n';
  }
  for (const auto& n : notes) os << "\n  note: " << n;
  return os.str();
}

std::string AuditReport::lemma_table() const {
  if (lemma_rows.empty()) return {};
  util::Table t({"job", "size", "lemma2 max ratio", "@node", "interior wait",
                 "wait bound", "wait ratio"});
  auto cell = [](double v) {
    return v < 0.0 ? std::string("-") : util::Table::num(v);
  };
  for (const LemmaRow& r : lemma_rows) {
    t.add(r.job, util::Table::num(r.size), cell(r.lemma2_ratio),
          r.lemma2_node == kInvalidNode ? std::string("-")
                                        : std::to_string(r.lemma2_node),
          cell(r.interior_wait), cell(r.wait_bound), cell(r.wait_ratio));
  }
  std::ostringstream os;
  os << t.str();
  os << "worst lemma 2 ratio      : " << cell(lemma2_max_ratio) << '\n'
     << "worst interior-wait ratio: " << cell(wait_max_ratio) << '\n';
  return os.str();
}

AuditReport audit_run(const Instance& instance, const RunLog& log,
                      const AuditOptions& opts) {
  if (std::isnan(opts.eps) || opts.eps < 0.0 || std::isinf(opts.eps))
    throw std::invalid_argument("audit eps must be 0 or finite and > 0, got " +
                                fmt(opts.eps));
  if (opts.strict_lemmas && opts.eps == 0.0)
    throw std::invalid_argument("strict lemma checks need eps > 0");
  if (!(opts.tol >= 0.0) || std::isinf(opts.tol))
    throw std::invalid_argument("audit tol must be finite and >= 0, got " +
                                fmt(opts.tol));
  AuditReport rep;
  const double tol = opts.tol;
  const Tree& tree = instance.tree();
  const std::size_t n_jobs = uidx(instance.job_count());
  const std::size_t n_nodes = uidx(tree.node_count());
  const bool faulty = !log.faults.empty();

  if (log.paths.size() != n_jobs || log.completion.size() != n_jobs) {
    rep.fail("run log covers " + std::to_string(log.paths.size()) +
             " job(s) but the instance has " + std::to_string(n_jobs));
    return rep;
  }
  if (log.speeds.size() != n_nodes) {
    rep.fail("run log has " + std::to_string(log.speeds.size()) +
             " speed(s) but the tree has " + std::to_string(n_nodes) +
             " node(s)");
    return rep;
  }
  if (faulty && log.router_chunk_size > 0.0) {
    rep.fail("fault-injected runs require whole-job forwarding "
             "(router_chunk_size 0), log has chunk " +
             fmt(log.router_chunk_size));
    return rep;
  }
  const OverloadAudit ov = build_overload_audit(instance, log, rep);
  FaultTimeline ft(n_jobs, n_nodes);
  if (faulty && !read_fault_timeline(log, tol, ft, rep)) return rep;

  // --- per-job setup: path sanity, epochs, chunking, item aggregates -------
  std::vector<JobAudit> ja(n_jobs);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const Job& job = instance.job(static_cast<JobId>(j));
    const auto& path = log.paths[j];
    // The engine never sheds a re-dispatched job and never re-dispatches a
    // shed one; a log claiming both for the same job is inconsistent.
    if (ov.shed(j) && !ft.redispatches[j].empty())
      rep.fail("job " + std::to_string(j) + " was both shed and re-dispatched");
    if (path.empty()) {
      if (!ov.rejected[j])
        rep.fail("job " + std::to_string(j) +
                 " has no recorded path (never dispatched)");
      continue;
    }
    bool path_ok = true;
    for (const NodeId v : path)
      if (v < 0 || uidx(v) >= n_nodes) {
        rep.fail("job " + std::to_string(j) + " path names unknown node " +
                 std::to_string(v));
        path_ok = false;
      }
    if (!path_ok) continue;
    if (!tree.is_leaf(path.back())) {
      rep.fail("job " + std::to_string(j) +
               " path does not end at a machine (node " +
               std::to_string(path.back()) + ")");
      continue;
    }
    JobAudit& a = ja[j];
    if (!faulty)
      a.epochs.push_back({0.0, &path});
    else if (!read_redispatch_chain(tree, ft, j, path, a.epochs, rep))
      continue;
    a.path = &path;
    if (log.router_chunk_size > 0.0)
      a.chunks = static_cast<std::int32_t>(
          std::max(1.0, std::ceil(job.size / log.router_chunk_size)));
    a.chunk_size = job.size / a.chunks;
    a.router.assign(path.size() - 1,
                    std::vector<ItemAgg>(uidx(a.chunks)));
    a.bursts.resize(path.size());
  }

  // --- per-segment checks + aggregation -------------------------------------
  std::vector<std::vector<const Segment*>> by_node(n_nodes);
  for (const Segment& s : log.segments) {
    ++rep.segments_checked;
    if (s.job < 0 || uidx(s.job) >= n_jobs) {
      rep.fail("segment names unknown job " + std::to_string(s.job));
      continue;
    }
    if (s.node < 0 || uidx(s.node) >= n_nodes) {
      rep.fail("segment names unknown node " + std::to_string(s.node));
      continue;
    }
    if (s.t1 < s.t0 - tol) {
      rep.fail("segment of job " + std::to_string(s.job) + " on node " +
               std::to_string(s.node) + " has negative duration [" +
               fmt(s.t0) + "," + fmt(s.t1) + ")");
      continue;
    }
    const std::size_t j = uidx(s.job);
    if (ov.rejected[j]) {
      rep.fail("rejected job " + std::to_string(s.job) +
               " recorded a burst at t=" + fmt(s.t0));
      continue;
    }
    if (ov.shed(j) && s.t1 > ov.shed_t[j] + tol)
      rep.fail("shed job " + std::to_string(s.job) +
               " processed after its eviction at t=" + fmt(ov.shed_t[j]) +
               ": burst [" + fmt(s.t0) + "," + fmt(s.t1) + ") on node " +
               std::to_string(s.node));
    const Job& job = instance.job(s.job);
    if (s.t0 < job.release - tol)
      rep.fail("job " + std::to_string(s.job) + " ran on node " +
               std::to_string(s.node) + " at " + fmt(s.t0) +
               " before its release " + fmt(job.release));
    // Effective rate: base speed times the slowdown factor in force. The
    // engine ends every burst at a factor step, so the factor at t0 governs.
    const double factor = ft.factor_at(s.node, s.t0);
    const double expect = log.speeds[uidx(s.node)] * factor;
    if (std::fabs(s.rate - expect) > tol)
      rep.fail("segment rate " + fmt(s.rate) + " != speed x slowdown " +
               fmt(expect) + " of node " + std::to_string(s.node) + " at t=" +
               fmt(s.t0));
    if (ft.factor_changes_inside(s.node, s.t0, s.t1, factor, tol))
      rep.fail("segment of job " + std::to_string(s.job) + " on node " +
               std::to_string(s.node) + " spans a slowdown change at [" +
               fmt(s.t0) + "," + fmt(s.t1) + ")");
    // Nothing progresses at a dead node.
    for (const FaultTimeline::Window& w : ft.down[uidx(s.node)]) {
      const Time lo = std::max(s.t0, w.lo);
      const Time hi = std::min(s.t1, w.hi);
      if (hi - lo > tol)
        rep.fail("job " + std::to_string(s.job) + " progressed at node " +
                 std::to_string(s.node) + " during its down window [" +
                 fmt(w.lo) + "," + fmt(w.hi) + "): burst [" + fmt(s.t0) + "," +
                 fmt(s.t1) + ")");
    }
    JobAudit& a = ja[j];
    if (!a.path) continue;  // path or chain problem already reported
    std::size_t k = 0;
    while (k + 1 < a.epochs.size() && a.epochs[k + 1].start <= s.t0) ++k;
    const auto& path = *a.epochs[k].path;
    const int hop = hop_on(path, s.node);
    if (hop < 0) {
      rep.fail("job " + std::to_string(s.job) + " ran on node " +
               std::to_string(s.node) + " at t=" + fmt(s.t0) +
               " which is not on its assigned path (epoch " +
               std::to_string(k) + "; immediate-dispatch violation)");
      continue;
    }
    const bool leaf_hop = uidx(hop) + 1 == path.size();
    if (leaf_hop != (s.chunk == kLeafChunk)) {
      rep.fail("job " + std::to_string(s.job) + " recorded " +
               (s.chunk == kLeafChunk
                    ? std::string("machine work")
                    : "router chunk " + std::to_string(s.chunk)) +
               " on node " + std::to_string(s.node) + ", a " +
               (leaf_hop ? "machine" : "router") + " hop of its epoch-" +
               std::to_string(k) + " path");
      continue;
    }
    if (!leaf_hop && (s.chunk < 0 || s.chunk >= a.chunks)) {
      rep.fail("job " + std::to_string(s.job) + " chunk " +
               std::to_string(s.chunk) + " out of range (job has " +
               std::to_string(a.chunks) + ")");
      continue;
    }
    // Items of the final path: its routers collect the work of every epoch
    // (a crash-reverted partial only adds work); machine work counts in the
    // final epoch only (earlier attempts were lost with their machine).
    ItemAgg* agg = nullptr;
    if (leaf_hop) {
      if (k + 1 == a.epochs.size()) agg = &a.leaf;
    } else {
      a.last_router_end = std::max(a.last_router_end, s.t1);
      if (uidx(hop) + 1 < a.len() && (*a.path)[uidx(hop)] == s.node)
        agg = &a.router[uidx(hop)][uidx(s.chunk)];
    }
    if (agg) {
      agg->work += s.work();
      agg->first = std::min(agg->first, s.t0);
      agg->last = std::max(agg->last, s.t1);
      a.bursts[uidx(hop)].push_back(&s);
    }
    by_node[uidx(s.node)].push_back(&s);
  }

  // --- unit capacity: per-node non-overlap ---------------------------------
  for (std::size_t v = 0; v < n_nodes; ++v) {
    auto& list = by_node[v];
    std::sort(list.begin(), list.end(),
              [](const Segment* a, const Segment* b) { return a->t0 < b->t0; });
    for (std::size_t i = 1; i < list.size(); ++i) {
      const Segment* p = list[i - 1];
      const Segment* q = list[i];
      if (q->t0 < p->t1 - tol)
        rep.fail("unit capacity violated on node " + std::to_string(v) +
                 ": job " + std::to_string(p->job) + " [" + fmt(p->t0) + "," +
                 fmt(p->t1) + ") overlaps job " + std::to_string(q->job) +
                 " [" + fmt(q->t0) + "," + fmt(q->t1) + ")");
    }
  }

  // --- per-job: conservation, precedence, completion, availability ---------
  for (std::size_t j = 0; j < n_jobs; ++j) {
    JobAudit& a = ja[j];
    if (!a.path) continue;
    ++rep.jobs_checked;
    const Job& job = instance.job(static_cast<JobId>(j));
    const std::size_t len = a.len();
    const NodeId leaf = a.path->back();
    const double leaf_work = instance.processing_time(job.id, leaf);

    // Work conservation per item. A shed job is exempt: it keeps whatever
    // partial walk it made before eviction (the no-burst-after-eviction rule
    // is enforced per segment; precedence below still covers what did run).
    // Across re-dispatches a router may forward more than the job (lost
    // partials), never less; the final attempt's machine work is exact.
    const bool was_shed = ov.shed(j);
    if (!was_shed) {
      for (std::size_t h = 0; h + 1 < len; ++h)
        for (std::int32_t c = 0; c < a.chunks; ++c) {
          const ItemAgg& agg = a.router[h][uidx(c)];
          const double ctol = tol * std::max(1.0, a.chunk_size);
          if (!agg.ran()) {
            rep.fail("job " + std::to_string(j) + " chunk " +
                     std::to_string(c) + " never ran on node " +
                     std::to_string((*a.path)[h]));
          } else if (agg.work < a.chunk_size - ctol ||
                     (!faulty && agg.work > a.chunk_size + ctol)) {
            rep.fail("job " + std::to_string(j) + " chunk " +
                     std::to_string(c) + " on node " +
                     std::to_string((*a.path)[h]) + ": work " + fmt(agg.work) +
                     " != " + fmt(a.chunk_size));
          }
        }
      if (!a.leaf.ran()) {
        rep.fail("job " + std::to_string(j) + " never ran on its machine " +
                 std::to_string(leaf) + " in its final epoch");
      } else if (std::fabs(a.leaf.work - leaf_work) >
                 tol * std::max(1.0, leaf_work)) {
        rep.fail("job " + std::to_string(j) + " final-epoch machine work " +
                 fmt(a.leaf.work) + " != " + fmt(leaf_work) + " on node " +
                 std::to_string(leaf));
      }
    }

    Time all_data_arrived = -1.0;
    if (faulty) {
      // A crash may send a job back over routers it already crossed, so
      // hop order holds only within an epoch; what survives is that all
      // routing, in every epoch, precedes the final machine work.
      if (a.leaf.ran() && a.last_router_end > a.leaf.first + tol)
        rep.fail("precedence violated across recovery: job " +
                 std::to_string(j) + " machine work started at " +
                 fmt(a.leaf.first) + " before its last router burst ended at " +
                 fmt(a.last_router_end));
    } else {
      // Store-and-forward precedence, chunk by chunk down the path.
      for (std::size_t h = 1; h + 1 < len; ++h)
        for (std::int32_t c = 0; c < a.chunks; ++c) {
          const ItemAgg& up = a.router[h - 1][uidx(c)];
          const ItemAgg& down = a.router[h][uidx(c)];
          if (!up.ran() || !down.ran()) continue;  // reported above
          if (down.first < up.last - tol)
            rep.fail("precedence violated: job " + std::to_string(j) +
                     " chunk " + std::to_string(c) + " started on node " +
                     std::to_string((*a.path)[h]) + " at " + fmt(down.first) +
                     " before finishing on parent node " +
                     std::to_string((*a.path)[h - 1]) + " at " + fmt(up.last));
        }
      for (std::int32_t c = 0; len >= 2 && c < a.chunks; ++c) {
        const ItemAgg& up = a.router[len - 2][uidx(c)];
        if (up.ran()) all_data_arrived = std::max(all_data_arrived, up.last);
      }
      if (a.leaf.ran() && a.leaf.first < all_data_arrived - tol)
        rep.fail("precedence violated: job " + std::to_string(j) +
                 " machine work on node " + std::to_string(leaf) +
                 " started at " + fmt(a.leaf.first) + " before data arrival " +
                 fmt(all_data_arrived));
    }

    // Claimed completion vs the log.
    const Time claimed = log.completion[j];
    if (was_shed) {
      if (claimed >= 0.0)
        rep.fail("shed job " + std::to_string(j) + " claims completion " +
                 fmt(claimed));
    } else if (claimed < 0.0) {
      rep.fail("job " + std::to_string(j) + " never completed");
    } else if (a.leaf.ran() && std::fabs(a.leaf.last - claimed) > tol) {
      rep.fail("job " + std::to_string(j) + " claimed completion " +
               fmt(claimed) + " != last machine burst end " + fmt(a.leaf.last));
    }
    if (faulty) continue;

    // Availability windows (head-chunk rule + store-and-forward arrivals).
    a.avail.assign(len > 0 ? len - 1 : 0,
                   std::vector<Time>(uidx(a.chunks), -1.0));
    for (std::size_t h = 0; h + 1 < len; ++h)
      for (std::int32_t c = 0; c < a.chunks; ++c) {
        Time t = (h == 0) ? job.release : -1.0;
        if (h > 0) {
          const ItemAgg& up = a.router[h - 1][uidx(c)];
          if (!up.ran()) continue;  // unknown; dependent checks skip it
          t = up.last;
        }
        if (c > 0) {
          const ItemAgg& prev = a.router[h][uidx(c - 1)];
          if (!prev.ran()) continue;
          t = std::max(t, prev.last);
        }
        a.avail[h][uidx(c)] = t;
      }
    a.leaf_avail = (len == 1) ? job.release : all_data_arrived;
  }

  // Priority consistency, the admission caps and the lemma margins read
  // availability windows that crashes invalidate.
  if (faulty) {
    rep.notes.push_back(
        "fault mode: " + std::to_string(log.faults.size()) +
        " fault record(s); priority consistency not audited (crashes "
        "legitimately reorder work)");
    if (ov.active)
      rep.notes.push_back(
          "fault mode: queue-cap and deadline admission checks skipped "
          "(re-dispatch replays hop-0 work without an admission decision)");
    if (opts.eps > 0.0)
      rep.notes.push_back(
          "fault mode: lemma margins not audited (the paper's bounds "
          "presuppose a fault-free network)");
    return rep;
  }

  // Remaining work of job i on its hop h at time t, from the burst log.
  auto remaining_at = [&](std::size_t i, std::size_t h, Time t) {
    const JobAudit& a = ja[i];
    const auto id = static_cast<JobId>(i);
    const double required = h + 1 == a.len()
                                ? instance.processing_time(id, a.path->back())
                                : instance.job(id).size;
    util::CompensatedSum done;
    for (const Segment* s : a.bursts[h]) {
      if (s->t1 <= t)
        done.add(s->work());
      else if (s->t0 < t)
        done.add((t - s->t0) * s->rate);
    }
    return std::max(required - done.value(), 0.0);
  };

  // --- overload admission control ------------------------------------------
  if (ov.active) {
    const overload::ShedConfig& sc = log.shed;
    rep.notes.push_back(std::string("overload mode: policy ") +
                        overload::shed_policy_name(sc.policy) + ", " +
                        std::to_string(log.sheds.size()) +
                        " admission record(s)");
    if (sc.policy == overload::ShedPolicy::kBoundedQueue ||
        sc.policy == overload::ShedPolicy::kLargestFirst) {
      // Cap safety: at every admission epoch the root-cut backlog —
      // reconstructed from the burst log exactly as the engine's
      // pending_remaining aggregates measure it — must respect the cap.
      // Hop 0 of every path is a root child, so a job's root-cut
      // contribution is its hop-0 requirement minus hop-0 work done.
      for (std::size_t j = 0; j < n_jobs; ++j) {
        if (!ja[j].path) continue;  // rejected: no admission epoch
        const Time r_j = instance.job(static_cast<JobId>(j)).release;
        util::CompensatedSum backlog;
        for (std::size_t i = 0; i < n_jobs; ++i) {
          if (!ja[i].path) continue;
          const Time r_i = instance.job(static_cast<JobId>(i)).release;
          if (r_i > r_j || (r_i == r_j && i > j)) continue;  // admitted later
          if (ov.shed(i) && ov.shed_t[i] <= r_j + tol) continue;  // evicted
          backlog.add(remaining_at(i, 0, r_j));
        }
        if (backlog.value() > sc.queue_cap + tol * std::max(1.0, sc.queue_cap))
          rep.fail("queue cap exceeded at admission of job " +
                   std::to_string(j) + " (t=" + fmt(r_j) +
                   "): reconstructed root-cut backlog " + fmt(backlog.value()) +
                   " > cap " + fmt(sc.queue_cap));
      }
    }
    if (sc.policy == overload::ShedPolicy::kDeadline) {
      // Every admission decision must carry the recorded Lemma-4 estimate,
      // and the recorded estimate must actually justify the decision against
      // bound = slack x p_j.
      for (std::size_t j = 0; j < n_jobs; ++j) {
        const double want =
            sc.deadline_slack * instance.job(static_cast<JobId>(j)).size;
        const double dtol = tol * std::max(1.0, want);
        if (ja[j].path) {
          if (!ov.has_admitf[j]) {
            rep.fail("deadline policy admitted job " + std::to_string(j) +
                     " without a recorded F bound (admitf line)");
            continue;
          }
          if (std::fabs(ov.admit_bound[j] - want) > dtol)
            rep.fail("job " + std::to_string(j) + " admitf bound " +
                     fmt(ov.admit_bound[j]) + " != slack x size " + fmt(want));
          if (ov.admit_f[j] > ov.admit_bound[j] + dtol)
            rep.fail("deadline policy admitted job " + std::to_string(j) +
                     " with estimated completion F " + fmt(ov.admit_f[j]) +
                     " > bound " + fmt(ov.admit_bound[j]));
        } else if (ov.rejected[j]) {
          if (std::fabs(ov.reject_bound[j] - want) > dtol)
            rep.fail("job " + std::to_string(j) + " reject bound " +
                     fmt(ov.reject_bound[j]) + " != slack x size " + fmt(want));
          if (ov.reject_f[j] <= ov.reject_bound[j] - dtol)
            rep.fail("deadline policy rejected job " + std::to_string(j) +
                     " whose estimated completion F " + fmt(ov.reject_f[j]) +
                     " met the bound " + fmt(ov.reject_bound[j]));
        }
      }
    }
  }

  // --- priority consistency ------------------------------------------------
  if (log.node_policy == NodePolicy::kSrpt) {
    rep.notes.push_back(
        "priority consistency not audited for SRPT (keys depend on "
        "instantaneous remaining work)");
  } else {
    // All items per node with their key and availability window.
    struct NodeItem {
      PriorityKey key;
      Time avail = -1.0;
      Time finish = -1.0;
    };
    std::vector<std::vector<NodeItem>> items(n_nodes);
    auto make_key = [&](std::size_t j, NodeId v, std::int32_t chunk,
                        Time avail) {
      PriorityKey k;
      k.job = static_cast<JobId>(j);
      k.chunk = chunk;
      const Job& job = instance.job(k.job);
      switch (log.node_policy) {
        case NodePolicy::kSjf:
          k.a = instance.processing_time(k.job, v);
          k.b = job.release;
          break;
        case NodePolicy::kFifo:
          k.a = avail;
          break;
        case NodePolicy::kLcfs:
          k.a = -avail;
          break;
        case NodePolicy::kHdf:
          k.a = instance.processing_time(k.job, v) / job.weight;
          k.b = job.release;
          break;
        case NodePolicy::kSrpt:
          break;  // unreachable
      }
      return k;
    };
    for (std::size_t j = 0; j < n_jobs; ++j) {
      const JobAudit& a = ja[j];
      if (!a.path) continue;
      const std::size_t len = a.len();
      for (std::size_t h = 0; h + 1 < len; ++h)
        for (std::int32_t c = 0; c < a.chunks; ++c) {
          const ItemAgg& agg = a.router[h][uidx(c)];
          const Time avail = a.avail[h][uidx(c)];
          if (!agg.ran() || avail < 0.0) continue;
          items[uidx((*a.path)[h])].push_back(
              {make_key(j, (*a.path)[h], c, avail), avail, agg.last});
        }
      if (a.leaf.ran() && a.leaf_avail >= 0.0)
        items[uidx(a.path->back())].push_back(
            {make_key(j, a.path->back(), kLeafChunk, a.leaf_avail),
             a.leaf_avail, a.leaf.last});
    }
    const char* policy = node_policy_name(log.node_policy);
    std::set<std::tuple<JobId, std::int32_t, JobId, std::int32_t, NodeId>>
        reported;
    for (std::size_t v = 0; v < n_nodes; ++v) {
      if (items[v].empty()) continue;
      for (const Segment* s : by_node[v]) {
        // Identify the running item's key.
        const NodeItem* running = nullptr;
        for (const NodeItem& it : items[v])
          if (it.key.job == s->job && it.key.chunk == s->chunk) running = &it;
        if (!running) continue;  // structurally bad segment, reported above
        for (const NodeItem& other : items[v]) {
          if (other.key.job == s->job) continue;
          if (!higher_priority(other.key, running->key)) continue;
          const Time lo = std::max(s->t0, other.avail);
          const Time hi = std::min(s->t1, other.finish);
          if (hi - lo <= tol) continue;
          if (!reported
                   .insert({s->job, s->chunk, other.key.job, other.key.chunk,
                            static_cast<NodeId>(v)})
                   .second)
            continue;
          rep.fail(std::string(policy) + " priority violated on node " +
                   std::to_string(v) + ": ran job " + std::to_string(s->job) +
                   " (key " + fmt(running->key.a) + ") during [" + fmt(lo) +
                   "," + fmt(hi) + ") while job " +
                   std::to_string(other.key.job) + " (key " +
                   fmt(other.key.a) + ", available since " + fmt(other.avail) +
                   ") waited");
        }
      }
    }
  }

  // --- lemma margins (optional) --------------------------------------------
  if (opts.eps > 0.0) {
    const double eps = opts.eps;
    const bool leaf_identical = instance.model() == EndpointModel::kIdentical;

    // Every (job, hop) visiting each node, collected once.
    struct Visit {
      std::size_t job;
      std::size_t hop;
    };
    std::vector<std::vector<Visit>> visits(n_nodes);
    for (std::size_t i = 0; i < n_jobs; ++i)
      for (std::size_t h = 0; h < ja[i].len(); ++h)
        visits[uidx((*ja[i].path)[h])].push_back({i, h});
    // Calls f(arrival, finish) for each work item (chunk, or the machine
    // work) of a visit; -1 marks an unknown arrival or an item never run.
    auto for_each_item = [&](const Visit& w, auto&& f) {
      const JobAudit& a = ja[w.job];
      if (w.hop + 1 == a.len()) {
        f(a.leaf_avail, a.leaf.ran() ? a.leaf.last : -1.0);
        return;
      }
      for (std::int32_t c = 0; c < a.chunks; ++c) {
        const ItemAgg& agg = a.router[w.hop][uidx(c)];
        f(a.avail[w.hop][uidx(c)], agg.ran() ? agg.last : -1.0);
      }
    };
    auto available_at = [&](const Visit& w, Time t) {
      bool avail = false;
      for_each_item(w, [&](Time av, Time fin) {
        avail = avail || (av >= 0.0 && av <= t && fin > t);
      });
      return avail;
    };
    std::vector<const Visit*> members;
    std::vector<Time> instants;

    for (std::size_t j = 0; j < n_jobs; ++j) {
      const JobAudit& a = ja[j];
      if (!a.path) continue;
      if (ov.shed(j)) continue;  // partial walk: margins are undefined
      const Job& job = instance.job(static_cast<JobId>(j));
      LemmaRow row;
      row.job = job.id;
      row.size = job.size;
      const std::size_t len = a.len();

      // Lemma 2: over j's stay [r_j, C_{j,v}) on each eligible node v, the
      // remaining work on v of available members of S_{v,j} (j included)
      // is at most (2/eps) p_j. The volume only drains between arrivals,
      // so its supremum is attained at r_j or at an arrival on v of a
      // member's item inside the stay.
      for (std::size_t h = 0; h < len; ++h) {
        const NodeId v = (*a.path)[h];
        if (tree.is_root(v) || tree.parent(v) == tree.root()) continue;
        if (tree.is_leaf(v) && !leaf_identical) continue;
        const Time lo = job.release;
        Time hi = -1.0;  // C_{j,v}
        for_each_item({j, h}, [&](Time, Time fin) { hi = std::max(hi, fin); });
        if (hi < 0.0) continue;
        const double p_j = instance.processing_time(job.id, v);
        members.clear();
        instants.assign(1, lo);
        for (const Visit& w : visits[uidx(v)]) {
          const auto i = static_cast<JobId>(w.job);
          const double p_i = instance.processing_time(i, v);
          const Time r_i = instance.job(i).release;
          if (std::tie(p_j, job.release, job.id) < std::tie(p_i, r_i, i))
            continue;  // not in S_{v,j}
          bool overlaps = false;
          for_each_item(w, [&](Time av, Time fin) {
            if (av < 0.0 || av >= hi || fin <= lo) return;
            overlaps = true;
            if (av > lo) instants.push_back(av);
          });
          if (overlaps) members.push_back(&w);
        }
        double vol_max = 0.0;
        for (const Time t : instants) {
          util::CompensatedSum vol;
          for (const Visit* w : members)
            if (available_at(*w, t)) vol.add(remaining_at(w->job, w->hop, t));
          vol_max = std::max(vol_max, vol.value());
        }
        const double ratio = vol_max / (2.0 / eps * p_j);
        if (ratio > row.lemma2_ratio) {
          row.lemma2_ratio = ratio;
          row.lemma2_node = v;
        }
      }
      if (row.lemma2_ratio >= 0.0)
        rep.lemma2_max_ratio = std::max(rep.lemma2_max_ratio, row.lemma2_ratio);

      // Lemma 1/3: interior wait after leaving R(v)'s node is at most
      // (6/eps^2) p_j d_v over the identical portion of the path.
      const int last_idx =
          static_cast<int>(len) - (leaf_identical ? 1 : 2);
      if (last_idx >= 1) {
        Time left_first = -1.0;
        for (std::int32_t c = 0; c < a.chunks; ++c)
          if (a.router[0][uidx(c)].ran())
            left_first = std::max(left_first, a.router[0][uidx(c)].last);
        Time cleared = -1.0;
        if (uidx(last_idx) + 1 == len) {
          cleared = a.leaf.ran() ? a.leaf.last : -1.0;
        } else {
          for (std::int32_t c = 0; c < a.chunks; ++c)
            if (a.router[uidx(last_idx)][uidx(c)].ran())
              cleared =
                  std::max(cleared, a.router[uidx(last_idx)][uidx(c)].last);
        }
        if (left_first >= 0.0 && cleared >= 0.0) {
          const NodeId v_e = (*a.path)[uidx(last_idx)];
          row.interior_wait = cleared - left_first;
          row.wait_bound = 6.0 / (eps * eps) * job.size * tree.d(v_e);
          row.wait_ratio = row.interior_wait / row.wait_bound;
          rep.wait_max_ratio = std::max(rep.wait_max_ratio, row.wait_ratio);
          if (opts.strict_lemmas && row.wait_ratio > 1.0 + 1e-9)
            rep.fail("interior-wait bound violated for job " +
                     std::to_string(j) + ": wait " + fmt(row.interior_wait) +
                     " > bound " + fmt(row.wait_bound));
        }
      }
      if (opts.strict_lemmas && row.lemma2_ratio > 1.0 + 1e-9)
        rep.fail("lemma 2 volume bound violated for job " + std::to_string(j) +
                 " on node " + std::to_string(row.lemma2_node) + ": ratio " +
                 fmt(row.lemma2_ratio));
      rep.lemma_rows.push_back(row);
    }
  }

  return rep;
}

}  // namespace treesched::sim
