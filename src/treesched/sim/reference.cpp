#include "treesched/sim/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "treesched/util/assert.hpp"

namespace treesched::sim {

namespace {

struct RefJob {
  const Job* job = nullptr;
  std::vector<NodeId> path;
  // Router chunk bookkeeping (mirrors the engine's model independently):
  // hops 0..len-2 are routers, hop len-1 is the machine.
  std::int32_t chunks = 1;
  double chunk_size = 0.0;
  std::vector<std::int32_t> done;   ///< completed chunks per router hop
  std::vector<double> head;        ///< remaining of the head chunk per hop
  double leaf_rem = 0.0;
  std::vector<Time> head_avail;    ///< FIFO stamp per hop; <0 = unset
  bool arrived = false;
  bool finished = false;

  std::size_t len() const { return path.size(); }

  bool hop_available(std::size_t i) const {
    if (finished || !arrived) return false;
    if (i + 1 == len())
      return leaf_rem > 0.0 && (len() == 1 || done[len() - 2] == chunks);
    if (done[i] == chunks) return false;
    return i == 0 || done[i] < done[i - 1];
  }
};

}  // namespace

ReferenceResult simulate_reference(const Instance& instance,
                                   const SpeedProfile& speeds,
                                   const std::vector<NodeId>& leaf_of_job,
                                   NodePolicy policy, double chunk_size) {
  TS_REQUIRE(policy == NodePolicy::kSjf || policy == NodePolicy::kFifo,
             "reference simulator supports SJF and FIFO only");
  TS_REQUIRE(leaf_of_job.size() ==
                 uidx(instance.job_count()),
             "assignment must cover every job");
  TS_REQUIRE(chunk_size >= 0.0, "chunk size must be >= 0");
  const Tree& tree = instance.tree();
  const JobId n = instance.job_count();

  std::vector<RefJob> jobs(uidx(n));
  ReferenceResult result;
  result.completion.assign(uidx(n), -1.0);
  result.node_completion.resize(uidx(n));
  for (JobId j = 0; j < n; ++j) {
    RefJob& rj = jobs[uidx(j)];
    rj.job = &instance.job(j);
    const auto& p = tree.path_to(leaf_of_job[uidx(j)]);
    rj.path.assign(p.begin(), p.end());
    rj.chunks = chunk_size > 0.0
                    ? static_cast<std::int32_t>(std::max(
                          1.0, std::ceil(rj.job->size / chunk_size)))
                    : 1;
    rj.chunk_size = rj.job->size / rj.chunks;
    rj.done.assign(rj.len() - 1, 0);
    rj.head.assign(rj.len() - 1, rj.chunk_size);
    rj.leaf_rem = instance.processing_time(j, rj.path.back());
    rj.head_avail.assign(rj.len(), -1.0);
    result.node_completion[uidx(j)].assign(rj.len(), -1.0);
  }

  // Hop index of job j on node v, or npos.
  const auto hop_of = [&](JobId j, NodeId v) -> std::size_t {
    const auto& p = jobs[uidx(j)].path;
    for (std::size_t i = 0; i < p.size(); ++i)
      if (p[i] == v) return i;
    return static_cast<std::size_t>(-1);
  };
  (void)hop_of;

  const auto beats = [&](JobId a, std::size_t ha, JobId b,
                         std::size_t hb) {
    const RefJob& ra = jobs[uidx(a)];
    const RefJob& rb = jobs[uidx(b)];
    if (policy == NodePolicy::kSjf) {
      const double pa = instance.processing_time(a, ra.path[ha]);
      const double pb = instance.processing_time(b, rb.path[hb]);
      if (pa != pb) return pa < pb;
      if (ra.job->release != rb.job->release)
        return ra.job->release < rb.job->release;
      return a < b;
    }
    if (ra.head_avail[ha] != rb.head_avail[hb])
      return ra.head_avail[ha] < rb.head_avail[hb];
    return a < b;
  };

  Time now = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  // Stamp availability times for FIFO keys (and assert reachability).
  const auto refresh_avail_stamps = [&](Time t) {
    for (JobId j = 0; j < n; ++j) {
      RefJob& rj = jobs[uidx(j)];
      for (std::size_t i = 0; i < rj.len(); ++i)
        if (rj.hop_available(i) && rj.head_avail[i] < 0.0)
          rj.head_avail[i] = t;
    }
  };

  long guard = 0;
  std::int32_t max_chunks = 1;
  for (const RefJob& rj : jobs) max_chunks = std::max(max_chunks, rj.chunks);
  const long guard_limit =
      256 + 8L * (n + 1) * (tree.node_count() + 1) * max_chunks;
  while (true) {
    ++guard;
    TS_CHECK(guard < guard_limit * 8,
             "reference simulator failed to make progress");
    refresh_avail_stamps(now);

    // Per node, the best available (job, hop).
    std::vector<JobId> running(uidx(tree.node_count()), kInvalidJob);
    std::vector<std::size_t> running_hop(uidx(tree.node_count()), 0);
    bool any_alive = false;
    for (JobId j = 0; j < n; ++j) {
      RefJob& rj = jobs[uidx(j)];
      if (rj.finished) continue;
      any_alive = true;
      if (!rj.arrived) continue;
      for (std::size_t i = 0; i < rj.len(); ++i) {
        if (!rj.hop_available(i)) continue;
        const NodeId v = rj.path[i];
        if (running[uidx(v)] == kInvalidJob ||
            beats(j, i, running[uidx(v)], running_hop[uidx(v)])) {
          running[uidx(v)] = j;
          running_hop[uidx(v)] = i;
        }
      }
    }
    if (!any_alive) break;

    // Next breakpoint: release or completion of a running head/leaf.
    Time next = inf;
    for (JobId j = 0; j < n; ++j)
      if (!jobs[uidx(j)].finished && !jobs[uidx(j)].arrived)
        next = std::min(next, jobs[uidx(j)].job->release);
    for (NodeId v = 0; v < tree.node_count(); ++v) {
      const JobId j = running[uidx(v)];
      if (j == kInvalidJob) continue;
      const std::size_t i = running_hop[uidx(v)];
      const double rem =
          (i + 1 == jobs[uidx(j)].len()) ? jobs[uidx(j)].leaf_rem : jobs[uidx(j)].head[i];
      next = std::min(next, now + rem / speeds.speed(v));
    }
    TS_CHECK(next < inf, "deadlock in reference simulator");

    // A running item whose finish time is the breakpoint completes exactly;
    // subtracting dt * speed would leave rounding residue that grows with
    // the clock.
    const Time dt = next - now;
    for (NodeId v = 0; v < tree.node_count(); ++v) {
      const JobId j = running[uidx(v)];
      if (j == kInvalidJob) continue;
      const std::size_t i = running_hop[uidx(v)];
      double& rem = (i + 1 == jobs[uidx(j)].len()) ? jobs[uidx(j)].leaf_rem
                                                   : jobs[uidx(j)].head[i];
      rem = now + rem / speeds.speed(v) <= next
                ? 0.0
                : rem - dt * speeds.speed(v);
    }
    now = next;

    for (JobId j = 0; j < n; ++j) {
      RefJob& rj = jobs[uidx(j)];
      if (!rj.finished && !rj.arrived && rj.job->release <= now + 1e-12)
        rj.arrived = true;
    }

    // Completion cascade.
    for (JobId j = 0; j < n; ++j) {
      RefJob& rj = jobs[uidx(j)];
      if (rj.finished || !rj.arrived) continue;
      for (std::size_t i = 0; i + 1 < rj.len(); ++i) {
        if (rj.done[i] < rj.chunks && rj.head[i] <= 1e-9 &&
            rj.hop_available(i)) {
          ++rj.done[i];
          rj.head[i] = rj.chunk_size;
          rj.head_avail[i] = -1.0;  // the next head re-stamps when ready
          if (rj.done[i] == rj.chunks)
            result.node_completion[uidx(j)][i] = now;
        }
      }
      if (rj.len() >= 1 && rj.leaf_rem <= 1e-9 &&
          (rj.len() == 1 || rj.done[rj.len() - 2] == rj.chunks)) {
        rj.finished = true;
        result.node_completion[uidx(j)][rj.len() - 1] = now;
        result.completion[uidx(j)] = now;
        result.total_flow += now - rj.job->release;
      }
    }
  }
  return result;
}

}  // namespace treesched::sim
