#include "treesched/sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "treesched/util/assert.hpp"
#include "treesched/util/float_compare.hpp"

namespace treesched::sim {

namespace {
constexpr Time kNever = std::numeric_limits<Time>::infinity();

std::uint64_t next_engine_serial() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

Engine::Engine(const Instance& instance, SpeedProfile speeds, EngineConfig cfg)
    : inst_(&instance),
      serial_(next_engine_serial()),
      speeds_(std::move(speeds)),
      cfg_(cfg) {
  TS_REQUIRE(speeds_.speeds().size() ==
                 uidx(instance.tree().node_count()),
             "speed profile does not match the tree");
  TS_REQUIRE(cfg_.router_chunk_size >= 0.0, "chunk size must be >= 0");
  nodes_.resize(uidx(instance.tree().node_count()));
  for (NodeState& ns : nodes_) ns.index.attach_pool(&index_pool_);
  index_pool_.reserve_tables(instance.tree().root_children().size());
  jobs_.resize(uidx(instance.job_count()));
  if (cfg_.arena_reserve > 0) {
    a_chunks_done_.reserve(cfg_.arena_reserve);
    a_head_rem_.reserve(cfg_.arena_reserve);
    a_key_.reserve(cfg_.arena_reserve);
    a_slot_.reserve(cfg_.arena_reserve);
    a_in_avail_.reserve(cfg_.arena_reserve);
  }
  metrics_.reset(uidx(instance.job_count()));
  metrics_.reserve_stamps(cfg_.arena_reserve);  // one stamp per arena entry
}

void Engine::extend(const Instance& larger) {
  TS_REQUIRE(&larger.tree() == &tree() && larger.model() == inst_->model(),
             "extend: the larger instance must share the tree and model");
  // Against the engine's own job count: `larger` may be the bound instance
  // itself, grown in place by Instance::append.
  TS_REQUIRE(uidx(larger.job_count()) >= jobs_.size(),
             "extend: the instance cannot shrink");
  inst_ = &larger;
  jobs_.resize(uidx(larger.job_count()));
  metrics_.extend(uidx(larger.job_count()));
}

// ---------------------------------------------------------------------------
// Internal helpers
// ---------------------------------------------------------------------------

std::uint32_t Engine::alloc_span(std::size_t len) {
  const std::size_t off = a_in_avail_.size();
  a_chunks_done_.resize(off + len, 0);
  a_head_rem_.resize(off + len, 0.0);
  a_key_.resize(off + len);
  a_slot_.resize(off + len, -1);
  a_in_avail_.resize(off + len, 0);
  return static_cast<std::uint32_t>(off);
}

int Engine::path_index(const JobState& js, NodeId v) const {
  TS_REQUIRE(js.admitted, "job not admitted");
  if (js.path != nullptr) {
    // Root-dispatched paths are tree().path_to(leaf): the node at depth d
    // sits at position d - 1, so the lookup is O(1) instead of a scan.
    const int idx = tree().depth(v) - 1;
    TS_REQUIRE(idx >= 0 && static_cast<std::size_t>(idx) < js.len &&
                   (*js.path)[uidx(idx)] == v,
               "node not on the job's path");
    return idx;
  }
  // Custom paths (arbitrary-source extension) may climb before descending;
  // they are short and rare, so the scan stays.
  for (std::size_t i = 0; i < js.len; ++i)
    if (path_node(js, i) == v) return static_cast<int>(i);
  TS_REQUIRE(false, "node not on the job's path");
  return -1;
}

bool Engine::is_leaf_index(const JobState& js, int idx) const {
  return static_cast<std::size_t>(idx) + 1 == js.len;
}

double Engine::stored_remaining_item(const JobState& js, int idx) const {
  if (is_leaf_index(js, idx)) return js.leaf_rem;
  TS_CHECK(chunks_done(js, uidx(idx)) < js.chunks,
           "no pending chunk on this node");
  return head_rem(js, uidx(idx));
}

double Engine::live_remaining_item(JobId j, int idx) const {
  const JobState& js = jobs_[uidx(j)];
  const NodeId v = path_node(js, uidx(idx));
  double rem = stored_remaining_item(js, idx);
  const NodeState& ns = nodes_[uidx(v)];
  if (ns.has_running && ns.running.job == j)
    rem -= (now_ - ns.burst_start) * node_speed(v);
  return std::max(rem, 0.0);
}

double Engine::stored_remaining_total(const JobState& js, int idx) const {
  if (is_leaf_index(js, idx)) return js.done ? 0.0 : js.leaf_rem;
  if (chunks_done(js, uidx(idx)) == js.chunks) return 0.0;
  return static_cast<double>(js.chunks - chunks_done(js, uidx(idx)) - 1) *
             js.chunk_size +
         head_rem(js, uidx(idx));
}

SjfKey Engine::index_key(JobId j, NodeId v) const {
  return {size_on(j, v), inst_->job(j).release, j};
}

void Engine::index_insert(NodeId v, JobId j, int idx) {
  nodes_[uidx(v)].index.insert(index_key(j, v),
                               stored_remaining_total(jobs_[uidx(j)], idx));
}

void Engine::index_refresh(NodeId v, JobId j, int idx) {
  nodes_[uidx(v)].index.update(index_key(j, v),
                               stored_remaining_total(jobs_[uidx(j)], idx));
}

void Engine::index_erase(NodeId v, JobId j) {
  nodes_[uidx(v)].index.erase(index_key(j, v));
}

void Engine::tear_out(NodeId v, JobId j, int idx, Time t) {
  NodeState& ns = nodes_[uidx(v)];
  pause(v, t);
  if (ns.has_running && ns.running.job == j) ns.has_running = false;
  if (in_avail(jobs_[uidx(j)], uidx(idx))) erase_avail(v, j, idx);
  std::erase_if(ns.deferred, [j](const std::pair<JobId, int>& d) {
    return d.first == j;
  });
  // A hop the job already finished (a fully forwarded router) left Q_v at
  // completion time.
  ns.index.erase_if_present(index_key(j, v));
}

PriorityKey Engine::make_key(JobId j, int idx, Time avail_time) const {
  const JobState& js = jobs_[uidx(j)];
  const NodeId v = path_node(js, uidx(idx));
  PriorityKey k;
  k.job = j;
  k.chunk = is_leaf_index(js, idx) ? kLeafChunk : chunks_done(js, uidx(idx));
  const Time release = inst_->job(j).release;
  switch (cfg_.node_policy) {
    case NodePolicy::kSjf:
      k.a = size_on(j, v);
      k.b = release;
      break;
    case NodePolicy::kFifo:
      k.a = avail_time;
      k.b = 0.0;
      break;
    case NodePolicy::kSrpt:
      k.a = stored_remaining_item(js, idx);
      k.b = release;
      break;
    case NodePolicy::kLcfs:
      k.a = -avail_time;
      k.b = 0.0;
      break;
    case NodePolicy::kHdf:
      k.a = size_on(j, v) / inst_->job(j).weight;
      k.b = release;
      break;
  }
  return k;
}

// --- availability heap -----------------------------------------------------
//
// Each node's available items form a flat binary min-heap on the full
// PriorityKey order (a total order, so the minimum is unique). The heap
// position of item (job, idx) lives in the job arena (a_slot_) and follows
// every sift, which makes erase-by-item O(log n) with no allocation and no
// tree nodes — the dispatch-index treap's pool idiom, flattened further.

void Engine::avail_set_slot(const AvailEntry& e, std::int32_t pos) {
  const JobState& js = jobs_[uidx(e.key.job)];
  a_slot_[js.span + uidx(e.idx)] = pos;
}

void Engine::avail_sift_up(std::vector<AvailEntry>& h, std::size_t i) {
  const AvailEntry e = h[i];
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    if (!(e.key < h[p].key)) break;
    h[i] = h[p];
    avail_set_slot(h[i], static_cast<std::int32_t>(i));
    i = p;
  }
  h[i] = e;
  avail_set_slot(e, static_cast<std::int32_t>(i));
}

void Engine::avail_sift_down(std::vector<AvailEntry>& h, std::size_t i) {
  const std::size_t n = h.size();
  const AvailEntry e = h[i];
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && h[c + 1].key < h[c].key) ++c;
    if (!(h[c].key < e.key)) break;
    h[i] = h[c];
    avail_set_slot(h[i], static_cast<std::int32_t>(i));
    i = c;
  }
  h[i] = e;
  avail_set_slot(e, static_cast<std::int32_t>(i));
}

void Engine::avail_push(NodeId v, const PriorityKey& k, int idx) {
  std::vector<AvailEntry>& h = nodes_[uidx(v)].avail;
  h.push_back({k, idx});
  avail_sift_up(h, h.size() - 1);
}

void Engine::avail_remove(NodeId v, JobId j, int idx) {
  std::vector<AvailEntry>& h = nodes_[uidx(v)].avail;
  const JobState& js = jobs_[uidx(j)];
  const std::int32_t pos = a_slot_[js.span + uidx(idx)];
  TS_CHECK(pos >= 0 && static_cast<std::size_t>(pos) < h.size() &&
               h[uidx(pos)].key.job == j && h[uidx(pos)].idx == idx,
           "avail heap slot out of sync");
  a_slot_[js.span + uidx(idx)] = -1;
  const std::size_t last = h.size() - 1;
  const std::size_t p = uidx(pos);
  if (p != last) {
    h[p] = h[last];
    h.pop_back();
    if (p > 0 && h[p].key < h[(p - 1) / 2].key)
      avail_sift_up(h, p);
    else
      avail_sift_down(h, p);
  } else {
    h.pop_back();
  }
}

void Engine::insert_avail(NodeId v, JobId j, int idx, Time t) {
  JobState& js = jobs_[uidx(j)];
  TS_CHECK(!in_avail(js, uidx(idx)), "work item already available");
  const PriorityKey k = make_key(j, idx, t);
  avail_push(v, k, idx);
  in_avail(js, uidx(idx)) = 1;
  avail_key(js, uidx(idx)) = k;
}

void Engine::erase_avail(NodeId v, JobId j, int idx) {
  JobState& js = jobs_[uidx(j)];
  TS_CHECK(in_avail(js, uidx(idx)), "work item not available");
  avail_remove(v, j, idx);
  in_avail(js, uidx(idx)) = 0;
}

void Engine::deliver(NodeId v, JobId j, int idx, Time t) {
  NodeState& ns = nodes_[uidx(v)];
  if (ns.edge_down) {
    // The link from the parent is severed: the data sits at the parent's
    // copy until the matching edge-up flushes it.
    ns.deferred.emplace_back(j, idx);
    return;
  }
  // Same-instant tie: a running item scheduled to finish by `t` completes
  // before the delivered item can preempt it.
  if (ns.has_running && ns.running_finish <= t)
    handle_completion(v, t);
  else
    pause(v, t);
  insert_avail(v, j, idx, t);
  resched(v, t);
}

void Engine::accumulate_frac_to(JobId j, Time t) {
  JobState& js = jobs_[uidx(j)];
  if (t <= js.frac_touch) return;
  metrics_.job(j).fractional_area += (t - js.frac_touch) * js.frac;
  js.frac_touch = t;
}

void Engine::pause(NodeId v, Time t, bool refresh_index) {
  NodeState& ns = nodes_[uidx(v)];
  TS_CHECK(t >= ns.burst_start - util::kEps, "pause moving backwards");
  if (!ns.has_running) {
    ns.burst_start = t;
    return;
  }
  const double sp = node_speed(v);
  const double w = (t - ns.burst_start) * sp;
  if (w <= 0.0) {
    ns.burst_start = t;
    return;
  }
  const JobId j = ns.running.job;
  JobState& js = jobs_[uidx(j)];
  const int idx = ns.running_idx;
  const double stored = stored_remaining_item(js, idx);
  TS_CHECK(t <= ns.running_finish, "node ran past the item's finish");
  const double done = std::min(w, stored);
  const double rem = stored - done;
  ++mutation_count_;

  if (cfg_.record_schedule)
    recorder_.add({v, j, ns.running.chunk, ns.burst_start, t, sp});

  if (is_leaf_index(js, idx)) {
    // Exact fractional flow: constant fraction up to burst start, then a
    // linear drain over the burst (trapezoid).
    accumulate_frac_to(j, ns.burst_start);
    const double p = size_on(j, v);
    const double new_frac = rem / p;
    metrics_.job(j).fractional_area +=
        (t - ns.burst_start) * (js.frac + new_frac) / 2.0;
    js.frac = new_frac;
    js.frac_touch = t;
    js.leaf_rem = rem;
  } else {
    head_rem(js, uidx(idx)) = rem;
  }

  if (refresh_index) index_refresh(v, j, idx);
  ns.running_rem = stored_remaining_total(js, idx);

  if (cfg_.node_policy == NodePolicy::kSrpt) {
    // Remaining time is the priority: refresh the running item's key.
    erase_avail(v, j, idx);
    PriorityKey k = ns.running;
    k.a = rem;
    avail_push(v, k, idx);
    in_avail(js, uidx(idx)) = 1;
    avail_key(js, uidx(idx)) = k;
    ns.running = k;
  }
  ns.burst_start = t;
}

void Engine::resched(NodeId v, Time t) {
  NodeState& ns = nodes_[uidx(v)];
  if (ns.has_running && !ns.avail.empty() &&
      ns.running == ns.avail.front().key)
    return;  // the pending completion event is still accurate
  ++ns.version;
  if (ns.down || ns.avail.empty()) {
    ns.has_running = false;
    return;
  }
  start_burst(v, t);
}

void Engine::force_resched(NodeId v, Time t) {
  // Unlike resched(), never trust the pending completion event: fault
  // transitions (speed change, crash, recovery) change the finish time even
  // when the running item is still the best one.
  NodeState& ns = nodes_[uidx(v)];
  ++ns.version;
  ns.has_running = false;
  if (ns.down || ns.avail.empty()) return;
  start_burst(v, t);
}

void Engine::start_burst(NodeId v, Time t) {
  NodeState& ns = nodes_[uidx(v)];
  const AvailEntry top = ns.avail.front();
  ns.running = top.key;
  ns.running_sjf = index_key(top.key.job, v);
  ns.has_running = true;
  ns.running_idx = top.idx;
  ns.burst_start = t;
  const JobState& js = jobs_[uidx(top.key.job)];
  const double rem = stored_remaining_item(js, top.idx);
  ns.running_rem = stored_remaining_total(js, top.idx);
  ns.running_finish = t + rem / node_speed(v);
  events_.push({ns.running_finish, seq_++, v, ns.version});
}

void Engine::handle_completion(NodeId v, Time t) {
  // The finishing item's Q_v entry is erased (a machine, or a router hop
  // that forwarded its last chunk) or refreshed (a chunked hop) below, with
  // nothing reading the index in between: pause's own refresh would be dead.
  pause(v, t, /*refresh_index=*/false);
  NodeState& ns = nodes_[uidx(v)];
  TS_CHECK(ns.has_running, "completion event without a running item");
  const PriorityKey item = ns.running;
  const JobId j = item.job;
  JobState& js = jobs_[uidx(j)];
  const int idx = ns.running_idx;
  // Completion is decided by time, not by the float remainder (which
  // carries rounding that grows with the clock).
  TS_CHECK(ns.running_finish <= t, "completion fired before the finish");

  ns.has_running = false;
  erase_avail(v, j, idx);
  ++mutation_count_;

  if (is_leaf_index(js, idx)) {
    js.leaf_rem = 0.0;
    accumulate_frac_to(j, t);
    js.frac = 0.0;
    js.done = true;
    index_erase(v, j);
    metrics_.job(j).completion = t;
    metrics_.node_completion(j)[uidx(idx)] = t;
    if (observer_) observer_->on_job_completed(*this, j);
    // Retirement point: in streaming mode the record folds into the
    // bounded-memory accumulator now, in completion order (no-op otherwise).
    metrics_.finalize_job(j);
  } else {
    const std::int32_t c = chunks_done(js, uidx(idx));
    TS_CHECK(c == item.chunk, "completed chunk is not the head");
    chunks_done(js, uidx(idx)) = c + 1;
    head_rem(js, uidx(idx)) = js.chunk_size;
    const bool node_finished = (chunks_done(js, uidx(idx)) == js.chunks);
    if (node_finished)
      index_erase(v, j);
    else
      index_refresh(v, j, idx);

    // Next head chunk may already be deliverable on this node.
    if (!node_finished &&
        (idx == 0 ||
         chunks_done(js, uidx(idx)) < chunks_done(js, uidx(idx - 1))))
      insert_avail(v, j, idx, t);

    // Deliver chunk c downstream.
    const bool next_is_leaf = is_leaf_index(js, idx + 1);
    if (!next_is_leaf) {
      if (chunks_done(js, uidx(idx + 1)) == c) {
        // The child was waiting for exactly this chunk.
        deliver(path_node(js, uidx(idx) + 1), j, idx + 1, t);
      }
    } else if (node_finished) {
      // All data arrived at the last router: the leaf work becomes available.
      deliver(path_node(js, uidx(idx) + 1), j, idx + 1, t);
    }

    if (node_finished) metrics_.node_completion(j)[uidx(idx)] = t;
  }
  resched(v, t);
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

void Engine::set_fault_plan(const fault::FaultPlan* plan,
                            RedispatchPolicy* redispatch) {
  TS_REQUIRE(now_ == 0.0 && admitted_count_ == 0,
             "fault plan must be armed before the run starts");
  TS_REQUIRE(cfg_.router_chunk_size == 0.0,
             "fault runs require whole-job forwarding (router_chunk_size 0)");
  if (plan != nullptr) plan->validate(tree());
  fault_plan_ = plan;
  redispatch_ = redispatch;
  fault_cursor_ = 0;
  fault_log_.clear();
}

Time Engine::next_fault_time() const {
  if (fault_plan_ == nullptr || fault_cursor_ >= fault_plan_->events.size())
    return kNever;
  return fault_plan_->events[fault_cursor_].t;
}

void Engine::apply_next_fault() {
  const fault::FaultEvent& fe = fault_plan_->events[fault_cursor_++];
  const Time t = now_;
  ++mutation_count_;  // speed factors and topology state feed the queries
  switch (fe.kind) {
    case fault::FaultKind::kNodeDown:
      fault_log_.push_back({FaultRecord::Kind::kNodeDown, t, fe.node, 1.0,
                            kInvalidJob, kInvalidNode});
      apply_node_down(fe.node, t);
      break;
    case fault::FaultKind::kNodeUp:
      fault_log_.push_back({FaultRecord::Kind::kNodeUp, t, fe.node, 1.0,
                            kInvalidJob, kInvalidNode});
      apply_node_up(fe.node, t);
      break;
    case fault::FaultKind::kEdgeDown:
      fault_log_.push_back({FaultRecord::Kind::kEdgeDown, t, fe.node, 1.0,
                            kInvalidJob, kInvalidNode});
      apply_edge_down(fe.node, t);
      break;
    case fault::FaultKind::kEdgeUp:
      fault_log_.push_back({FaultRecord::Kind::kEdgeUp, t, fe.node, 1.0,
                            kInvalidJob, kInvalidNode});
      apply_edge_up(fe.node, t);
      break;
    case fault::FaultKind::kSlow:
      fault_log_.push_back({FaultRecord::Kind::kSlow, t, fe.node, fe.factor,
                            kInvalidJob, kInvalidNode});
      apply_slow(fe.node, fe.factor, t);
      break;
  }
}

void Engine::apply_node_down(NodeId v, Time t) {
  pause(v, t);  // materialize the truthful burst segment up to the crash
  NodeState& ns = nodes_[uidx(v)];
  TS_CHECK(!ns.down, "node-down on an already-down node");
  if (ns.has_running) {
    // The crash voids the partial progress of the in-flight item: the job
    // reverts to the last fully forwarded copy (the parent finished it, so
    // a pristine copy exists upstream; re-receiving is free in this model).
    const JobId j = ns.running.job;
    JobState& js = jobs_[uidx(j)];
    const int idx = ns.running_idx;
    if (is_leaf_index(js, idx)) {
      const double p = size_on(j, v);
      if (js.leaf_rem < p) {
        accumulate_frac_to(j, t);
        js.frac = 1.0;
        js.frac_touch = t;
        js.leaf_rem = p;
      }
    } else {
      head_rem(js, uidx(idx)) = js.chunk_size;
    }
    index_refresh(v, j, idx);
    if (cfg_.node_policy == NodePolicy::kSrpt && in_avail(js, uidx(idx))) {
      PriorityKey k = avail_key(js, uidx(idx));
      erase_avail(v, j, idx);
      k.a = stored_remaining_item(js, idx);
      avail_push(v, k, idx);
      in_avail(js, uidx(idx)) = 1;
      avail_key(js, uidx(idx)) = k;
    }
    ns.has_running = false;
  }
  ns.down = true;
  ++ns.version;  // invalidate the pending completion event
  ns.burst_start = t;
  if (tree().is_leaf(v)) redispatch_jobs_of(v, t);
}

void Engine::apply_node_up(NodeId v, Time t) {
  NodeState& ns = nodes_[uidx(v)];
  TS_CHECK(ns.down, "node-up on a node that is not down");
  ns.down = false;
  ns.burst_start = t;
  force_resched(v, t);
}

void Engine::apply_edge_down(NodeId v, Time t) {
  NodeState& ns = nodes_[uidx(v)];
  TS_CHECK(!ns.edge_down, "edge-down on an already-severed edge");
  (void)t;
  ns.edge_down = true;
}

void Engine::apply_edge_up(NodeId v, Time t) {
  NodeState& ns = nodes_[uidx(v)];
  TS_CHECK(ns.edge_down, "edge-up on an edge that is not down");
  ns.edge_down = false;
  if (ns.deferred.empty()) return;
  pause(v, t);
  for (const auto& [j, idx] : ns.deferred) insert_avail(v, j, idx, t);
  ns.deferred.clear();
  force_resched(v, t);
}

void Engine::apply_slow(NodeId v, double factor, Time t) {
  // Materialize the current burst at the old speed, then switch: a recorded
  // segment never spans a factor change.
  pause(v, t);
  nodes_[uidx(v)].factor = factor;
  force_resched(v, t);
}

void Engine::redispatch_jobs_of(NodeId dead_leaf, Time t) {
  // A snapshot in ascending job id: reassign_leaf mutates Q_v.
  for (const JobId j : inflight_at(dead_leaf)) {
    NodeId target = kInvalidNode;
    if (redispatch_ != nullptr) {
      target = redispatch_->reassign(*this, j, dead_leaf);
    } else {
      for (const NodeId leaf : tree().leaves()) {
        if (!nodes_[uidx(leaf)].down) {
          target = leaf;
          break;
        }
      }
    }
    TS_REQUIRE(target != kInvalidNode && tree().is_leaf(target) &&
                   !nodes_[uidx(target)].down,
               "re-dispatch target must be a live machine");
    fault_log_.push_back(
        {FaultRecord::Kind::kRedispatch, t, dead_leaf, 1.0, j, target});
    reassign_leaf(j, target, t);
  }
}

void Engine::reassign_leaf(JobId j, NodeId new_leaf, Time t) {
  ++mutation_count_;
  JobState& js = jobs_[uidx(j)];
  TS_CHECK(!js.shed, "re-dispatching a shed job");
  // Recovery claims the job: it is never shed now.
  if (!js.redispatched) ++redispatched_count_;
  js.redispatched = true;
  TS_REQUIRE(js.path != nullptr,
             "re-dispatch is unsupported for custom-path jobs");
  TS_CHECK(js.chunks == 1, "re-dispatch requires whole-job forwarding");
  const std::vector<NodeId> old_path = *js.path;  // copy: js.path changes
  const std::vector<NodeId>& new_path = tree().path_to(new_leaf);
  const std::size_t old_len = old_path.size();
  const std::size_t new_len = new_path.size();

  // Shared prefix: hops where receipt/processing progress carries over.
  std::size_t shared = 0;
  while (shared < old_len - 1 && shared < new_len - 1 &&
         old_path[shared] == new_path[shared])
    ++shared;

  // Tear the job out of every hop past the divergence point. Work already
  // performed there is lost (the segments stay recorded — the time was
  // genuinely burnt); the data reverts to the copy at new_path[shared-1].
  for (std::size_t i = shared; i < old_len; ++i)
    tear_out(old_path[i], j, static_cast<int>(i), t);

  // Rebuild the per-path job state: prefix entries survive, the rest resets.
  // A longer path moves the job to a fresh arena span; the shared-prefix
  // entries are copied across (their avail-heap back-pointers follow the
  // span automatically — heap entries address items as (job, idx)).
  if (new_len > js.len) {
    const std::uint32_t off = alloc_span(new_len);
    for (std::size_t i = 0; i < shared; ++i) {
      a_chunks_done_[off + i] = a_chunks_done_[js.span + i];
      a_head_rem_[off + i] = a_head_rem_[js.span + i];
      a_key_[off + i] = a_key_[js.span + i];
      a_slot_[off + i] = a_slot_[js.span + i];
      a_in_avail_[off + i] = a_in_avail_[js.span + i];
    }
    js.span = off;
  }
  js.len = static_cast<std::uint32_t>(new_len);
  js.path = &new_path;
  js.leaf = new_leaf;
  for (std::size_t i = shared; i + 1 < new_len; ++i) {
    chunks_done(js, i) = 0;
    head_rem(js, i) = js.chunk_size;
  }
  for (std::size_t i = shared; i < new_len; ++i) {
    in_avail(js, i) = 0;
    avail_key(js, i) = PriorityKey{};
    a_slot_[js.span + i] = -1;
  }
  js.leaf_rem = inst_->processing_time(j, new_leaf);
  accumulate_frac_to(j, t);
  js.frac = 1.0;
  js.frac_touch = t;

  for (std::size_t i = shared; i < new_len; ++i)
    index_insert(new_path[i], j, static_cast<int>(i));

  metrics_.job(j).leaf = new_leaf;
  metrics_.open_node_completion(j, new_len, shared);

  // The frontier: the first hop with unfinished work. Inside the shared
  // prefix the item is already in the system (available, running, or
  // deferred on a severed edge); past it the parent's completed copy makes
  // exactly the divergence hop deliverable now.
  std::size_t frontier = new_len - 1;
  for (std::size_t i = 0; i < new_len - 1; ++i) {
    if (chunks_done(js, i) < js.chunks) {
      frontier = i;
      break;
    }
  }
  if (frontier >= shared) {
    TS_CHECK(frontier == shared || (frontier == new_len - 1 &&
                                    shared == new_len - 1),
             "re-dispatch frontier past the divergence hop");
    deliver(new_path[frontier], j, static_cast<int>(frontier), t);
  } else {
    const NodeId fv = new_path[frontier];
    const NodeState& fs = nodes_[uidx(fv)];
    const bool deferred_here = std::any_of(
        fs.deferred.begin(), fs.deferred.end(),
        [j](const std::pair<JobId, int>& d) { return d.first == j; });
    TS_CHECK(in_avail(js, frontier) || deferred_here,
             "re-dispatched job lost its frontier work item");
  }

  // Old-branch nodes may have lost their running item.
  for (std::size_t i = shared; i < old_len; ++i)
    force_resched(old_path[i], t);
}

// ---------------------------------------------------------------------------
// Overload protection
// ---------------------------------------------------------------------------

void Engine::set_admission(AdmissionPolicy* admission) {
  TS_REQUIRE(now_ == 0.0 && admitted_count_ == 0 && rejected_count_ == 0,
             "admission controller must be armed before the run starts");
  admission_ = admission;
}

void Engine::reject(JobId j, double f, double bound) {
  TS_REQUIRE(j >= 0 && j < inst_->job_count(), "reject: job id out of range");
  JobState& js = jobs_[uidx(j)];
  TS_REQUIRE(!js.admitted, "reject: job already admitted");
  TS_REQUIRE(!js.rejected, "reject: job already rejected");
  const Job& job = inst_->job(j);
  js.rejected = true;
  ++rejected_count_;
  // The record keeps the static attributes so shed-volume accounting and
  // run-log emission never need the (possibly gone) instance.
  JobRecord& rec = metrics_.job(j);
  rec.release = job.release;
  rec.weight = job.weight;
  rec.size = job.size;
  rec.rejected = true;
  shed_log_.push_back({ShedRecord::Kind::kReject, now_, j, f, bound});
  metrics_.finalize_job(j);
}

void Engine::shed(JobId j) {
  TS_REQUIRE(j >= 0 && j < inst_->job_count(), "shed: job id out of range");
  JobState& js = jobs_[uidx(j)];
  TS_REQUIRE(js.admitted && !js.done,
             "shed: job must be admitted and unfinished");
  TS_REQUIRE(!js.shed, "shed: job already shed");
  TS_REQUIRE(!js.redispatched, "shed: a re-dispatched job is never shed");
  TS_REQUIRE(js.path != nullptr, "shed is unsupported for custom-path jobs");
  const Time t = now_;
  ++mutation_count_;
  const std::vector<NodeId>& path = *js.path;
  // Tear the job out of every hop, exactly like the post-divergence half of
  // reassign_leaf.
  for (std::size_t i = 0; i < path.size(); ++i)
    tear_out(path[i], j, static_cast<int>(i), t);
  // Fractional flow stops accruing at the eviction instant.
  accumulate_frac_to(j, t);
  js.frac = 0.0;
  js.shed = true;
  metrics_.job(j).shed = true;
  shed_log_.push_back({ShedRecord::Kind::kShed, t, j, -1.0, -1.0});
  metrics_.finalize_job(j);
  for (const NodeId v : path) force_resched(v, t);
}

void Engine::log_admission(JobId j, double f, double bound) {
  shed_log_.push_back({ShedRecord::Kind::kAdmit, now_, j, f, bound});
}

// ---------------------------------------------------------------------------
// Driving
// ---------------------------------------------------------------------------

void Engine::advance_to(Time t) {
  TS_REQUIRE(t >= now_ - util::kEps, "advance_to cannot move backwards");
  for (;;) {
    const Time ft = next_fault_time();
    const bool fault_due = ft <= t;
    const Time limit = fault_due ? ft : t;
    // Completions at the fault instant are processed before the fault.
    while (const SimEvent* pev = events_.peek()) {
      if (pev->t > limit) break;
      const SimEvent ev = events_.pop();
      if (ev.version != nodes_[uidx(ev.node)].version) continue;  // stale
      now_ = std::max(now_, ev.t);
      handle_completion(ev.node, now_);
      if (observer_) observer_->on_event(*this, now_);
    }
    if (!fault_due) break;
    now_ = std::max(now_, ft);
    apply_next_fault();
  }
  now_ = std::max(now_, t);
}

void Engine::admit(JobId j, NodeId leaf) {
  TS_REQUIRE(j >= 0 && j < inst_->job_count(), "job id out of range");
  TS_REQUIRE(!jobs_[uidx(j)].admitted, "job already admitted");
  TS_REQUIRE(tree().is_leaf(leaf), "assignment target must be a machine");
  const std::vector<NodeId>& path = tree().path_to(leaf);
  TS_CHECK(path.size() >= 2,
           "leaf adjacent to the root slipped through validation");
  admit_on_path(j, &path, path.size());
}

void Engine::admit_via_path(JobId j, std::vector<NodeId> path) {
  TS_REQUIRE(j >= 0 && j < inst_->job_count(), "job id out of range");
  TS_REQUIRE(!jobs_[uidx(j)].admitted, "job already admitted");
  TS_REQUIRE(!path.empty(), "processing path must be non-empty");
  TS_REQUIRE(tree().is_leaf(path.back()), "path must end at a machine");
  std::vector<bool> seen(uidx(tree().node_count()), false);
  for (std::size_t i = 0; i < path.size(); ++i) {
    const NodeId v = path[i];
    TS_REQUIRE(v >= 0 && v < tree().node_count(), "path node out of range");
    TS_REQUIRE(!seen[uidx(v)], "path revisits a node");
    seen[uidx(v)] = true;
    TS_REQUIRE(speeds_.speed(v) > 0.0,
               "path node has no processing speed (transit root?)");
    if (i > 0) {
      const bool adjacent = tree().parent(path[i]) == path[i - 1] ||
                            tree().parent(path[i - 1]) == path[i];
      TS_REQUIRE(adjacent, "path nodes must be adjacent in the tree");
    }
  }
  JobState& js = jobs_[uidx(j)];
  js.own_off = static_cast<std::uint32_t>(a_path_.size());
  a_path_.insert(a_path_.end(), path.begin(), path.end());
  admit_on_path(j, nullptr, path.size());
}

void Engine::admit_on_path(JobId j, const std::vector<NodeId>* path,
                           std::size_t len) {
  const Job& job = inst_->job(j);
  TS_REQUIRE(now_ <= job.release + util::kEps,
             "cannot admit a job after its release time has passed");
  advance_to(job.release);

  JobState& js = jobs_[uidx(j)];
  js.admitted = true;
  js.path = path;
  js.span = alloc_span(len);
  js.len = static_cast<std::uint32_t>(len);
  js.leaf = path_node(js, len - 1);
  const NodeId leaf = js.leaf;

  if (cfg_.router_chunk_size > 0.0)
    js.chunks = static_cast<std::int32_t>(
        std::max(1.0, std::ceil(job.size / cfg_.router_chunk_size)));
  else
    js.chunks = 1;
  js.chunk_size = job.size / js.chunks;
  for (std::size_t i = 0; i + 1 < len; ++i) head_rem(js, i) = js.chunk_size;
  js.leaf_rem = inst_->processing_time(j, leaf);
  js.frac = 1.0;
  js.frac_touch = now_;

  ++mutation_count_;
  for (std::size_t i = 0; i < len; ++i) {
    const NodeId v = path_node(js, i);
    index_insert(v, j, static_cast<int>(i));
  }

  JobRecord& rec = metrics_.job(j);
  rec.release = job.release;
  rec.weight = job.weight;
  rec.size = job.size;
  rec.leaf = leaf;
  metrics_.open_node_completion(j, len);

  deliver(path_node(js, 0), j, 0, now_);
  ++admitted_count_;
  if (observer_) observer_->on_job_admitted(*this, j);
}

void Engine::run(AssignmentPolicy& policy) {
  const std::vector<Job>& all = inst_->jobs();
  for (std::size_t i = 0; i < all.size();) {
    // Batched releases: arrivals sharing a release instant form one batch
    // epoch — the clock advances once, then admission + assignment run
    // back-to-back (every pending event is strictly later, so no engine
    // state can change between the batch's jobs other than by the
    // admissions themselves).
    const Time release = all[i].release;
    advance_to(release);
    ++release_epoch_;
    do {
      const Job& job = all[i];
      if (admission_ != nullptr && !admission_->admit(*this, job)) {
        // The controller vetoed the arrival; make sure the refusal is on
        // record even if it forgot to call reject() itself.
        if (!jobs_[uidx(job.id)].rejected) reject(job.id);
      } else {
        const NodeId leaf = policy.assign(*this, job);
        admit(job.id, leaf);
      }
      ++i;
    } while (i < all.size() && all[i].release == release);
  }
  run_to_completion();
}

void Engine::run_with_assignment(const std::vector<NodeId>& leaf_of_job) {
  TS_REQUIRE(leaf_of_job.size() ==
                 uidx(inst_->job_count()),
             "assignment vector must cover every job");
  for (const Job& job : inst_->jobs()) {
    advance_to(job.release);
    admit(job.id, leaf_of_job[uidx(job.id)]);
  }
  run_to_completion();
}

void Engine::run_to_completion() {
  TS_REQUIRE(admitted_count_ + rejected_count_ == inst_->job_count(),
             "run_to_completion with unadmitted jobs");
  for (;;) {
    const Time ft = next_fault_time();
    while (const SimEvent* pev = events_.peek()) {
      if (pev->t > ft) break;
      const SimEvent ev = events_.pop();
      if (ev.version != nodes_[uidx(ev.node)].version) continue;
      now_ = std::max(now_, ev.t);
      handle_completion(ev.node, now_);
      if (observer_) observer_->on_event(*this, now_);
    }
    if (ft == kNever) break;
    now_ = std::max(now_, ft);
    apply_next_fault();
  }
  for (const JobState& js : jobs_)
    TS_CHECK(js.done || js.shed || js.rejected,
             "events drained with unfinished jobs (a hand-written fault plan "
             "that never recovers a node can wedge its queue)");
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

double Engine::size_on(JobId j, NodeId v) const {
  return inst_->processing_time(j, v);
}

double Engine::remaining_on(JobId j, NodeId v) const {
  const JobState& js = jobs_[uidx(j)];
  TS_REQUIRE(js.admitted, "remaining_on: job not admitted");
  const NodeState& ns = nodes_[uidx(v)];
  if (ns.has_running && ns.running.job == j) {
    // running_rem caches the stored total as of burst start, so the live
    // value needs only the elapsed-drain adjustment.
    return std::max(ns.running_rem - (now_ - ns.burst_start) * node_speed(v),
                    0.0);
  }
  return stored_remaining_total(js, path_index(js, v));
}

std::vector<JobId> Engine::inflight_at(NodeId v) const {
  std::vector<JobId> q;
  q.reserve(queue_size(v));
  find_queued_descending(v, [&q](const SjfKey& k) {
    q.push_back(k.job);
    return false;
  });
  std::sort(q.begin(), q.end());
  return q;
}

bool Engine::available_on(JobId j, NodeId v) const {
  const JobState& js = jobs_[uidx(j)];
  TS_REQUIRE(js.admitted, "available_on: job not admitted");
  const int idx = path_index(js, v);
  return in_avail(js, uidx(idx)) != 0;
}

int Engine::current_path_index(JobId j) const {
  const JobState& js = jobs_[uidx(j)];
  TS_REQUIRE(js.admitted, "current_path_index: job not admitted");
  const int len = static_cast<int>(js.len);
  if (js.done) return len;
  for (int i = 0; i < len - 1; ++i)
    if (chunks_done(js, uidx(i)) < js.chunks) return i;
  return len - 1;
}

double Engine::higher_priority_remaining(NodeId v, double cand_size,
                                         Time cand_release,
                                         JobId cand_id) const {
  const NodeState& ns = nodes_[uidx(v)];
  const SjfKey cand{cand_size, cand_release, cand_id};
  return drained_before(ns, v, cand, ns.index.remaining_before(cand));
}

int Engine::count_larger(NodeId v, double size) const {
  return nodes_[uidx(v)].index.count_size_greater(size);
}

double Engine::larger_residual_fraction(NodeId v, double size) const {
  const NodeState& ns = nodes_[uidx(v)];
  double sum = ns.index.fraction_size_greater(size);
  if (ns.has_running) {
    const double pr = size_on(ns.running.job, v);
    if (pr > size) sum -= running_drain(ns, v) / pr;
  }
  return std::max(sum, 0.0);
}

double Engine::alpha_leaf(NodeId leaf) const {
  TS_REQUIRE(tree().is_leaf(leaf), "alpha_leaf on non-leaf");
  const NodeState& ns = nodes_[uidx(leaf)];
  double sum = ns.index.total_fraction();
  if (ns.has_running)
    sum -= running_drain(ns, leaf) / size_on(ns.running.job, leaf);
  return std::max(sum, 0.0);
}

double Engine::alpha_root_child(NodeId root_child) const {
  TS_REQUIRE(tree().parent(root_child) == tree().root(),
             "alpha_root_child on non-root-child");
  double sum = 0.0;
  // treesched-lint: allow(inv-fp-accum): alpha values feed dispatch
  // decisions; their exact rounding is part of the golden-schedule
  // contract shared with the reference simulator.
  for (const NodeId leaf : tree().leaves_under(root_child))
    sum += alpha_leaf(leaf);
  return sum;
}

double Engine::total_remaining_work() const {
  double total = 0.0;
  for (JobId j = 0; j < static_cast<JobId>(jobs_.size()); ++j) {
    const JobState& js = jobs_[uidx(j)];
    if (!js.admitted || js.done || js.shed) continue;
    for (std::size_t i = 0; i < js.len; ++i)
      // treesched-lint: allow(inv-fp-accum): compared against the overload
      // estimator's running sums, which accumulate the same way.
      total += remaining_on(j, path_node(js, i));
  }
  return total;
}

}  // namespace treesched::sim
