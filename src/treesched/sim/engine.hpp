// Discrete-event simulator for the tree-network scheduling model (Section 2).
//
// Semantics implemented exactly as the paper specifies:
//  * jobs arrive at the root and are immediately dispatched to a leaf;
//  * a job must be processed on every node of the path R(v)..v, in order;
//  * store-and-forward: a node may not start a job until the parent finished
//    it completely (or, in the pipelined extension, finished the chunk);
//  * every node processes at most one job at a time, preemption allowed;
//  * node v has speed s_v: it completes s_v units of work per time unit.
//
// The engine is driven either offline (run(policy)) or incrementally
// (advance_to / admit), which the general-tree algorithm uses to simulate
// its broomstick image online.
//
// Hot-path layout (see MODEL.md "Event queue & memory layout"): the pending
// events live in one flat binary heap with exact (t, seq) pop order; each
// node's available work items form a flat binary min-heap with back-pointers
// in the job arena; all per-(job, path-index) state is structure-of-arrays
// in per-run arenas indexed by a span per job; and Q_v is kept once, as the
// node's dispatch index. Once those vectors are warm, admission, delivery
// and completion do not allocate. The aggregate queries (the five of the
// paper, plus the fused priority_split behind F) are answered by the
// dispatch indices; tests shadow them per event with a naive rescan of Q_v
// rebuilt from per-job state (tests/support/query_oracle.hpp).
//
// Fault extension (set_fault_plan): the engine consumes a declarative
// fault::FaultPlan and interleaves its events deterministically with the
// completion events. A crashed node performs no work and loses the partial
// progress of its in-flight item — the job reverts to the last fully
// forwarded copy at the parent, consistent with store-and-forward. A leaf
// crash triggers failure-aware re-dispatch of every job still assigned to
// it (see RedispatchPolicy). Slowdowns multiply the node's base speed; link
// outages defer deliveries into the severed child until the edge recovers.
// Fault runs require the paper's whole-job forwarding (router_chunk_size
// == 0).
//
// Overload extension (set_admission): an AdmissionPolicy is consulted once
// per arriving job, at its release instant, before leaf assignment. The
// controller may veto the arrival (reject), evict an already-admitted job
// (shed), or record the Lemma-4 bound it admitted under (log_admission);
// every decision lands in shed_log() and is serialized into run logs so
// treesched_audit can re-check the overload invariants offline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "treesched/core/instance.hpp"
#include "treesched/core/speed_profile.hpp"
#include "treesched/fault/plan.hpp"
#include "treesched/overload/config.hpp"
#include "treesched/sim/dispatch_index.hpp"
#include "treesched/sim/event_queue.hpp"
#include "treesched/sim/metrics.hpp"
#include "treesched/sim/priority.hpp"
#include "treesched/sim/recorder.hpp"

namespace treesched::sim {

class Engine;

/// Immediate-dispatch leaf assignment strategy. `assign` is called exactly
/// when the job arrives (engine time == job release) and must return a leaf
/// of the engine's tree. Implementations may inspect any engine state — all
/// queries reflect the current time only, so policies are genuinely online.
class AssignmentPolicy {
 public:
  virtual ~AssignmentPolicy() = default;
  virtual NodeId assign(const Engine& engine, const Job& job) = 0;
  virtual const char* name() const = 0;

  /// Streaming endurance runs snapshot the policy alongside the engine: a
  /// policy with internal decision state (rotation counters, RNG position)
  /// must round-trip it here as one whitespace-free token so resumed runs
  /// replay byte-identically. Stateless policies keep the defaults.
  virtual std::string stream_state() const { return "-"; }
  virtual void restore_stream_state(const std::string& state) {
    (void)state;
  }
};

/// Failure-aware re-dispatch hook: when leaf `dead_leaf` crashes, the engine
/// calls reassign once per job still assigned to it (ascending job id) and
/// moves the job to the returned leaf. The target must be a live machine
/// (engine.node_down(target) == false). Work already done on the shared
/// path prefix carries over; everything from the divergence point on
/// restarts from the parent's copy. Without a policy the engine falls back
/// to the first live leaf in node-id order.
class RedispatchPolicy {
 public:
  virtual ~RedispatchPolicy() = default;
  virtual NodeId reassign(const Engine& engine, JobId job,
                          NodeId dead_leaf) = 0;
  virtual const char* name() const = 0;
};

/// Admission-control hook, consulted by run() once per arriving job at its
/// release instant, BEFORE leaf assignment. Returning true admits the job
/// normally; returning false drops it — the controller should first call
/// engine.reject(job.id, ...) to record why (the engine records a bare
/// rejection otherwise). The controller may also evict already-admitted,
/// still-unfinished jobs via engine.shed() to make room. Decisions must be
/// pure functions of engine queries and static job attributes so degraded
/// runs stay byte-reproducible across thread counts.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  virtual bool admit(Engine& engine, const Job& job) = 0;
  virtual const char* name() const = 0;
};

/// Hook for live observers (queue samplers, the saturation estimator,
/// dual-fitting recorders, the stream runner's feed).
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// After every processed completion event (engine state is consistent).
  virtual void on_event(const Engine& /*engine*/, Time /*t*/) {}
  /// After a job is admitted (assigned and registered on its path).
  virtual void on_job_admitted(const Engine& /*engine*/, JobId /*j*/) {}
  /// After a job completes at its leaf.
  virtual void on_job_completed(const Engine& /*engine*/, JobId /*j*/) {}
};

/// One applied fault-timeline entry, in application order: every consumed
/// plan event plus one kRedispatch record per moved job. Serialized into
/// run logs so treesched_audit can re-check the recovery invariants
/// offline.
struct FaultRecord {
  enum class Kind : std::uint8_t {
    kNodeDown,
    kNodeUp,
    kEdgeDown,
    kEdgeUp,
    kSlow,
    kRedispatch,
  };
  Kind kind = Kind::kNodeDown;
  Time t = 0.0;
  NodeId node = kInvalidNode;  ///< affected node; the dead leaf for kRedispatch
  double factor = 1.0;         ///< kSlow only
  JobId job = kInvalidJob;     ///< kRedispatch only
  NodeId to = kInvalidNode;    ///< kRedispatch only: the new leaf
};

/// One admission-control decision, in decision order. Serialized into run
/// logs (shed/reject/admitf lines) so treesched_audit can verify that shed
/// jobs were never processed afterwards, caps held, and deadline admissions
/// respected the recorded Lemma-4 bound.
struct ShedRecord {
  enum class Kind : std::uint8_t {
    kReject,  ///< arriving job refused at the root
    kShed,    ///< already-admitted job evicted from its path
    kAdmit,   ///< deadline-policy admission with its recorded F bound
  };
  Kind kind = Kind::kReject;
  Time t = 0.0;
  JobId job = kInvalidJob;
  double f = -1.0;      ///< Lemma-4 bound F(j, leaf) evaluated; -1 if unused
  double bound = -1.0;  ///< admission threshold slack * p_j; -1 if unused
};

struct EngineConfig {
  /// Discipline used on every node (the paper's algorithm uses SJF).
  NodePolicy node_policy = NodePolicy::kSjf;
  /// Log every processing burst for the offline audit (sim::audit_run).
  bool record_schedule = false;
  /// > 0 enables the pipelined-routing extension (Section 2): each job's
  /// data is forwarded in equal chunks of at most this size; a router may
  /// forward a chunk as soon as it finished it. The leaf still starts only
  /// once all data arrived. 0 = the paper's store-and-forward of whole jobs.
  double router_chunk_size = 0.0;
  /// Pre-sizing hint for the per-run job-state arenas and the metrics'
  /// node-completion stamps, in per-path-index entries (roughly sum of path
  /// lengths over admitted jobs). Streaming drivers pass twice the first
  /// window (every path has at least two nodes), then the previous window's
  /// high-water mark (arena_size()) so rotated windows never re-grow the
  /// arenas. 0 = grow on demand. Purely a
  /// capacity hint: observable behavior is identical for any value.
  std::size_t arena_reserve = 0;
  /// Overload protection. Purely descriptive at the engine level (recorded
  /// into run logs); the actual decisions are made by the AdmissionPolicy
  /// the caller arms via set_admission. kNone + no admission policy is
  /// byte-identical to the pre-overload engine.
  overload::ShedConfig shed;
};

/// The simulator. Non-copyable; references the Instance (not owned — the
/// caller keeps it alive for the engine's lifetime).
class Engine {
 public:
  Engine(const Instance& instance, SpeedProfile speeds, EngineConfig cfg = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- faults ------------------------------------------------------------

  /// Arms the fault plan (validated against the tree; kept alive by the
  /// caller). Must be called before any job is admitted or time advanced,
  /// and requires whole-job forwarding (router_chunk_size == 0).
  /// `redispatch` (optional, caller-owned) handles leaf crashes; nullptr
  /// falls back to the first live leaf.
  void set_fault_plan(const fault::FaultPlan* plan,
                      RedispatchPolicy* redispatch = nullptr);

  bool node_down(NodeId v) const { return nodes_[uidx(v)].down; }
  bool edge_down(NodeId v) const { return nodes_[uidx(v)].edge_down; }
  /// Current slowdown multiplier of v (1.0 = nominal).
  double fault_factor(NodeId v) const { return nodes_[uidx(v)].factor; }
  /// Applied fault timeline (plan events + re-dispatch records), in order.
  const std::vector<FaultRecord>& fault_log() const { return fault_log_; }

  // --- overload protection -----------------------------------------------

  /// Arms the admission controller (caller-owned; kept alive for the run).
  /// Must be set before any job is admitted or time advanced. run() then
  /// consults it once per arriving job; a false verdict skips both leaf
  /// assignment and admission for that job.
  void set_admission(AdmissionPolicy* admission);

  /// Records the refusal of an arriving, not-yet-admitted job. `f`/`bound`
  /// carry the deadline policy's Lemma-4 evaluation (-1 elsewhere).
  void reject(JobId j, double f = -1.0, double bound = -1.0);

  /// Evicts an admitted, unfinished job from every hop of its path: its
  /// in-flight work items disappear, partial progress is abandoned (the
  /// recorded segments stay — that time was genuinely burnt), and the job
  /// never completes. Re-dispatched jobs are never shed (the recovery
  /// invariant would otherwise lose the redispatch chain's final assignee).
  void shed(JobId j);

  /// Deadline-policy bookkeeping: records that job j was admitted with
  /// Lemma-4 bound `f` against threshold `bound` (audited offline).
  void log_admission(JobId j, double f, double bound);

  bool job_shed(JobId j) const { return jobs_[uidx(j)].shed; }
  bool job_rejected(JobId j) const { return jobs_[uidx(j)].rejected; }
  /// True once fault recovery has re-dispatched j (such jobs are shed-exempt).
  bool job_redispatched(JobId j) const { return jobs_[uidx(j)].redispatched; }
  /// Jobs re-dispatched so far (0 without a fault plan): while it is 0, no
  /// queued job is shed-exempt.
  JobId redispatched_count() const { return redispatched_count_; }
  /// Admission-control decision timeline, in decision order.
  const std::vector<ShedRecord>& shed_log() const { return shed_log_; }

  // --- driving -----------------------------------------------------------

  /// Processes all events up to and including time t; afterwards now() == t
  /// (unless already past t, which is an error only if t < now()).
  void advance_to(Time t);

  /// Admits job j (must not be admitted yet) assigned to `leaf`. Advances
  /// the engine to the job's release time first; requires now() <= release.
  void admit(JobId j, NodeId leaf);

  /// Extension (the paper's future-work model of jobs created at arbitrary
  /// nodes): admits job j to be processed along an explicit node path,
  /// typically tree().path_between(job.source, leaf). The path must be a
  /// chain of adjacent tree nodes ending at a machine, with no repeats;
  /// every path node needs positive speed (the root may appear as a transit
  /// router). To audit such runs, capture them with the make_run_log
  /// overload that takes the per-job paths.
  void admit_via_path(JobId j, std::vector<NodeId> path);

  /// Window extension: rebinds the engine to `larger`, an instance over the
  /// same tree and endpoint model whose first job_count() jobs are this
  /// instance's jobs, and appends fresh per-job state for the new ones.
  /// Everything else — clock, serial, dispatch indices, heaps, pending
  /// events, metrics — carries on in place, so the run continues exactly as
  /// if it had been built over `larger` from the start (job ids do not
  /// change, and the treap priorities hash them). The caller keeps `larger`
  /// alive; the old instance may be dropped afterwards. `larger` may also be
  /// the bound instance itself after Instance::append — the streaming
  /// runner's way, which copies no job.
  void extend(const Instance& larger);

  /// Offline convenience: admits every job of the instance in release order
  /// using `policy` for leaf assignment, then drains all events. Arrivals
  /// sharing a release instant form one batch epoch: the clock advances once
  /// per distinct release, then the batch's admission checks and greedy
  /// assignments run back-to-back (no event can be pending between them).
  void run(AssignmentPolicy& policy);

  /// Offline convenience with a fixed assignment (leaf per job id).
  void run_with_assignment(const std::vector<NodeId>& leaf_of_job);

  /// Drains every pending event. All admitted jobs complete.
  void run_to_completion();

  // --- identity ----------------------------------------------------------

  Time now() const { return now_; }
  const Instance& instance() const { return *inst_; }
  const Tree& tree() const { return inst_->tree(); }
  const SpeedProfile& speeds() const { return speeds_; }
  const EngineConfig& config() const { return cfg_; }

  /// Process-unique identity of this engine, distinct for every engine ever
  /// constructed. Policy caches key on it rather than on the engine's
  /// address, which a later engine may reuse.
  std::uint64_t serial() const { return serial_; }

  // --- per-job state (as of now()) ----------------------------------------

  bool admitted(JobId j) const { return jobs_[uidx(j)].admitted; }
  bool completed(JobId j) const { return jobs_[uidx(j)].done; }
  NodeId assigned_leaf(JobId j) const { return jobs_[uidx(j)].leaf; }

  /// p_{j,v}: the original processing requirement of j on v.
  double size_on(JobId j, NodeId v) const;

  /// p^A_{j,v}(now): remaining work of j on v (full if j hasn't reached v,
  /// 0 if finished there). Requires v on j's assigned path.
  double remaining_on(JobId j, NodeId v) const;

  /// True if some work of j is available to schedule on v right now: data
  /// has arrived from the parent (fully, or the next chunk in pipelined
  /// mode) and work remains on v. Requires v on j's path.
  bool available_on(JobId j, NodeId v) const;

  /// Index on j's path of the first node with unfinished work (the node the
  /// job is "at"); path length if the job is done. Requires j admitted.
  int current_path_index(JobId j) const;

  /// Q_v(now): admitted jobs routed through v with unfinished work on v, in
  /// ascending job id. Collected from a walk of v's dispatch index (the one
  /// structure holding Q_v) into a fresh vector — for callers off the
  /// per-event path (anycast routing, leaf re-dispatch).
  /// O(|Q_v| log |Q_v|).
  std::vector<JobId> inflight_at(NodeId v) const;
  /// |Q_v(now)|. O(1).
  std::size_t queue_size(NodeId v) const {
    return nodes_[uidx(v)].index.size();
  }

  /// Visits Q_v in descending dispatch-index key order — (size_on(j, v),
  /// release, id), largest first — calling visit(key) until it returns true.
  /// Returns whether some call did. Allocation-free.
  template <class Visit>
  bool find_queued_descending(NodeId v, Visit&& visit) const {
    return nodes_[uidx(v)].index.find_descending(visit);
  }
  /// The key find_queued_descending visits first; DispatchIndex::kNoKey when
  /// Q_v is empty. O(1).
  SjfKey largest_queued(NodeId v) const {
    return nodes_[uidx(v)].index.max_key();
  }

  /// Counts every state mutation that can change the aggregate queries
  /// (admissions, materialized bursts, completions, fault transitions,
  /// re-dispatches). Serialized with the clock; a run's count is a measure
  /// of how much engine state its decisions saw change.
  std::uint64_t mutation_count() const { return mutation_count_; }

  /// Number of release batches started by run(): arrivals sharing a release
  /// instant share one epoch. Monotone during run(); 0 before.
  std::uint64_t release_epoch() const { return release_epoch_; }

  // --- the paper's aggregate queries (SJF ordering) ------------------------

  /// Sum over i in Q_v with strictly higher SJF priority than a candidate
  /// (size-on-v, release, id) of remaining_on(i, v). This is
  /// sum_{i in S_{v,cand} \ {cand}} p^A_{i,v}(now).
  double higher_priority_remaining(NodeId v, double cand_size,
                                   Time cand_release, JobId cand_id) const;

  /// |{ i in Q_v : p_{i,v} > size }| (strictly larger original size).
  int count_larger(NodeId v, double size) const;

  /// Both aggregates of the Lemma-4 term F for one candidate.
  struct PrioritySplit {
    /// == higher_priority_remaining(v, cand_size, cand_release, cand_id)
    double higher_remaining = 0.0;
    /// == count_larger(v, cand_size)
    int larger = 0;
  };

  /// higher_priority_remaining and count_larger in one index descent,
  /// bit-equal to the two separate calls; O(1) when the candidate is
  /// smaller than everything queued at v. Inline, as are the drain
  /// correction and DispatchIndex::split_at's shortcut and table count: a
  /// Lemma-4 sweep over the root children makes no out-of-line call on a
  /// fresh table.
  PrioritySplit priority_split(NodeId v, double cand_size, Time cand_release,
                               JobId cand_id) const {
    const NodeState& ns = nodes_[uidx(v)];
    const SjfKey cand{cand_size, cand_release, cand_id};
    const DispatchIndex::Split s = ns.index.split_at(cand);
    return {drained_before(ns, v, cand, s.remaining_before), s.size_greater};
  }

  /// sum_{i in Q_v, p_{i,v} > size} remaining_on(i,v) / p_{i,v} — the weight
  /// used by F' in the unrelated assignment rule (Section 3.6).
  double larger_residual_fraction(NodeId v, double size) const;

  /// sum_{i in Q_v} remaining_on(i, v): total queued volume pending at v
  /// (the load-aware baselines' bottleneck term). O(1).
  double pending_remaining(NodeId v) const {
    const NodeState& ns = nodes_[uidx(v)];
    return std::max(ns.index.total_remaining() - running_drain(ns, v), 0.0);
  }

  /// Root-cut backlog: pending_remaining summed over the root children in
  /// root_children() order. O(1) per root child.
  double root_backlog() const {
    double sum = 0.0;
    // treesched-lint: allow(inv-fp-accum): the volume policies compare this
    // exact rounding against the cap; the run logs pin every decision.
    for (const NodeId rc : tree().root_children()) sum += pending_remaining(rc);
    return sum;
  }

  /// alpha_{v,now} for a root child v (Section 3.5): total remaining leaf
  /// fraction over all jobs routed through v and unfinished at their leaf.
  double alpha_root_child(NodeId root_child) const;

  /// alpha_{v,now} for a leaf (Section 3.6): remaining fraction summed over
  /// the jobs assigned to it.
  double alpha_leaf(NodeId leaf) const;

  // --- results -------------------------------------------------------------

  const Metrics& metrics() const { return metrics_; }
  /// Mutable access for streaming drivers (enable_streaming at window start,
  /// finalization carry-over). The engine itself owns all record writes.
  Metrics& metrics() { return metrics_; }
  const ScheduleRecorder& recorder() const { return recorder_; }
  /// Mutable access for streaming drivers that drain recorded segments into
  /// run-log segment files between rotations (recorder().clear()).
  ScheduleRecorder& recorder() { return recorder_; }
  void set_observer(EngineObserver* obs) { observer_ = obs; }

  /// Total work still unfinished anywhere (for conservation tests).
  double total_remaining_work() const;

  /// True when no events are pending (all admitted jobs finished).
  bool drained() const { return events_.empty(); }

  /// Current size of the per-run job-state arenas, in per-path-index
  /// entries — the high-water mark streaming drivers feed back as
  /// EngineConfig::arena_reserve when they rotate windows.
  std::size_t arena_size() const { return a_in_avail_.size(); }

  /// Pending events in the event heap — a direct backlog/memory pressure
  /// reading for the resource governor (guard/governor.hpp).
  std::size_t event_queue_size() const { return events_.size(); }

  // --- snapshot / restore --------------------------------------------------

  /// Serializes the live simulation state (clock, a status letter per job,
  /// the stored arrays of live jobs, per-node running bursts, pending event
  /// queue, shed log, metrics incl. streaming accumulator) as text at full
  /// double precision, such that load_state + replay is byte-identical to
  /// the uninterrupted run. Retired (done/shed) jobs are only a letter in
  /// the status chart; per-job lines scale with the live jobs. Dispatch-index
  /// treaps are NOT serialized — their shape is a pure function of the key
  /// set, so load_state rebuilds them. Restrictions (TS_REQUIREd): no fault
  /// plan, no live custom admit_via_path paths, whole-job forwarding or
  /// chunked both fine. Appends the text to `out` (numbers as
  /// util::append_number writes them); a caller that reuses `out` saves
  /// without allocating once the buffers are warm.
  void save_state(std::string& out) const;

  /// Restores state captured by save_state into a PRISTINE engine (nothing
  /// admitted, clock at 0) built over the same tree/speeds/policy config.
  /// The instance may have MORE jobs than the snapshot; the extra jobs start
  /// untouched. The dispatch indices are rebuilt from the restored per-hop
  /// progress. Retired jobs come back as flags only (no path, no per-hop
  /// state). Arm set_admission BEFORE calling load_state. Throws
  /// std::invalid_argument on any other enginestate version than 3, and on
  /// any token after the closing "end".
  void load_state(std::string_view bytes);

 private:
  /// One member of a node's availability heap. The heap is ordered by the
  /// full PriorityKey (a total order — ties break by job id then chunk), so
  /// the minimum is unique and pops are deterministic. `idx` caches the
  /// item's path index; the item's current heap position lives in the job
  /// arena (a_slot_) and is maintained through every sift.
  struct AvailEntry {
    PriorityKey key;
    std::int32_t idx = 0;
  };

  /// Hot fields first: the root-cut backlog and the Lemma-4 sweep's drain
  /// correction read only the fields from index through running_sjf, the
  /// struct's first two cache lines.
  struct NodeState {
    /// Q_v (routed through, unfinished here) with incremental SJF
    /// aggregates; values are the stored remaining as of the last
    /// materialized burst, so queries subtract the running item's live
    /// drain.
    DispatchIndex index;
    bool has_running = false;
    // Fault state, in has_running's padding.
    bool down = false;             ///< crashed: runs nothing until recovery
    bool edge_down = false;        ///< link from the parent severed
    std::int32_t running_idx = 0;  ///< path index of the running item
    /// Stored remaining-on-v of the running item's job (whole job, pending
    /// chunks included) as of burst_start — refreshed whenever the stored
    /// arrays mutate, so remaining_on and the aggregate-query adjustments
    /// never re-derive it per call.
    double running_rem = 0.0;
    Time burst_start = 0.0;
    double factor = 1.0;           ///< fault slowdown on the base speed
    /// Dispatch-index key of the running item's job, cached at burst start
    /// (derived, not serialized) so the queries' drain adjustment compares
    /// keys without re-reading the instance.
    SjfKey running_sjf{};
    PriorityKey running{};         ///< cached top at burst start
    /// Time of the running item's pending completion event (derived, not
    /// serialized: restored from the event queue).
    Time running_finish = 0.0;
    std::uint64_t version = 0;     ///< invalidates stale completion events
    std::vector<AvailEntry> avail;  ///< flat min-heap of available items
    /// Deliveries (job, path index) blocked by the severed incoming edge,
    /// in arrival order; flushed on edge recovery.
    std::vector<std::pair<JobId, int>> deferred;
  };

  /// Per-job state. All per-path-index arrays (chunk progress, head
  /// remainders, availability keys/flags/heap slots) live in the engine's
  /// per-run arenas as structure-of-arrays, addressed by [span, span + len);
  /// the struct itself holds only scalars, so admission never allocates
  /// per-job heap blocks.
  struct JobState {
    bool admitted = false;
    bool done = false;
    bool shed = false;          ///< evicted by the admission controller
    bool rejected = false;      ///< refused at arrival (never admitted)
    bool redispatched = false;  ///< moved by fault recovery (never shed)
    NodeId leaf = kInvalidNode;
    /// Tree-owned processing path; nullptr for admit_via_path jobs, whose
    /// node sequence lives in a_path_ at [own_off, own_off + len).
    const std::vector<NodeId>* path = nullptr;
    std::uint32_t span = 0;     ///< arena offset of the per-path-index state
    std::uint32_t len = 0;      ///< path length (== span length)
    std::uint32_t own_off = 0;  ///< a_path_ offset for custom paths
    std::int32_t chunks = 1;    ///< router chunk count (1 = paper mode)
    double chunk_size = 0.0;    ///< router work per chunk
    double leaf_rem = 0.0;
    // Fractional flow accounting (exact, piecewise linear).
    double frac = 1.0;
    Time frac_touch = 0.0;
  };

  // Path access through the span views (custom paths live in a_path_).
  std::size_t path_len(const JobState& js) const { return js.len; }
  NodeId path_node(const JobState& js, std::size_t i) const {
    return js.path != nullptr ? (*js.path)[i] : a_path_[js.own_off + i];
  }
  bool has_custom_path(const JobState& js) const {
    return js.admitted && js.path == nullptr;
  }

  // Arena views of the per-(job, path-index) state.
  std::int32_t& chunks_done(const JobState& js, std::size_t i) {
    return a_chunks_done_[js.span + i];
  }
  std::int32_t chunks_done(const JobState& js, std::size_t i) const {
    return a_chunks_done_[js.span + i];
  }
  double& head_rem(const JobState& js, std::size_t i) {
    return a_head_rem_[js.span + i];
  }
  double head_rem(const JobState& js, std::size_t i) const {
    return a_head_rem_[js.span + i];
  }
  PriorityKey& avail_key(const JobState& js, std::size_t i) {
    return a_key_[js.span + i];
  }
  const PriorityKey& avail_key(const JobState& js, std::size_t i) const {
    return a_key_[js.span + i];
  }
  std::uint8_t& in_avail(const JobState& js, std::size_t i) {
    return a_in_avail_[js.span + i];
  }
  std::uint8_t in_avail(const JobState& js, std::size_t i) const {
    return a_in_avail_[js.span + i];
  }

  /// Appends `len` zero-initialized entries to every arena array (one shared
  /// offset space) and returns their offset.
  std::uint32_t alloc_span(std::size_t len);

  // Availability-heap maintenance (allocation-free once capacity is warm).
  void avail_set_slot(const AvailEntry& e, std::int32_t pos);
  void avail_sift_up(std::vector<AvailEntry>& h, std::size_t i);
  void avail_sift_down(std::vector<AvailEntry>& h, std::size_t i);
  void avail_push(NodeId v, const PriorityKey& k, int idx);
  void avail_remove(NodeId v, JobId j, int idx);

  void admit_on_path(JobId j, const std::vector<NodeId>* path,
                     std::size_t len);
  int path_index(const JobState& js, NodeId v) const;
  bool is_leaf_index(const JobState& js, int idx) const;
  double stored_remaining_item(const JobState& js, int idx) const;
  /// Whole remaining of (j, idx) on its node as of the stored arrays
  /// (pending chunks included; no running-burst adjustment) — the value the
  /// dispatch index carries and remaining_on starts from.
  double stored_remaining_total(const JobState& js, int idx) const;
  double live_remaining_item(JobId j, int idx) const;

  // Dispatch-index maintenance. Membership is Q_v; values mirror
  // stored_remaining_total.
  SjfKey index_key(JobId j, NodeId v) const;
  void index_insert(NodeId v, JobId j, int idx);
  void index_refresh(NodeId v, JobId j, int idx);
  void index_erase(NodeId v, JobId j);
  /// Tears (j, idx) out of node v on its path at time t — materializes the
  /// burst, drops the running, available and deferred entries and the Q_v
  /// membership — the per-hop step shared by shed and reassign_leaf.
  void tear_out(NodeId v, JobId j, int idx, Time t);
  /// Work the running burst of v has drained off its item since burst
  /// start, clamped the way remaining_on clamps (never below zero).
  double running_drain(const NodeState& ns, NodeId v) const {
    if (!ns.has_running) return 0.0;
    const double w = (now_ - ns.burst_start) * node_speed(v);
    if (w <= 0.0) return 0.0;
    return std::min(w, ns.running_rem);
  }
  /// Index sum of the entries preceding `cand`, corrected for the running
  /// item's live drain and clamped at zero — the value
  /// higher_priority_remaining answers.
  double drained_before(const NodeState& ns, NodeId v, const SjfKey& cand,
                        double index_sum) const {
    // Index entries hold stored (as-of-burst-start) totals; at most one of
    // them — the running item — is stale by the elapsed drain.
    if (ns.has_running && ns.running_sjf.job != cand.job &&
        ns.running_sjf < cand)
      index_sum -= running_drain(ns, v);
    return std::max(index_sum, 0.0);
  }
  /// Marks the avail-heap top as v's running item from burst start t and
  /// schedules its completion event (resched / force_resched).
  void start_burst(NodeId v, Time t);

  /// Effective processing speed of v right now (base speed x slowdown).
  double node_speed(NodeId v) const {
    return speeds_.speed(v) * nodes_[uidx(v)].factor;
  }

  PriorityKey make_key(JobId j, int idx, Time avail_time) const;
  void insert_avail(NodeId v, JobId j, int idx, Time t);
  void erase_avail(NodeId v, JobId j, int idx);

  /// Makes work item (j, idx) available on v — or, if v's incoming edge is
  /// down, defers it until the edge recovers.
  void deliver(NodeId v, JobId j, int idx, Time t);

  /// Materializes the running burst of v up to time t (records the segment,
  /// updates remaining work and fractional areas). Leaves the burst running.
  /// `refresh_index` false skips the running item's dispatch-index refresh,
  /// for a caller that erases or refreshes that entry itself next.
  void pause(NodeId v, Time t, bool refresh_index = true);

  /// Re-evaluates which item v should run at time t (after pause + any
  /// avail-heap mutations) and schedules its completion event.
  void resched(NodeId v, Time t);

  /// Like resched but never trusts the pending completion event — used after
  /// fault transitions (speed change, crash, recovery) that invalidate it.
  void force_resched(NodeId v, Time t);

  void handle_completion(NodeId v, Time t);
  void accumulate_frac_to(JobId j, Time t);

  // Fault machinery.
  Time next_fault_time() const;
  void apply_next_fault();
  void apply_node_down(NodeId v, Time t);
  void apply_node_up(NodeId v, Time t);
  void apply_edge_down(NodeId v, Time t);
  void apply_edge_up(NodeId v, Time t);
  void apply_slow(NodeId v, double factor, Time t);
  /// Re-dispatches every job still assigned to the crashed leaf.
  void redispatch_jobs_of(NodeId dead_leaf, Time t);
  /// Moves job j to new_leaf: keeps the shared path prefix, restarts the
  /// rest from the parent's copy, delivers the frontier item.
  void reassign_leaf(JobId j, NodeId new_leaf, Time t);

  const Instance* inst_;
  std::uint64_t serial_;
  SpeedProfile speeds_;
  EngineConfig cfg_;
  std::vector<NodeState> nodes_;
  std::vector<JobState> jobs_;
  EventQueue events_;
  /// save_state's copy of the pending events in pop order, reused.
  mutable std::vector<SimEvent> snap_events_;
  /// Shared treap node pool behind every per-node dispatch index — one
  /// contiguous allocation for the whole engine instead of one vector per
  /// node.
  TreapPool index_pool_;
  // Per-run job-state arenas (see JobState). One shared offset space; reset
  // happens by engine teardown — streaming drivers rebuild the engine when a
  // window rotates and carry arena_size() forward as the arena_reserve hint.
  std::vector<std::int32_t> a_chunks_done_;
  std::vector<double> a_head_rem_;
  std::vector<PriorityKey> a_key_;
  std::vector<std::int32_t> a_slot_;  ///< heap position per item; -1 = absent
  std::vector<std::uint8_t> a_in_avail_;  ///< byte-backed (no bit proxies)
  std::vector<NodeId> a_path_;  ///< backing storage for custom paths
  Metrics metrics_;
  ScheduleRecorder recorder_;
  EngineObserver* observer_ = nullptr;
  const fault::FaultPlan* fault_plan_ = nullptr;
  RedispatchPolicy* redispatch_ = nullptr;
  std::size_t fault_cursor_ = 0;
  std::vector<FaultRecord> fault_log_;
  AdmissionPolicy* admission_ = nullptr;
  std::vector<ShedRecord> shed_log_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t mutation_count_ = 0;
  std::uint64_t release_epoch_ = 0;
  JobId admitted_count_ = 0;
  JobId rejected_count_ = 0;
  JobId redispatched_count_ = 0;
};

}  // namespace treesched::sim
