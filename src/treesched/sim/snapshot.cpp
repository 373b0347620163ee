// Engine snapshot/restore (treesched-enginestate-v3; v3 writes live jobs
// only, so v2 blobs — one line per touched job — are rejected, as are v1
// blobs without the self-checksummed metrics/sketch serialization).
//
// Serializes the live simulation state as text at full double precision so
// that load_state + replay of the remaining arrivals is byte-identical to an
// uninterrupted run. Snapshots are the only user: a streaming window grows
// in memory (Engine::extend), not through this text. Three deliberate
// non-goals keep the format small and the determinism argument simple:
//
//  * Retired jobs carry no state. A done or shed job appears only as its
//    letter in the status chart, and its metrics record either sits in the
//    streaming accumulator already (streaming mode) or is written by
//    Metrics::save (full mode). So a snapshot's size follows the live jobs,
//    not the window.
//
//  * Dispatch-index treaps are NOT serialized. Their shape and float
//    association depend only on the key set (deterministic hashed
//    priorities), so the loader re-inserts the restored Q_v keys and
//    obtains bit-identical aggregates — this is the property
//    sim_dispatch_index_test locks down; the query-oracle tests shadow a
//    restored engine per event to check the rebuilt aggregates.
//
//  * Node availability sets are NOT serialized either: every member is some
//    job's (in_avail, avail_key) pair, so they are rebuilt from the per-job
//    arrays. The pending event queue IS serialized verbatim (minus stale
//    entries), because completion event times are sums that cannot be
//    re-derived bit-exactly from the restored remaining work.
//
// Restrictions (TS_REQUIREd at save): no fault plan consumed, no live
// custom-path jobs, all nodes in nominal fault state. Streaming endurance
// runs satisfy all three by construction.
#include <algorithm>
#include <iomanip>
#include <ostream>
#include <string>

#include "treesched/sim/engine.hpp"
#include "treesched/util/assert.hpp"

namespace treesched::sim {

namespace {

constexpr char kMagic[] = "enginestate";
constexpr int kVersion = 3;

}  // namespace

void Engine::save_state(std::ostream& os) const {
  TS_REQUIRE(fault_plan_ == nullptr && fault_log_.empty(),
             "save_state does not support fault runs");
  for (const NodeState& ns : nodes_)
    TS_REQUIRE(!ns.down && !ns.edge_down && ns.factor == 1.0 &&
                   ns.deferred.empty(),
               "save_state requires nodes in nominal fault state");
  for (const JobState& js : jobs_)
    TS_REQUIRE(!has_custom_path(js) || js.done || js.shed,
               "save_state does not support live custom-path jobs");

  const auto flags = os.flags();
  const auto prec = os.precision();
  os << std::setprecision(17);

  os << kMagic << ' ' << kVersion << '\n';
  os << "config " << node_policy_name(cfg_.node_policy) << ' '
     << (cfg_.record_schedule ? 1 : 0) << ' ' << cfg_.router_chunk_size
     << '\n';
  os << "clock " << now_ << ' ' << seq_ << ' ' << mutation_count_ << ' '
     << static_cast<long long>(admitted_count_) << ' '
     << static_cast<long long>(rejected_count_) << '\n';

  // Per-job status chart: '.' untouched, 'R' rejected, 'L' live (admitted,
  // unfinished, not shed), 'D' done, 'S' shed. Only live jobs get a state
  // line below; the chart alone restores the retired ones.
  std::string status(jobs_.size(), '.');
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobState& js = jobs_[j];
    if (js.rejected)
      status[j] = 'R';
    else if (js.shed)
      status[j] = 'S';
    else if (js.done)
      status[j] = 'D';
    else if (js.admitted)
      status[j] = 'L';
  }
  os << "status " << status.size() << ' ' << status << '\n';

  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobState& js = jobs_[j];
    if (status[j] != 'L') continue;
    const std::size_t len = js.len;
    os << "job " << j << ' ' << js.leaf << ' ' << js.chunks << ' '
       << js.chunk_size << ' ' << js.leaf_rem << ' ' << js.frac << ' '
       << js.frac_touch << ' ' << len;
    for (std::size_t i = 0; i + 1 < len; ++i)
      os << ' ' << chunks_done(js, i) << ' ' << head_rem(js, i);
    for (std::size_t i = 0; i < len; ++i) {
      os << ' ' << (in_avail(js, i) ? 1 : 0);
      if (in_avail(js, i)) {
        const PriorityKey& k = avail_key(js, i);
        os << ' ' << k.a << ' ' << k.b << ' ' << k.chunk;
      }
    }
    os << '\n';
  }

  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    const NodeState& ns = nodes_[v];
    os << "node " << v << ' ' << ns.version << ' ' << ns.burst_start << ' '
       << (ns.has_running ? 1 : 0);
    if (ns.has_running)
      os << ' ' << ns.running.a << ' ' << ns.running.b << ' '
         << ns.running.job << ' ' << ns.running.chunk << ' '
         << ns.running_rem;
    os << '\n';
  }

  // Pending events in pop order, stale ones (version mismatch) dropped: the
  // loader re-pushes and the queue restores the identical (t, seq) order.
  std::vector<SimEvent> live;
  for (const SimEvent& ev : events_.sorted_events())
    if (ev.version == nodes_[uidx(ev.node)].version) live.push_back(ev);
  os << "events " << live.size() << '\n';
  for (const SimEvent& ev : live)
    os << "ev " << ev.t << ' ' << ev.seq << ' ' << ev.node << ' '
       << ev.version << '\n';

  os << "shedlog " << shed_log_.size() << '\n';
  for (const ShedRecord& sr : shed_log_)
    os << "sl " << static_cast<int>(sr.kind) << ' ' << sr.t << ' ' << sr.job
       << ' ' << sr.f << ' ' << sr.bound << '\n';

  metrics_.save(os);
  os << "end\n";
  os.flags(flags);
  os.precision(prec);
}

void Engine::load_state(std::string_view bytes) {
  TS_REQUIRE(now_ == 0.0 && seq_ == 0 && mutation_count_ == 0 &&
                 admitted_count_ == 0 && rejected_count_ == 0 &&
                 events_.empty() && fault_plan_ == nullptr,
             "load_state requires a pristine engine");

  util::Fields f(bytes);
  int version = 0;
  TS_REQUIRE((f.expect(kMagic) >> version) && version == kVersion,
             "engine load: unsupported enginestate version " +
                 std::to_string(version) + " (want " +
                 std::to_string(kVersion) + ")");

  std::string_view policy;
  int record = 0;
  double chunk = 0.0;
  f.expect("config") >> policy >> record >> chunk;
  TS_REQUIRE(f && policy == node_policy_name(cfg_.node_policy),
             "engine load: node policy mismatch");
  TS_REQUIRE((record != 0) == cfg_.record_schedule,
             "engine load: record_schedule mismatch");
  TS_REQUIRE(chunk == cfg_.router_chunk_size,
             "engine load: router_chunk_size mismatch");

  f.expect("clock") >> now_ >> seq_ >> mutation_count_ >> admitted_count_ >>
      rejected_count_;

  std::size_t n = 0;
  std::string_view status;
  f.expect("status") >> n >> status;
  TS_REQUIRE(f && status.size() == n, "engine load: malformed status chart");
  TS_REQUIRE(n <= jobs_.size(),
             "engine load: snapshot has more jobs than the instance");
  std::size_t live = 0;
  for (std::size_t j = 0; j < n; ++j) {
    JobState& js = jobs_[j];
    switch (status[j]) {
      case '.': break;
      case 'R': js.rejected = true; break;
      case 'D': js.admitted = js.done = true; break;
      case 'S': js.admitted = js.shed = true; break;
      case 'L': ++live; break;
      default: TS_REQUIRE(false, "engine load: bad status letter");
    }
  }

  std::size_t prev = 0;
  for (std::size_t line = 0; line < live; ++line) {
    std::size_t j = 0, len = 0;
    TS_REQUIRE((f.expect("job") >> j) && j < n && status[j] == 'L' &&
                   (line == 0 || j > prev),
               "engine load: job line is not the next live job");
    prev = j;
    JobState& js = jobs_[j];
    f >> js.leaf >> js.chunks >> js.chunk_size >> js.leaf_rem >> js.frac >>
        js.frac_touch >> len;
    TS_REQUIRE(f, "engine load: bad job line");
    TS_REQUIRE(js.leaf >= 0 && js.leaf < tree().node_count() &&
                   tree().is_leaf(js.leaf),
               "engine load: job leaf is no machine");
    js.path = &tree().path_to(js.leaf);
    TS_REQUIRE(js.path->size() == len, "engine load: path length mismatch");
    js.admitted = true;
    js.span = alloc_span(len);
    js.len = static_cast<std::uint32_t>(len);
    for (std::size_t i = 0; i + 1 < len; ++i)
      f >> chunks_done(js, i) >> head_rem(js, i);
    for (std::size_t i = 0; i < len; ++i) {
      int avail = 0;
      f >> avail;
      if (avail == 0) continue;
      PriorityKey k;
      k.job = static_cast<JobId>(j);
      f >> k.a >> k.b >> k.chunk;
      in_avail(js, i) = 1;
      avail_key(js, i) = k;
      // Availability heaps rebuild from the per-job arrays; their internal
      // layout is never observable (pops follow the full key order).
      avail_push((*js.path)[i], k, static_cast<int>(i));
    }
    TS_REQUIRE(f, "engine load: truncated job line");
    // Queue membership mirrors unfinished work per hop; the dispatch-index
    // treaps rebuild bit-identically from the restored key set.
    for (std::size_t i = 0; i + 1 < len; ++i) {
      if (chunks_done(js, i) >= js.chunks) continue;
      index_insert((*js.path)[i], static_cast<JobId>(j), static_cast<int>(i));
    }
    index_insert(js.leaf, static_cast<JobId>(j), static_cast<int>(len - 1));
  }

  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    std::size_t id = 0;
    int has_running = 0;
    NodeState& ns = nodes_[v];
    f.expect("node") >> id >> ns.version >> ns.burst_start >> has_running;
    TS_REQUIRE(f && id == v, "engine load: node section out of order");
    ns.has_running = has_running != 0;
    if (ns.has_running) {
      f >> ns.running.a >> ns.running.b >> ns.running.job >>
          ns.running.chunk >> ns.running_rem;
      // The running item must be a live job; path_index then requires v on
      // its path.
      const JobId rj = ns.running.job;
      TS_REQUIRE(f && rj >= 0 && uidx(rj) < n && status[uidx(rj)] == 'L',
                 "engine load: running item is not a live job");
      // Derived, not serialized: the running item's path index and
      // dispatch-index key.
      ns.running_idx = path_index(jobs_[uidx(rj)], static_cast<NodeId>(v));
      ns.running_sjf = index_key(rj, static_cast<NodeId>(v));
    }
  }

  std::size_t nev = 0;
  f.expect("events") >> nev;
  for (std::size_t i = 0; i < nev && f; ++i) {
    SimEvent ev;
    TS_REQUIRE((f.expect("ev") >> ev.t >> ev.seq >> ev.node >> ev.version) &&
                   ev.seq < seq_,
               "engine load: event from the future");
    TS_REQUIRE(ev.node >= 0 && uidx(ev.node) < nodes_.size(),
               "engine load: event on an unknown node");
    NodeState& ns = nodes_[uidx(ev.node)];
    if (ns.has_running && ev.version == ns.version) ns.running_finish = ev.t;
    events_.push(ev);
  }

  std::size_t nsl = 0;
  f.expect("shedlog") >> nsl;
  for (std::size_t i = 0; i < nsl && f; ++i) {
    ShedRecord sr;
    int kind = 0;
    TS_REQUIRE((f.expect("sl") >> kind >> sr.t >> sr.job >> sr.f >> sr.bound) &&
                   kind >= 0 &&
                   kind <= static_cast<int>(ShedRecord::Kind::kAdmit),
               "engine load: bad shed record");
    sr.kind = static_cast<ShedRecord::Kind>(kind);
    shed_log_.push_back(sr);
  }

  metrics_.load(f);
  // A retired job whose record was not written had been folded into the
  // streaming accumulator: mark it so, exactly as the saved engine had it.
  for (std::size_t j = 0; j < n; ++j) {
    JobRecord& r = metrics_.job(static_cast<JobId>(j));
    if (status[j] != '.' && status[j] != 'L' && !r.touched()) r.finalized = true;
  }
  TS_REQUIRE(f.expect("end") && f.done(), "engine load: truncated snapshot");
}

}  // namespace treesched::sim
