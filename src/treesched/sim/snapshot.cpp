// Engine snapshot/restore (treesched-enginestate-v3; v3 writes live jobs
// only, so v2 blobs — one line per touched job — are rejected, as are v1
// blobs without the self-checksummed metrics/sketch serialization).
//
// Serializes the live simulation state as text at full double precision so
// that load_state + replay of the remaining arrivals is byte-identical to an
// uninterrupted run. The text is appended to a caller's string, numbers
// through util::append_number (the bytes of an ostream at setprecision(17)),
// so a runner that reuses its buffers takes a snapshot without allocating.
// Snapshots are the only user: a streaming window grows in memory
// (Engine::extend), not through this text. Three deliberate
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
#include <string>

#include "treesched/sim/engine.hpp"
#include "treesched/util/assert.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::sim {

namespace {

constexpr char kMagic[] = "enginestate";
constexpr int kVersion = 3;

/// Appends " <n>" for every number, in the bytes an ostream at
/// setprecision(17) writes.
template <class... Numbers>
void put(std::string& out, Numbers... numbers) {
  ((out += ' ', util::append_number(out, numbers)), ...);
}

}  // namespace

void Engine::save_state(std::string& out) const {
  TS_REQUIRE(fault_plan_ == nullptr && fault_log_.empty(),
             "save_state does not support fault runs");
  for (const NodeState& ns : nodes_)
    TS_REQUIRE(!ns.down && !ns.edge_down && ns.factor == 1.0 &&
                   ns.deferred.empty(),
               "save_state requires nodes in nominal fault state");
  for (const JobState& js : jobs_)
    TS_REQUIRE(!has_custom_path(js) || js.done || js.shed,
               "save_state does not support live custom-path jobs");

  out += kMagic;
  put(out, kVersion);
  out += "\nconfig ";
  out += node_policy_name(cfg_.node_policy);
  put(out, cfg_.record_schedule ? 1 : 0, cfg_.router_chunk_size);
  out += "\nclock";
  put(out, now_, seq_, mutation_count_, admitted_count_, rejected_count_);

  // Per-job status chart: '.' untouched, 'R' rejected, 'L' live (admitted,
  // unfinished, not shed), 'D' done, 'S' shed. Only live jobs get a state
  // line below; the chart alone restores the retired ones. It is written in
  // place and read back from `out` by offset.
  out += "\nstatus";
  put(out, jobs_.size());
  out += ' ';
  const std::size_t chart = out.size();
  out.append(jobs_.size(), '.');
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobState& js = jobs_[j];
    if (js.rejected)
      out[chart + j] = 'R';
    else if (js.shed)
      out[chart + j] = 'S';
    else if (js.done)
      out[chart + j] = 'D';
    else if (js.admitted)
      out[chart + j] = 'L';
  }
  out += '\n';

  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (out[chart + j] != 'L') continue;
    const JobState& js = jobs_[j];
    const std::size_t len = js.len;
    out += "job";
    put(out, j, js.leaf, js.chunks, js.chunk_size, js.leaf_rem, js.frac,
        js.frac_touch, len);
    for (std::size_t i = 0; i + 1 < len; ++i)
      put(out, chunks_done(js, i), head_rem(js, i));
    for (std::size_t i = 0; i < len; ++i) {
      put(out, in_avail(js, i) ? 1 : 0);
      if (in_avail(js, i)) {
        const PriorityKey& k = avail_key(js, i);
        put(out, k.a, k.b, k.chunk);
      }
    }
    out += '\n';
  }

  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    const NodeState& ns = nodes_[v];
    out += "node";
    put(out, v, ns.version, ns.burst_start, ns.has_running ? 1 : 0);
    if (ns.has_running)
      put(out, ns.running.a, ns.running.b, ns.running.job, ns.running.chunk,
          ns.running_rem);
    out += '\n';
  }

  // Pending events in pop order, stale ones (version mismatch) dropped: the
  // loader re-pushes and the queue restores the identical (t, seq) order.
  events_.sorted_events(snap_events_);
  const auto live = [this](const SimEvent& ev) {
    return ev.version == nodes_[uidx(ev.node)].version;
  };
  out += "events";
  put(out, std::count_if(snap_events_.begin(), snap_events_.end(), live));
  out += '\n';
  for (const SimEvent& ev : snap_events_) {
    if (!live(ev)) continue;
    out += "ev";
    put(out, ev.t, ev.seq, ev.node, ev.version);
    out += '\n';
  }

  out += "shedlog";
  put(out, shed_log_.size());
  out += '\n';
  for (const ShedRecord& sr : shed_log_) {
    out += "sl";
    put(out, static_cast<int>(sr.kind), sr.t, sr.job, sr.f, sr.bound);
    out += '\n';
  }

  metrics_.save(out);
  out += "end\n";
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
