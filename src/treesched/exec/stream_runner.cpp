#include "treesched/exec/stream_runner.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "treesched/algo/policies.hpp"
#include "treesched/core/instance.hpp"
#include "treesched/exec/snapshot_store.hpp"
#include "treesched/guard/clock.hpp"
#include "treesched/guard/governor.hpp"
#include "treesched/guard/guard_log.hpp"
#include "treesched/guard/health.hpp"
#include "treesched/guard/watchdog.hpp"
#include "treesched/overload/controller.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/util/assert.hpp"
#include "treesched/util/fields.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/mem.hpp"
#include "treesched/util/stopwatch.hpp"

namespace treesched::exec {

namespace {

/// Streaming-safe policies only: every decision must be reproducible from
/// (engine state, stream_state token). broomstick-mirror simulates the whole
/// instance up front and fault-greedy needs fault plans — both are
/// incompatible with windowed streams.
std::unique_ptr<sim::AssignmentPolicy> make_stream_policy(
    const std::string& name, double eps, std::uint64_t seed) {
  if (name == "paper") return std::make_unique<algo::PaperGreedyPolicy>(eps);
  if (name == "closest") return std::make_unique<algo::ClosestLeafPolicy>();
  if (name == "random")
    return std::make_unique<algo::RandomLeafPolicy>(seed);
  if (name == "round-robin")
    return std::make_unique<algo::RoundRobinPolicy>();
  if (name == "least-volume")
    return std::make_unique<algo::LeastVolumePolicy>();
  if (name == "least-count")
    return std::make_unique<algo::LeastCountPolicy>();
  if (name == "two-choice")
    return std::make_unique<algo::TwoChoicePolicy>(seed);
  throw std::invalid_argument(
      "policy '" + name +
      "' is not streaming-safe (want paper|closest|random|round-robin|"
      "least-volume|least-count|two-choice)");
}

/// Identity of the run every snapshot is checked against: resuming under a
/// different tree, speed profile, stream, policy, or windowing would replay
/// a DIFFERENT run while claiming continuity.
std::string spec_string(const Tree& tree, const SpeedProfile& speeds,
                        const StreamRunnerConfig& cfg) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "tree";
  for (NodeId v = 0; v < tree.node_count(); ++v)
    os << ' ' << tree.parent(v) << ':' << static_cast<int>(tree.kind(v));
  os << "\nspeeds";
  for (NodeId v = 0; v < tree.node_count(); ++v)
    os << ' ' << speeds.speed(v);
  os << "\nstream " << cfg.stream.seed << ' ' << cfg.stream.lambda << ' '
     << static_cast<int>(cfg.stream.sizes.dist) << ' ' << cfg.stream.sizes.scale
     << ' ' << cfg.stream.sizes.spread << ' ' << cfg.stream.sizes.shape << ' '
     << cfg.stream.sizes.mix << ' ' << cfg.stream.sizes.class_eps;
  os << "\nrun " << cfg.total_jobs << ' ' << cfg.window << ' ' << cfg.policy
     << ' ' << cfg.eps << ' ' << cfg.policy_seed << ' '
     << static_cast<int>(cfg.node_policy) << ' '
     << static_cast<int>(cfg.shed.policy) << ' ' << cfg.shed.queue_cap << ' '
     << cfg.shed.deadline_slack << ' ' << (cfg.record_path.empty() ? 0 : 1)
     << ' ' << cfg.segment_cap << ' ' << cfg.snapshot_every;
  return os.str();
}

/// Engine ticks between two rounds of wall-clock housekeeping (heartbeat,
/// status file, watchdog poll). Each round reads the clock; a healthy
/// stream ticks about a million times a second, so reading it on every
/// tick would be the largest cost of supervision. Watchdog deadlines are
/// seconds, and 64 ticks are tens of microseconds.
constexpr std::uint32_t kClockTicks = 64;

class StreamRunner;

/// Feeds completions to the segment writer the instant they happen and
/// drains the recorder whenever it fills a segment (so the tail
/// run_to_completion phase cannot grow the recorder unboundedly).
class StreamFeed : public sim::EngineObserver {
 public:
  explicit StreamFeed(StreamRunner* runner) : runner_(runner) {}
  void on_job_admitted(const sim::Engine& engine, JobId j) override;
  void on_job_completed(const sim::Engine& engine, JobId j) override;
  void on_event(const sim::Engine& engine, Time t) override;

 private:
  StreamRunner* runner_;
};

class StreamRunner {
 public:
  StreamRunner(std::shared_ptr<const Tree> tree, const SpeedProfile& speeds,
               const StreamRunnerConfig& cfg)
      : tree_(std::move(tree)),
        speeds_(speeds),
        cfg_(cfg),
        stream_(cfg.stream),
        feed_(this),
        inst_(tree_, {}, EndpointModel::kIdentical) {
    TS_REQUIRE(cfg_.total_jobs > 0, "streaming run needs total_jobs > 0");
    TS_REQUIRE(cfg_.window > 0, "streaming run needs a positive window");
    overload::validate_shed_config(cfg_.shed);
    if (cfg_.snapshot_every > 0 || cfg_.die_after_snapshot > 0)
      TS_REQUIRE(!cfg_.snapshot_path.empty(),
                 "snapshotting needs --snapshot-path");
    policy_ = make_stream_policy(cfg_.policy, cfg_.eps, cfg_.policy_seed);
    if (cfg_.shed.enabled()) admission_.emplace(cfg_.shed, cfg_.eps);
    if (!cfg_.record_path.empty())
      writer_.emplace(
          sim::SegmentedRunLogWriter::Config{cfg_.record_path,
                                             cfg_.segment_cap},
          *tree_, speeds_.speeds(), cfg_.node_policy, 0.0, cfg_.shed);
    if (!cfg_.snapshot_path.empty()) {
      store_.emplace(cfg_.snapshot_path, cfg_.snapshot_keep);
      sections_ = {{"stream", {}}, {"engine", {}}};
      if (admission_) sections_.push_back({"overload", {}});
    }
    spec_fp_ = util::fnv1a_64(spec_string(*tree_, speeds_, cfg_));
    window_quantum_ = cfg_.window;
    if (cfg_.guard.watchdog.enabled())
      watchdog_.emplace(cfg_.guard.watchdog, &gclock_);
    if (cfg_.guard.governor.enabled())
      governor_.emplace(cfg_.guard.governor);
    if (!cfg_.guard.guard_log.empty()) {
      glog_.emplace(cfg_.guard.guard_log);
      // Incarnation preamble: the armed configuration every later guard
      // line is audited against.
      glog_->ceiling(cfg_.guard.governor,
                     cfg_.guard.watchdog.window_deadline_s);
    }
  }

  StreamRunnerResult run() {
    if (cfg_.resume_snapshot.empty()) {
      if (writer_) writer_->start_fresh();
      fill_window(sim::StreamAccumulator());
    } else {
      load_snapshot();
    }
    for (;;) {
      while (processed_ < uidx(inst_.job_count())) {
        if (check_cancel()) return finish();
        step_one_arrival();
        if (result_.interrupted) return finish();
      }
      if (check_cancel()) return finish();
      if (base_ + processed_ >= cfg_.total_jobs) break;
      // The next arrival exists; decide how it enters the system.
      const workload::StreamJob nxt = stream_.peek(gen_cursor_);
      engine_->advance_to(nxt.release);
      drain();
      if (engine_->drained()) {
        // Quiescent instant: nothing in flight, so the finished window's
        // per-job records can be dropped — the accumulator carries the
        // metrics across.
        sim::StreamAccumulator acc = engine_->metrics().stream_accumulator();
        fill_window(std::move(acc));
      } else {
        extend_window();
      }
    }
    // Tail drain: every arrival is in, so "window deadline" no longer
    // applies — disarm the watchdog rather than abort a finishing run.
    watchdog_.reset();
    engine_->run_to_completion();
    drain();
    if (writer_) {
      const sim::StreamAccumulator& acc =
          engine_->metrics().stream_accumulator();
      writer_->write_final(base_ + processed_, acc.completed, acc.shed,
                           acc.rejected, acc.flow.value(), acc.makespan);
    }
    return finish();
  }

  // Observer callbacks (via StreamFeed).
  void on_admitted(const sim::Engine& engine, JobId j) {
    if (admission_) admission_->estimator().on_job_admitted(engine, j);
  }
  void on_done(const sim::Engine& engine, JobId j) {
    if (writer_)
      writer_->on_done(base_ + static_cast<std::uint64_t>(j), engine.now());
  }
  void on_tick(const sim::Engine& engine) {
    if (writer_ && engine.recorder().segments().size() >= cfg_.segment_cap)
      drain();
    if (++ticks_ < kClockTicks) return;
    ticks_ = 0;
    heartbeat(engine.now());
    write_status();
    poll_watchdog();
  }

 private:
  StreamRunnerResult finish() {
    result_.arrivals = base_ + processed_;
    if (governor_) result_.stage = governor_->stage();
    write_status(/*force=*/true);
    result_.acc = engine_->metrics().stream_accumulator();
    if (writer_) result_.segments_written = writer_->next_index();
    if (admission_) {
      // rho-hat first (it prunes the window at now()), then serialize — the
      // byte-compared state is the post-reading one both runs agree on.
      result_.rho_hat_root =
          admission_->estimator().max_root_child_rho(*engine_);
      admission_->save_state(result_.overload_state);
    }
    return result_;
  }

  /// Builds a fresh engine over the next window of at most `window` arrivals
  /// starting at the generation cursor, seeding its metrics with `acc`.
  void fill_window(sim::StreamAccumulator acc) {
    base_ = gen_cursor_.index;
    window_cursor_ = gen_cursor_;
    processed_ = 0;
    shed_consumed_ = 0;
    refill_window(step_size(), nullptr, &acc);
  }

  /// Grows the window by one quantum in place: the instance appends the
  /// next arrivals and the engine, bound to it, keeps every piece of live
  /// state. Costs O(quantum), whatever the window.
  void extend_window() {
    const std::size_t n = step_size();
    TS_REQUIRE(n > 0, "extend_window with no arrivals left");
    grow_window(n);
    engine_->extend(inst_);
  }

  /// Arrivals one window step takes: a quantum, or what is left of the run.
  std::size_t step_size() const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(
        window_quantum_, cfg_.total_jobs - gen_cursor_.index));
  }

  /// Appends the next `n` arrivals to the window's instance (window-local
  /// ids), checking only them.
  void grow_window(std::size_t n) {
    quantum_.clear();
    quantum_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const workload::StreamJob sj = stream_.next(gen_cursor_);
      quantum_.emplace_back(static_cast<JobId>(uidx(inst_.job_count()) + i),
                            sj.release, sj.size);
    }
    inst_.append(quantum_);
    result_.window_jobs_touched += n;
    result_.max_window =
        std::max(result_.max_window, uidx(inst_.job_count()));
  }

  /// Replaces the window: drops the engine (it is bound to the instance),
  /// refills the instance with `n` arrivals from the generation cursor, and
  /// builds the engine over it. Exactly one of `state` (snapshot engine
  /// section) / `acc` (fresh streaming window) is given.
  void refill_window(std::size_t n, const std::string* state,
                     sim::StreamAccumulator* acc) {
    // A retiring engine hands its arena footprint on, so rotated windows do
    // not re-grow the job arenas from zero; the first window reserves two
    // entries per job (every path has a router and a machine).
    const std::size_t arena_hint =
        engine_ != nullptr ? engine_->arena_size() : 0;
    engine_.reset();
    inst_.clear();
    grow_window(n);
    sim::EngineConfig ecfg;
    ecfg.arena_reserve =
        arena_hint > 0 ? arena_hint : 2 * uidx(inst_.job_count());
    ecfg.node_policy = cfg_.node_policy;
    ecfg.record_schedule = writer_.has_value();
    ecfg.router_chunk_size = 0.0;
    ecfg.shed = cfg_.shed;
    engine_ = std::make_unique<sim::Engine>(inst_, speeds_, ecfg);
    if (admission_) engine_->set_admission(&*admission_);
    if (acc != nullptr)
      engine_->metrics().enable_streaming(std::move(*acc));
    else
      engine_->load_state(*state);
    engine_->set_observer(&feed_);
  }

  void step_one_arrival() {
    const Job& job = inst_.job(static_cast<JobId>(processed_));
    engine_->advance_to(job.release);
    const bool admitted =
        !admission_ || admission_->admit(*engine_, job);
    if (admitted) {
      const NodeId leaf = policy_->assign(*engine_, job);
      engine_->admit(job.id, leaf);
      if (writer_)
        writer_->on_admit(base_ + processed_, job.release, job.weight,
                          job.size, leaf);
    } else if (!engine_->job_rejected(job.id)) {
      engine_->reject(job.id);
    }
    ++processed_;
    drain();
    heartbeat(engine_->now());
    const std::uint64_t done = base_ + processed_;
    if (cfg_.snapshot_every > 0 && done % cfg_.snapshot_every == 0 &&
        done < cfg_.total_jobs)
      take_snapshot(done);
    guard_on_arrival(done);
  }

  // --- supervision hooks ---------------------------------------------------

  /// Per-arrival guard work: watchdog re-arm, status refresh, governor
  /// pressure sampling, and the test-only stall. All no-ops (one branch
  /// each) when supervision is off — the bench_endurance overhead gate
  /// holds the guards-on tax under a few percent.
  void guard_on_arrival(std::uint64_t done) {
    if (watchdog_) watchdog_->progress(done);
    write_status();
    if (governor_ && done % cfg_.guard.governor.sample_every == 0)
      sample_governor();
    if (cfg_.guard_stall_at > 0 && !stalled_ && done >= cfg_.guard_stall_at)
      stall();
  }

  void sample_governor() {
    guard::Pressure p;
    p.rss_bytes = util::current_rss_bytes();
    p.event_queue = engine_->event_queue_size();
    p.arena = engine_->arena_size();
    if (const auto to = governor_->observe(p)) apply_stage(*to, p);
  }

  /// Applies one degradation-ladder rung. The mitigations deliberately work
  /// on RUNTIME knobs only (window quantum, effective shed caps) — the
  /// configured spec identity is untouched, so snapshots from a degraded
  /// run still resume under the original flags.
  void apply_stage(guard::Stage to, const guard::Pressure& p) {
    const auto from = static_cast<guard::Stage>(static_cast<int>(to) - 1);
    if (glog_) glog_->governor_escalate(gclock_.now_s(), from, to, p);
    std::cerr << "[guard] governor: " << guard::stage_name(from) << " -> "
              << guard::stage_name(to) << " (rss " << p.rss_bytes
              << " queue " << p.event_queue << " arena " << p.arena << ")\n";
    result_.stage = to;
    switch (to) {
      case guard::Stage::kStreamingMetrics:
        // Streaming runs are born with streaming metrics — the rung is a
        // recorded no-op here so the audited ladder order is uniform.
        break;
      case guard::Stage::kShrunkWindow:
        window_quantum_ = std::max<std::size_t>(64, window_quantum_ / 2);
        break;
      case guard::Stage::kTightenedShed:
        if (admission_) admission_->tighten(0.5);
        break;
      case guard::Stage::kAbort: {
        if (store_) take_snapshot(base_ + processed_);
        throw guard::GovernorAbortError(
            "resource governor: ceilings still breached after the full "
            "degradation ladder (rss " + std::to_string(p.rss_bytes) +
            ", queue " + std::to_string(p.event_queue) + ", arena " +
            std::to_string(p.arena) +
            ") — aborting with the snapshot generation intact; resume with "
            "--resume-snapshot or raise the ceilings");
      }
      case guard::Stage::kNormal:
        break;
    }
  }

  /// Polls the watchdog and performs whatever escalation came due. Runs
  /// inside observer ticks on purpose: a wedged window never reaches the
  /// next arrival boundary, so deferring actions there would never fire.
  /// Tick instants are consistent engine states with exactly [0, processed_)
  /// arrivals admitted, which is what makes the forced snapshot resumable.
  void poll_watchdog() {
    if (!watchdog_) return;
    const auto act = watchdog_->poll();
    if (act == guard::Watchdog::Action::kNone) return;
    const double stalled = watchdog_->stalled_s();
    const std::uint64_t arr = base_ + processed_;
    if (glog_)
      glog_->watchdog(gclock_.now_s(), guard::Watchdog::action_name(act),
                      stalled, arr);
    std::cerr << "[guard] watchdog: " << guard::Watchdog::action_name(act)
              << " — no arrival progress for " << stalled << "s (arrivals "
              << arr << ")\n";
    switch (act) {
      case guard::Watchdog::Action::kLog:
        break;
      case guard::Watchdog::Action::kSnapshot:
        // Secure the progress while the process is still alive: force a
        // snapshot generation (which also rotates the open segment).
        if (store_) {
          take_snapshot(arr);
        } else {
          drain();
          if (writer_) writer_->commit(true);
        }
        break;
      case guard::Watchdog::Action::kAbort:
        throw guard::WatchdogAbortError(
            "watchdog: stream window made no progress for " +
            std::to_string(stalled) + "s (3x the " +
            std::to_string(cfg_.guard.watchdog.window_deadline_s) +
            "s deadline) — aborting; the snapshot generation written at 2x "
            "is intact, resume with --resume-snapshot");
      case guard::Watchdog::Action::kNone:
        break;
    }
  }

  /// TEST ONLY (--guard-stall-at): freeze at an arrival boundary with
  /// status writes and watchdog polls still running — the deterministic
  /// stand-in for a wedged window. May throw WatchdogAbortError mid-stall.
  void stall() {
    stalled_ = true;
    std::cerr << "[guard] test stall: freezing for " << cfg_.guard_stall_s
              << "s at arrival " << (base_ + processed_) << "\n";
    const double until = gclock_.now_s() + cfg_.guard_stall_s;
    while (gclock_.now_s() < until) {
      if (cancel_set()) return;
      write_status();
      poll_watchdog();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Refreshes the child status JSON (atomic replace) at ~4 Hz. rho-hat
  /// reads mid-run are safe for the byte-compared end state: the
  /// estimator's prune is prefix-consistent, so intermediate reads leave
  /// the final serialized state bit-identical.
  void write_status(bool force = false) {
    if (cfg_.status_file.empty()) return;
    const double now = gclock_.now_s();
    if (!force && now - last_status_ < 0.25) return;
    last_status_ = now;
    guard::ChildStatus s;
    s.arrivals = base_ + processed_;
    s.window = uidx(inst_.job_count());
    if (admission_ && engine_)
      s.rho_hat = admission_->estimator().max_root_child_rho(*engine_);
    if (governor_) s.stage = governor_->stage();
    s.t_s = now;
    guard::write_child_status(cfg_.status_file, s);
  }

  bool cancel_set() const {
    return cfg_.cancel != nullptr &&
           cfg_.cancel->load(std::memory_order_relaxed);
  }

  /// Arrival-boundary graceful stop: flush the open segment, write one
  /// final snapshot generation, and report cancelled (exit 130 upstream).
  bool check_cancel() {
    if (!cancel_set()) return false;
    std::cerr << "[stream] stop signal at arrival " << (base_ + processed_)
              << ": flushing segments"
              << (store_ ? " and writing a final snapshot generation" : "")
              << "; resume with --resume-snapshot\n";
    if (store_) {
      take_snapshot(base_ + processed_);
    } else {
      drain();
      if (writer_) writer_->commit(true);
    }
    result_.cancelled = true;
    return true;
  }

  /// Feeds everything the engine produced so far to the segment writer.
  /// Always a safe point for commit: callers invoke it only when every
  /// event with sort key <= now() has been processed.
  void drain() {
    if (!writer_) return;
    for (const sim::Segment& s : engine_->recorder().segments())
      writer_->on_burst(s, base_ + uidx(s.job));
    engine_->recorder().clear();
    const auto& sl = engine_->shed_log();
    for (; shed_consumed_ < sl.size(); ++shed_consumed_) {
      const sim::ShedRecord& r = sl[shed_consumed_];
      const std::uint64_t gj = base_ + uidx(r.job);
      if (r.kind == sim::ShedRecord::Kind::kShed)
        writer_->on_shed(r.t, gj);
      else if (r.kind == sim::ShedRecord::Kind::kReject)
        writer_->on_reject(r.t, gj);
      // kAdmit is deadline-policy bookkeeping, not part of the segment
      // format (the monolithic run log keeps it).
    }
    writer_->commit(false);
  }

  /// Writes one snapshot generation. Every section is appended into the
  /// runner's reused buffers, so once they are warm a snapshot allocates
  /// nothing of its own.
  void take_snapshot(std::uint64_t done) {
    drain();
    if (writer_) writer_->commit(true);
    std::string& hs = sections_[0].payload;
    hs.clear();
    const auto line = [&hs](const char* tag, auto... numbers) {
      hs += tag;
      ((hs += ' ', util::append_number(hs, numbers)), ...);
      hs += '\n';
    };
    line("streamsnap", 2);
    line("spec", spec_fp_);
    line("progress", done);
    line("window", base_, uidx(inst_.job_count()), processed_);
    line("wcursor", window_cursor_.index, window_cursor_.clock);
    line("gcursor", gen_cursor_.index, gen_cursor_.clock);
    hs += "policystate ";
    hs += policy_->stream_state();
    hs += '\n';
    line("shedconsumed", shed_consumed_);
    if (writer_)
      line("writer", writer_->next_index(), writer_->chain());
    else
      line("writer", 0, 0);
    sections_[1].payload.clear();
    engine_->save_state(sections_[1].payload);
    if (admission_) {
      sections_[2].payload.clear();
      admission_->save_state(sections_[2].payload);
    }
    envelope_.clear();
    encode_snapshot_envelope(sections_, envelope_);
    store_->write(done, envelope_);
    ++result_.snapshots_written;
    if (cfg_.die_after_snapshot > 0 &&
        result_.snapshots_written >= cfg_.die_after_snapshot)
      result_.interrupted = true;
  }

  /// One rung of the ladder: restores the full runner state from a decoded
  /// envelope. Throws SnapshotSpecMismatchError on a clean snapshot from a
  /// different run and std::invalid_argument on internal inconsistency. May
  /// leave the runner half-mutated on throw — the ladder either retries
  /// (which overwrites everything) or aborts the run.
  void restore_from_sections(const std::vector<SnapshotSection>& sections) {
    util::Fields f(find_snapshot_section(sections, "stream"));
    int version = 0;
    TS_REQUIRE((f.expect("streamsnap") >> version) && version == 2,
               "unsupported snapshot version (want streamsnap 2)");
    std::uint64_t fp = 0;
    TS_REQUIRE(f.expect("spec") >> fp, "truncated spec line");
    if (fp != spec_fp_)
      throw SnapshotSpecMismatchError(
          "snapshot was taken under a different run spec (tree, stream, "
          "policy, windowing, or shed config differ) — resume with the "
          "original flags or start fresh without --resume-snapshot");
    std::uint64_t done = 0;
    std::size_t count = 0;
    workload::StreamCursor gcur;
    std::string pstate;
    std::size_t widx = 0;
    std::uint64_t wchain = 0;
    f.expect("progress") >> done;
    f.expect("window") >> base_ >> count >> processed_;
    f.expect("wcursor") >> window_cursor_.index >> window_cursor_.clock;
    f.expect("gcursor") >> gcur.index >> gcur.clock;
    f.expect("policystate") >> pstate;
    f.expect("shedconsumed") >> shed_consumed_;
    f.expect("writer") >> widx >> wchain;
    TS_REQUIRE(f && f.done(), "truncated snapshot header");
    TS_REQUIRE(done == base_ + processed_,
               "snapshot progress disagrees with its window position");

    // Regenerate the window from its cursor — bit-identical to the original
    // generation by the per-index RNG-stream construction.
    gen_cursor_ = window_cursor_;
    refill_window(count, &find_snapshot_section(sections, "engine"), nullptr);
    TS_REQUIRE(gen_cursor_.index == gcur.index &&
                   gen_cursor_.clock == gcur.clock,
               "regenerated window does not land on the saved cursor");
    if (admission_)
      admission_->load_state(find_snapshot_section(sections, "overload"));
    policy_->restore_stream_state(pstate);
    // Cross-check the segmented run log: resume() verifies the manifest
    // chain prefix BEFORE rewriting anything, so a mismatch here (damaged
    // or foreign run log) is safe to retry against an older generation,
    // whose shorter chain prefix may still verify.
    if (writer_) writer_->resume(widx, wchain);
  }

  /// The self-healing resume ladder: walk the manifest newest-first,
  /// quarantine generations whose BYTES are damaged or whose record never
  /// landed, skip missing ones, fall back to the newest generation that
  /// verifies and restores. Typed
  /// outcomes: SnapshotMissingError (no manifest), SnapshotSpecMismatchError
  /// (clean snapshot, wrong run — no point walking further down, every rung
  /// carries the same spec), SnapshotUnrecoverableError (ladder exhausted).
  void load_snapshot() {
    SnapshotStore store(cfg_.resume_snapshot, cfg_.snapshot_keep);
    const std::vector<SnapshotGeneration> gens = store.generations();
    std::string notes;
    // A generation file without its record was never committed: set it
    // aside for the post-mortem (the resumed run rewrites the index one
    // past the newest record).
    for (const SnapshotGeneration& orphan : store.quarantine_uncommitted())
      notes += "; gen " + std::to_string(orphan.index) + ": uncommitted";
    for (std::size_t i = 0; i < gens.size(); ++i) {
      const SnapshotGeneration& gen = gens[i];
      const std::string label = "gen " + std::to_string(gen.index);
      const std::optional<std::string> bytes = store.read(gen);
      if (!bytes) {
        notes += "; " + label + ": file missing";
        continue;
      }
      bool decoded = false;
      try {
        TS_REQUIRE(util::fnv1a_64(*bytes) == gen.fingerprint,
                   "whole-file fingerprint disagrees with the manifest "
                   "(torn write or substituted file)");
        const std::vector<SnapshotSection> sections =
            decode_snapshot_envelope(*bytes);
        decoded = true;
        restore_from_sections(sections);
      } catch (const SnapshotSpecMismatchError&) {
        throw;
      } catch (const std::invalid_argument& e) {
        if (!decoded) {
          // Damaged bytes: quarantine the file (rename, never delete).
          store.quarantine(gen, e.what());
          notes += "; " + label + ": quarantined (" + e.what() + ")";
        } else {
          // The envelope verified but restoring against THIS run failed
          // (e.g. run-log chain mismatch) — the snapshot file itself is
          // fine, so fall back without quarantining it.
          notes += "; " + label + ": restore failed (" + e.what() + ")";
        }
        continue;
      }
      // Restored: a retired generation left behind is no longer a fallback.
      store.delete_retired();
      if (i > 0)
        std::cerr << "[stream] resume: newer snapshot generation(s) "
                     "unusable (" << notes.substr(2)
                  << "); resumed from " << label << " at progress "
                  << gen.progress << "\n";
      return;
    }
    throw SnapshotUnrecoverableError(
        "resume failed: all " + std::to_string(gens.size()) +
        " snapshot generation(s) at '" + cfg_.resume_snapshot +
        "' are unusable (" + (notes.empty() ? "empty manifest"
                                            : notes.substr(2)) +
        ") — corrupt files were renamed to *.quarantined; inspect " +
        store.quarantine_log_path() +
        ", then restart without --resume-snapshot or point it at a good "
        "copy");
  }

  void heartbeat(Time sim_now) {
    if (cfg_.progress_every <= 0.0) return;
    if (watch_.elapsed_seconds() - last_beat_ < cfg_.progress_every) return;
    last_beat_ = watch_.elapsed_seconds();
    std::cerr << "[stream] jobs " << (base_ + processed_) << '/'
              << cfg_.total_jobs << " simtime " << sim_now << " window "
              << inst_.job_count() << " rss "
              << util::current_rss_bytes() / (1024 * 1024) << "MB\n";
  }

  std::shared_ptr<const Tree> tree_;
  SpeedProfile speeds_;
  StreamRunnerConfig cfg_;
  workload::JobStream stream_;
  StreamFeed feed_;
  std::unique_ptr<sim::AssignmentPolicy> policy_;
  std::optional<overload::AdmissionController> admission_;
  std::optional<sim::SegmentedRunLogWriter> writer_;
  std::optional<SnapshotStore> store_;
  std::uint64_t spec_fp_ = 0;

  /// The window: one instance, refilled at rotations and grown in place.
  /// Declared before the engine, which is bound to it.
  Instance inst_;
  std::unique_ptr<sim::Engine> engine_;
  std::vector<Job> quantum_;  ///< the arrivals being appended, reused
  workload::StreamCursor gen_cursor_;     ///< next arrival to generate
  workload::StreamCursor window_cursor_;  ///< cursor at window start
  std::uint64_t base_ = 0;                ///< global id of window-local 0
  std::size_t processed_ = 0;             ///< window-local arrivals consumed
  std::size_t shed_consumed_ = 0;         ///< shed-log entries fed to writer

  /// Snapshot buffers, reused by every generation: the sections ("stream",
  /// "engine", and "overload" when shedding) and the envelope.
  std::vector<SnapshotSection> sections_;
  std::string envelope_;

  util::Stopwatch watch_;
  double last_beat_ = 0.0;
  StreamRunnerResult result_;

  // Supervision (guard/): all wall-clock readings flow through gclock_ and
  // reach only the guard sidecar log + status file — never a schedule,
  // metric, or run-log byte.
  guard::SteadyClock gclock_;
  std::optional<guard::Watchdog> watchdog_;
  std::optional<guard::Governor> governor_;
  std::optional<guard::GuardLogWriter> glog_;
  std::size_t window_quantum_ = 0;  ///< runtime quantum (governor may shrink)
  double last_status_ = -1.0;
  std::uint32_t ticks_ = 0;  ///< engine ticks since the last clock round
  bool stalled_ = false;  ///< test stall already performed
};

void StreamFeed::on_job_admitted(const sim::Engine& engine, JobId j) {
  runner_->on_admitted(engine, j);
}

void StreamFeed::on_job_completed(const sim::Engine& engine, JobId j) {
  runner_->on_done(engine, j);
}

void StreamFeed::on_event(const sim::Engine& engine, Time /*t*/) {
  runner_->on_tick(engine);
}

}  // namespace

StreamRunnerResult run_stream(std::shared_ptr<const Tree> tree,
                              const SpeedProfile& speeds,
                              const StreamRunnerConfig& cfg) {
  TS_REQUIRE(tree != nullptr, "run_stream needs a tree");
  StreamRunner runner(std::move(tree), speeds, cfg);
  return runner.run();
}

}  // namespace treesched::exec
