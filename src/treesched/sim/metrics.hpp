// Per-job and aggregate result accounting for a simulation run.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "treesched/core/types.hpp"
#include "treesched/stats/quantile_sketch.hpp"
#include "treesched/util/csum.hpp"
#include "treesched/util/fields.hpp"

namespace treesched::sim {

/// Everything recorded about one job over a run.
struct JobRecord {
  JobId id = kInvalidJob;
  Time release = 0.0;
  double weight = 1.0;
  double size = 0.0;                     ///< p_j (recorded for shed accounting)
  NodeId leaf = kInvalidNode;            ///< assigned machine
  Time completion = -1.0;                ///< leaf completion; -1 if unfinished
  double fractional_area = 0.0;          ///< the paper's fractional flow contribution
  bool shed = false;                     ///< evicted by the admission controller
  bool rejected = false;                 ///< refused at arrival (never admitted)
  /// Span [stamp_off, stamp_off + stamp_len) of the owning Metrics' stamp
  /// arena: completion per path index (first hop..leaf), read through
  /// Metrics::node_completion. Length 0 until the job is admitted.
  std::uint32_t stamp_off = 0;
  std::uint32_t stamp_len = 0;
  bool finalized = false;                ///< streaming mode: folded into the accumulator

  bool completed() const { return completion >= 0.0; }
  Time flow() const { return completed() ? completion - release : -1.0; }
  /// Admitted = the job entered the system (completed or shed, not rejected).
  bool admitted() const { return leaf != kInvalidNode; }
  /// Touched = the engine wrote this record (the job was admitted or
  /// rejected); untouched records are still in their reset state.
  bool touched() const { return admitted() || rejected; }
};

/// How Metrics stores results. kFull keeps every JobRecord queryable forever
/// (the historical behavior); kStreaming folds each record into a
/// bounded-memory accumulator the moment the job retires (completes, is
/// shed, or is rejected), so an endurance run's memory never grows with the
/// number of retired jobs — only with the live window.
enum class MetricsMode { kFull, kStreaming };

/// Bounded-memory aggregate over all retired (finalized) jobs. Everything a
/// streaming run reports comes from here plus the still-live window records;
/// flow percentiles come from the quantile sketches (see
/// stats/quantile_sketch.hpp for the documented rank-error bound).
struct StreamAccumulator {
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t admitted = 0;  ///< finalized admitted (completed + shed)
  util::CompensatedSum flow;
  util::CompensatedSum weighted_flow;
  util::CompensatedSum frac;
  util::CompensatedSum weighted_frac;
  util::CompensatedSum shed_volume;
  double max_flow = 0.0;
  double makespan = 0.0;
  stats::QuantileDigest flow_digest;   ///< all completed flows (percentiles)
  stats::P2Quantile p99_marker{0.99};  ///< independent p99 cross-check

  /// Folds one retired job in. Call order defines the sketch insertion
  /// sequence, so callers must fold in a deterministic order (the engine
  /// folds in completion order, which is deterministic by construction).
  void fold(const JobRecord& r);

  /// Text round-trip (full %.17g precision) for engine snapshots; save()
  /// appends to `out`. Carries an FNV-1a-64 self-checksum (as do the
  /// embedded sketches): load() rejects truncated or bit-flipped state with
  /// std::invalid_argument instead of silently mis-loading.
  void save(std::string& out) const;
  void load(util::Fields& f);
};

/// Aggregates over a run. Populated by the Engine; query helpers compute the
/// objectives studied in the paper (total / fractional flow) plus the
/// extension objectives (max flow, l_k norms).
class Metrics {
 public:
  /// Clears all records. Preserves the mode but NOT the accumulator — a
  /// streaming caller that rotates windows must re-arm via enable_streaming
  /// with the carried accumulator after the owning engine resets.
  void reset(std::size_t job_count);

  /// Appends fresh records up to `job_count` (window extension); existing
  /// records, the mode and the accumulator are untouched.
  void extend(std::size_t job_count);

  JobRecord& job(JobId j) { return jobs_[uidx(j)]; }
  const JobRecord& job(JobId j) const { return jobs_[uidx(j)]; }
  /// In streaming mode this is only the current window, not history.
  const std::vector<JobRecord>& jobs() const { return jobs_; }

  /// Completion time of job j per path index (first hop..leaf; -1 while
  /// unfinished there): a view into the stamp arena, empty until j is
  /// admitted. Invalidated by the next open_node_completion, reset or load.
  std::span<Time> node_completion(JobId j) {
    const JobRecord& r = jobs_[uidx(j)];
    return {stamps_.data() + r.stamp_off, r.stamp_len};
  }
  std::span<const Time> node_completion(JobId j) const {
    const JobRecord& r = jobs_[uidx(j)];
    return {stamps_.data() + r.stamp_off, r.stamp_len};
  }

  /// Gives job j `len` node-completion stamps: the first `keep` current
  /// stamps carry over, the rest read -1. A span that has to grow moves to
  /// a fresh arena span (the old one stays as dead space, like the engine's
  /// alloc_span), so the arena grows with the sum of path lengths and no
  /// job allocates a block of its own.
  void open_node_completion(JobId j, std::size_t len, std::size_t keep = 0);
  /// Capacity hint for the stamp arena, in stamps (one per path entry, like
  /// EngineConfig::arena_reserve). Observable behavior does not change.
  void reserve_stamps(std::size_t n) { stamps_.reserve(n); }

  // --- streaming mode ------------------------------------------------------

  MetricsMode mode() const { return mode_; }

  /// Switches to streaming mode, seeding the accumulator with `acc` (the
  /// carry-over from previous windows; default empty). Must be called before
  /// any job in the current window retires.
  void enable_streaming(StreamAccumulator acc = StreamAccumulator());

  /// Streaming mode: folds job j's record into the accumulator and marks it
  /// finalized (idempotent). No-op in full mode. The engine calls this at
  /// every retirement point (completion, shed, reject), so fold order equals
  /// retirement order — deterministic.
  void finalize_job(JobId j);

  const StreamAccumulator& stream_accumulator() const { return acc_; }

  /// Text round-trip of mode + accumulator + the touched, unfinalized window
  /// records (each with its id), for engine snapshots. Finalized records are
  /// already folded into the accumulator and are not written; load() leaves
  /// every record it does not name in its reset state. load() requires
  /// reset() with at least the serialized window size first (extra records
  /// stay fresh — window extension). save() appends to `out`.
  void save(std::string& out) const;
  void load(util::Fields& f);

  /// In streaming mode: scoped to the current window (history is retired).
  bool all_completed() const;
  /// audit: work-conservation (every completion re-derived from the burst
  /// log; a claimed completion with missing machine work is a violation).
  std::size_t completed_count() const;

  // --- overload accounting -------------------------------------------------
  // Contract for every completed-job average below (mean_flow_time,
  // mean_flow_time_admitted, flow_percentile, goodput): when the relevant
  // denominator is zero the result is quiet NaN, never a division by zero or
  // a fake 0.0 — JSON emitters serialize it as null.

  /// Jobs evicted mid-run by the admission controller.
  /// audit: admission-control (a shed job must never progress or complete
  /// after its recorded eviction).
  std::size_t shed_count() const;
  /// Jobs refused at arrival (never admitted).
  /// audit: admission-control (a rejected job must never run at all).
  std::size_t rejected_count() const;
  /// Jobs that entered the system (completed or later shed).
  /// audit: admission-control (admission epochs reconstructed per job).
  std::size_t admitted_count() const;
  /// Total p_j over shed + rejected jobs: the volume deliberately dropped.
  /// audit: admission-control (sums instance sizes over audited shed flags).
  double shed_volume() const;
  /// Completed jobs per unit time over the run (completed_count / makespan):
  /// the honest throughput of a degraded run. NaN if nothing completed.
  /// audit: none(derived ratio of completed_count and makespan, both audited).
  double goodput() const;

  /// Sum of (C_j - r_j) over completed jobs. The paper's primary objective.
  /// audit: work-conservation (completions re-derived from segment work;
  /// treesched_audit recomputes the sum from the log alone).
  double total_flow_time() const;

  /// Mean flow time over completed jobs; NaN when no job completed.
  /// audit: none(total_flow_time / completed_count, both audited).
  double mean_flow_time() const;

  /// Completed flow normalized by ADMITTED jobs (completed + shed): unlike
  /// mean_flow_time this cannot be gamed by shedding slow jobs, because the
  /// shed ones stay in the denominator. NaN when nothing was admitted.
  /// audit: none(total_flow_time / admitted_count, both audited).
  double mean_flow_time_admitted() const;

  /// q-quantile of completed flow times (q in [0,1]; 0.99 = p99). Full mode:
  /// exact rank ceil(q*n) over the sorted flows. Streaming mode: the digest
  /// estimate, whose rank is within n/max_centroids (+ buffered tail) of the
  /// request — see stats/quantile_sketch.hpp. NaN when no job completed.
  /// audit: none(order statistic / sketch of audited per-job flows).
  double flow_percentile(double q) const;

  /// The paper's fractional flow time variant (Section 2).
  /// audit: work-conservation (the area integrand is remaining work, whose
  /// trajectory the audit reconstructs per segment).
  double total_fractional_flow_time() const;

  /// Weighted extensions (beyond the paper, which has unit weights).
  /// audit: work-conservation (weights come from the instance; the flow
  /// factors are the audited per-job quantities).
  double total_weighted_flow_time() const;
  /// audit: work-conservation (same factorization as above).
  double total_weighted_fractional_flow_time() const;

  /// Maximum flow time (the open-question objective in the conclusion).
  /// audit: none(max over audited per-job flows).
  double max_flow_time() const;

  /// l_k norm of flow times: (sum flow^k)^(1/k); k >= 1. Full mode only —
  /// streaming keeps no per-job flows and the sketches don't support moments.
  /// audit: none(monotone transform of audited per-job flows).
  double lk_norm_flow_time(double k) const;

  /// Makespan: latest completion time.
  /// audit: capacity (no segment may end after the claimed makespan; the
  /// audit's reconstructed timeline bounds it from below).
  double makespan() const;

 private:
  std::vector<JobRecord> jobs_;
  std::vector<Time> stamps_;  ///< node-completion arena (see JobRecord)
  MetricsMode mode_ = MetricsMode::kFull;
  StreamAccumulator acc_;  ///< meaningful only in streaming mode
};

}  // namespace treesched::sim
