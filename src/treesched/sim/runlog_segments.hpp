// Segmented, rotating run logs for streaming endurance runs
// (treesched-runlog-seg-v1).
//
// A monolithic run log holds every burst of the whole run in one file —
// useless for 10^8-job streams. The segmented format splits the event
// stream into size-bounded segment files, each independently fingerprinted
// (FNV-1a 64 over the file bytes) and chained into a manifest, so
// treesched_audit can verify the run segment-by-segment in O(segment)
// memory and any post-hoc tampering (edit, drop, reorder) breaks the chain.
//
// Manifest (`base` path; line-oriented, full double precision):
//   runlogseg 1
//   policy <sjf|fifo|srpt|lcfs|hdf>
//   chunk <router_chunk_size>            (streaming mode always writes 0)
//   speeds <node_count> <s_0> ...
//   shedcfg <policy> <cap> <slack>       (only when shedding is enabled)
//   node <id> <parent|-1> <r|i|m>        (embedded topology, one per node)
//   segment <idx> <payload_lines> <fp> <chain>
//   ...
//   final <arrivals> <completed> <shed> <rejected> <total_flow> <makespan>
//
// Segment file (segment_log_path(base, idx)):
//   runlogseg-part 1 <idx>
//   jobrec <job> <release> <weight> <size> <leaf>
//   seg <node> <job> <chunk> <t0> <t1> <rate>
//   done <job> <t>
//   shed <t> <job>
//   reject <t> <job>
//   end <idx> <payload_lines>
//
// Lines are formatted by util::append_number into one reused buffer: doubles
// in [1e-4, 2^53) (the run's times, sizes, speeds and weights) through its
// exact integer path, everything else through std::to_chars. Either way the
// bytes are those of an ostream at setprecision(17), which tests pin.
//
// Canonical payload order: sort by (time key, kind rank), equal pairs in feed
// order, where the time key is the instant the event became final (jobrec:
// release; seg: t1, its recording instant; done/shed/reject: t) and the rank
// orders same-instant events jobrec < seg < done < shed/reject. Both
// components are monotone over the writer's feed, so the order — and
// therefore every segment byte and fingerprint — is independent of when the
// driver drained the engine's recorder, which is what makes the kill/resume
// differential byte-comparable. commit() reaches this order without a full
// sort: one rank's lines arrive in key order, so it splits the pending lines
// by rank and merges the ranks (sorting a rank only if it is out of order).
//
// Chain rule: chain_i = fnv1a(decimal(chain_{i-1}) + ":" + decimal(fp_i)),
// chain_{-1} = the FNV offset basis. Segment files are written atomically;
// each manifest entry and the final trailer is one fsynced
// util::append_line_durable record (failpoint site "manifest.append"), so a
// crash can tear at most the final line. Readers go through util::read_log,
// which drops torn records (util/fs.hpp). The audit and resume parse the
// manifest with one grammar; any other malformed line, blank and '#' lines
// included, is corruption for both, and so is one in a segment file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "treesched/core/tree.hpp"
#include "treesched/overload/config.hpp"
#include "treesched/sim/priority.hpp"
#include "treesched/sim/recorder.hpp"

namespace treesched::sim {

/// Streaming writer. Feed events in engine order (global job ids — window
/// bases already applied by the driver); call commit() at safe points
/// (after a full recorder drain) to close segments; finish with
/// write_final(). All file writes go through util/fs (atomic replace or
/// durable append) as documented above.
class SegmentedRunLogWriter {
 public:
  struct Config {
    std::string base_path;        ///< manifest path; segments derive from it
    std::size_t segment_cap = 4096;  ///< payload lines that trigger closing
  };

  /// Captures the run parameters; does NOT touch the filesystem. Call
  /// exactly one of start_fresh() / resume() before feeding any event.
  SegmentedRunLogWriter(Config cfg, const Tree& tree,
                        const std::vector<double>& speeds, NodePolicy policy,
                        double router_chunk_size,
                        const overload::ShedConfig& shed);

  /// Fresh start: writes a new manifest header (atomically, truncating any
  /// previous manifest at the path).
  void start_fresh();

  /// Resume after a kill: rewrites the existing manifest atomically keeping
  /// only the header and segment entries [0, next_index) — stale entries and
  /// torn records from the killed run disappear — and restores the
  /// fingerprint chain position (verified against the kept entries). A
  /// malformed record among the kept ones throws std::invalid_argument.
  /// Header parameters must match the original run.
  void resume(std::size_t next_index, std::uint64_t chain);

  // Event feed (times must be monotone in the sort key, which engine order
  // guarantees).
  void on_admit(std::uint64_t job, double release, double weight, double size,
                NodeId leaf);
  void on_burst(const Segment& s, std::uint64_t job);
  void on_done(std::uint64_t job, double t);
  void on_shed(double t, std::uint64_t job);
  void on_reject(double t, std::uint64_t job);

  /// Closes one segment holding everything pending if the cap is reached
  /// (or unconditionally with force, unless nothing is pending). Only call
  /// at safe points: every event with sort key <= now must already be fed,
  /// or segment contents would depend on drain timing.
  void commit(bool force);

  /// Flushes the tail segment and appends the final trailer.
  void write_final(std::uint64_t arrivals, std::uint64_t completed,
                   std::uint64_t shed, std::uint64_t rejected,
                   double total_flow, double makespan);

  std::size_t next_index() const { return next_index_; }
  std::uint64_t chain() const { return chain_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  /// One payload line awaiting its segment: the sort key and the line's
  /// slice [offset, offset + length) of lines_.
  struct Pending {
    double key = 0.0;
    int rank = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
  };

  /// Formats "<tag> <field> <field> ..." onto lines_ (numbers as
  /// util::append_number writes them) and queues it under (key, rank).
  template <class... Fields>
  void push(double key, int rank, const char* tag, Fields... fields);
  /// Puts pending_ in (key, rank, offset) order for the segment file.
  void order_pending();
  std::string header_text() const;

  Config cfg_;
  std::vector<double> speeds_;
  std::vector<NodeId> parents_;
  std::vector<char> kinds_;
  NodePolicy policy_;
  double chunk_;
  overload::ShedConfig shed_;
  std::vector<Pending> pending_;
  /// Line kinds, by canonical rank (jobrec, seg, done, shed/reject).
  static constexpr std::size_t kRankCount = 4;
  std::vector<Pending> buckets_[kRankCount];  ///< pending_ by rank, reused
  std::string lines_;    ///< pending payload lines, back to back
  std::string content_;  ///< segment file image, reused across commits
  std::string entry_;    ///< manifest entry, reused across commits
  std::string seg_path_;  ///< segment file name, reused across commits
  std::size_t next_index_ = 0;
  std::uint64_t chain_;
  bool started_ = false;
  bool finalized_ = false;
};

/// One violation found by the segment audit.
struct SegmentAuditViolation {
  std::size_t segment = 0;  ///< segment index (or last one for manifest-level)
  std::string message;
};

struct SegmentAuditResult {
  bool ok = false;
  std::vector<SegmentAuditViolation> violations;
  std::size_t segments = 0;
  std::uint64_t payload_lines = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  /// The FIRST segment whose file integrity broke (missing, fingerprint
  /// mismatch, chain mismatch) — treesched_audit names it and suggests
  /// quarantining the exact file.
  bool has_first_bad = false;
  std::size_t first_bad_segment = 0;
  std::string first_bad_path;
};

struct SegmentAuditOptions {
  /// Relative comparison tolerance. Must be finite and >= 0.
  double tol = 1e-6;
  /// Cap on reported violations (the state machine keeps going regardless).
  std::size_t max_violations = 32;
};

/// Incremental verification of a finished segmented log: fingerprint chain,
/// canonical-order monotonicity, per-node unit capacity and rate==speed,
/// per-job store-and-forward precedence (work on hop i+1 only after hop i
/// delivered the full requirement), retirement discipline (nothing runs
/// after done/shed; rejected jobs never run), and the final trailer's
/// counters and flow sum (recomputed compensated, in completion order —
/// bit-equal by the determinism contract). Memory is O(nodes + live jobs +
/// one segment); segments stream through one at a time. Throws
/// std::invalid_argument for a tol that is negative, NaN or infinite.
SegmentAuditResult audit_segments(const std::string& manifest_path,
                                  const SegmentAuditOptions& opts = {});

}  // namespace treesched::sim
