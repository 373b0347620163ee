// Bounded-memory online quantile estimation for streaming endurance runs.
//
// Two from-scratch sketches back `sim::Metrics`' streaming mode, where the
// per-job flow-time vector no longer exists:
//
//  * P2Quantile — the P² algorithm (Jain & Chlamtac, CACM 1985): five
//    markers track one fixed quantile with O(1) state. Exact below five
//    observations; afterwards the markers move by parabolic (falling back
//    to linear) interpolation. Cheap, but single-quantile and with no
//    distribution-free error bound — kept as an independent cross-check
//    against the mergeable digest.
//
//  * QuantileDigest — a mergeable t-digest-style centroid sketch with a
//    UNIFORM weight cap (the k0 scale function): at most ~2*max_centroids
//    (mean, weight) centroids, compressed by a deterministic sorted sweep
//    that never lets one centroid exceed ceil(count / max_centroids). The
//    sweep's input is the sorted buffer merged into the already-sorted
//    centroids, in storage the digest keeps, so a warm digest compresses
//    without allocating.
//    Quantile queries answer with the mean of the centroid covering the
//    target rank, so the documented contract is a RANK error bound, the
//    right notion for heavy-tailed flow times where value error is
//    unbounded:
//
//        |true_rank(quantile(q)) - q*n| <= n/max_centroids + buffered
//
//    i.e. at the default max_centroids = 256 the estimate's rank is within
//    ~0.4% of the requested one (tested in stats_sketch_test at the
//    conservative 2/max_centroids). Rank contiguity of merged centroids is
//    exact for sorted inserts and empirically tight for the interleaved
//    ones; the CI bound carries the factor-2 slack for that reason.
//
// Determinism contract: both sketches are pure functions of their insertion
// sequence (no randomness, no wall clock, stable sorts only), so streaming
// runs stay byte-reproducible across thread counts and kill/resume. Queries
// are const and never mutate sketch state — snapshots taken before and after
// a query are byte-identical.
//
// Merging: QuantileDigest::absorb_unordered(other) is the order-SENSITIVE
// primitive — absorbing A then B and B then A give different (both valid)
// centroid sets. Every call site outside src/treesched/stats/ must instead
// go through merge_deterministic(), which fixes the fold order to the
// caller's vector index order; treesched_lint's `det-sketch-merge` rule
// enforces this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "treesched/util/fields.hpp"

namespace treesched::stats {

/// P² fixed-marker estimator for one quantile q in (0, 1).
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  void add(double x);

  /// Current estimate; exact (order statistic at rank ceil(q*n)) below five
  /// observations, the P² middle-marker height afterwards. NaN when empty.
  double estimate() const;

  std::uint64_t count() const { return count_; }
  double q() const { return q_; }

  /// Text round-trip (full %.17g precision) for engine snapshots. save()
  /// appends the state and an FNV-1a-64 self-checksum line to `out`; load()
  /// re-serializes the parsed state and rejects (std::invalid_argument) any
  /// bytes that do not reproduce the checksum — truncated or bit-flipped
  /// state never loads.
  void save(std::string& out) const;
  void load(util::Fields& f);

 private:
  /// Appends the canonical serialized state (the checksummed bytes).
  void append_payload(std::string& out) const;

  double q_;
  std::uint64_t count_ = 0;
  double height_[5] = {0, 0, 0, 0, 0};   ///< marker heights q0..q4
  double pos_[5] = {1, 2, 3, 4, 5};      ///< actual marker positions n_i
  double desired_[5] = {0, 0, 0, 0, 0};  ///< desired positions n'_i
  double incr_[5] = {0, 0, 0, 0, 0};     ///< dn'_i per observation
};

/// Mergeable centroid digest with a uniform weight cap (see file comment).
class QuantileDigest {
 public:
  explicit QuantileDigest(std::size_t max_centroids = 256);

  void add(double x);

  /// Rank-bounded quantile estimate (NaN when empty; exact min/max at the
  /// endpoints). Const: builds a temporary merged view, mutates nothing.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  std::size_t max_centroids() const { return max_centroids_; }
  /// Compressed centroid count (excludes the unmerged buffer).
  std::size_t centroid_count() const { return centroids_.size(); }
  double min() const;
  double max() const;

  /// Folds `other` into this sketch. ORDER-SENSITIVE: the resulting
  /// centroid set depends on the absorb order, so calling this directly
  /// outside src/treesched/stats/ is rejected by treesched_lint's
  /// `det-sketch-merge` rule — route through merge_deterministic().
  void absorb_unordered(const QuantileDigest& other);

  /// Text round-trip (full %.17g precision) for engine snapshots; save()
  /// appends to `out`. Same self-checksum contract as P2Quantile: corrupt
  /// state is rejected with std::invalid_argument, never silently
  /// mis-loaded.
  void save(std::string& out) const;
  void load(util::Fields& f);

 private:
  struct Centroid {
    double mean = 0.0;
    double weight = 0.0;
  };

  void compress();
  /// Appends the canonical serialized state (the checksummed bytes).
  void append_payload(std::string& out) const;

  std::size_t max_centroids_;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<Centroid> centroids_;  ///< compressed, sorted by (mean, weight)
  std::vector<double> buffer_;       ///< raw values awaiting compression
  /// compress()'s sorted input, kept for its storage (empty between calls).
  std::vector<Centroid> merged_;
};

/// The deterministic-order merge helper: folds `parts` left to right by
/// vector index, so any caller that orders its shards canonically (task
/// index, chapter index, ...) gets a byte-reproducible merged sketch
/// regardless of which shard finished first. All parts must share
/// max_centroids. Returns an empty digest for an empty vector.
QuantileDigest merge_deterministic(const std::vector<QuantileDigest>& parts);

}  // namespace treesched::stats
