// Order-statistic index over a node's inflight jobs, keyed by the SJF
// priority triple (original size on the node, release time, job id).
//
// The engine maintains one DispatchIndex per node so the paper's aggregate
// queries (Engine::higher_priority_remaining, count_larger, priority_split,
// larger_residual_fraction, alpha_leaf) answer in O(log n) instead of
// rescanning Q_v. Keys are immutable for a given (job, node) — only the
// remaining-work value changes — so the structure is an augmented treap
// with subtree aggregates:
//   cnt       |subtree|
//   sum_rem   sum of remaining over the subtree
//   sum_frac  sum of remaining / size over the subtree
//
// Because the key's primary component IS the size, both "all entries with
// strictly higher SJF priority than a candidate key" and "all entries with
// size strictly greater than a threshold" are contiguous key ranges, and
// every query is a single root-to-leaf descent. The Lemma-4 term F needs
// both ranges for the same candidate; split_at answers both, without
// descending at all when the candidate is smaller than every entry (the
// index keeps its minimum size). The index also keeps the node of its
// largest key, the first key find_descending visits, which largest-first
// shedding reads in O(1) per root child.
//
// Small indices answer split_at from a flat RANK TABLE: the first
// split_at after a mutation on an index of at most kRankTableCap entries
// walks the treap once in order and records every key plus, for each rank
// r, the sum the priority descent returns for a candidate of rank r. The
// walk makes the descent's additions in the descent's order, so the table
// is bit-equal to it; queries then count ranks branch-free over contiguous
// memory (the descent's cost at these sizes is mispredicted branches, not
// memory). Larger indices make the two descents. insert / update / erase
// mark the table stale. Tables are derived
// state and never serialized; their storage comes from the shared TreapPool.
//
// Because a const query may build the table (and write the pool's table
// storage), an index and every index sharing its pool belong to one thread
// at a time, as the engine that owns them does.
//
// Treap priorities are a deterministic hash of the job id, so the tree
// shape — and therefore the floating-point association of the aggregate
// sums — depends only on the set of inserted jobs, never on wall-clock
// randomness. Identical runs produce identical query results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "treesched/core/types.hpp"

namespace treesched::sim {

/// SJF ordering triple of the paper's aggregate queries; smaller = higher
/// priority. Matches the comparison in the naive Q_v scans exactly.
struct SjfKey {
  double size = 0.0;
  Time release = 0.0;
  JobId job = kInvalidJob;

  friend bool operator<(const SjfKey& x, const SjfKey& y) {
    if (x.size != y.size) return x.size < y.size;
    if (x.release != y.release) return x.release < y.release;
    return x.job < y.job;
  }
  friend bool operator==(const SjfKey& x, const SjfKey& y) {
    return x.size == y.size && x.release == y.release && x.job == y.job;
  }
};

/// Shared backing store for dispatch-index treap nodes and rank tables. The
/// engine owns ONE pool and attaches it to every per-node index, so the
/// whole engine's treap nodes live in a single contiguous allocation (with
/// one shared free list) instead of one vector per node. Refs handed out to
/// different indices intermix freely — an index only ever follows refs
/// reachable from its own root. Treap shapes, and hence float associations,
/// are untouched: the pool changes where nodes live, never how trees are
/// built.
class TreapPool {
 public:
  using Ref = std::int32_t;
  static constexpr Ref kNil = -1;

  /// Largest index that answers split_at from a rank table (measured: up
  /// to 48 entries the branch-free count beats the descent's
  /// mispredictions; the wide-tree root-child queues hold 7.5 on average).
  static constexpr int kRankTableCap = 32;
  static_assert(kRankTableCap % 4 == 0, "the table count runs in blocks of 4");

  /// Flat in-order image of one small index: the keys by rank (structure
  /// of arrays, so the counts run over contiguous doubles) and before[r],
  /// the descent's remaining_before for a candidate of rank r.
  ///
  /// size[] is padded with +infinity from row n up to the next multiple of
  /// 4, so the count runs over whole blocks of four.
  struct RankTable {
    double size[kRankTableCap];
    double release[kRankTableCap];
    JobId job[kRankTableCap];
    double before[kRankTableCap + 1];
  };

  struct Node {
    SjfKey key;
    double rem = 0.0;
    double frac = 0.0;      ///< rem / key.size, precomputed at update time
    double sum_rem = 0.0;   ///< subtree aggregate of rem
    double sum_frac = 0.0;  ///< subtree aggregate of frac
    std::int32_t cnt = 0;   ///< subtree size
    Ref left = kNil;
    Ref right = kNil;
    std::uint32_t prio = 0;
  };

  Node& node(Ref t) { return nodes_[uidx(t)]; }
  const Node& node(Ref t) const { return nodes_[uidx(t)]; }

  /// Hands out a node (recycled or fresh); the caller initializes it.
  Ref alloc() {
    if (!free_list_.empty()) {
      const Ref t = free_list_.back();
      free_list_.pop_back();
      return t;
    }
    const Ref t = static_cast<Ref>(nodes_.size());
    nodes_.emplace_back();
    return t;
  }
  void free(Ref t) { free_list_.push_back(t); }

  /// Reserves room for n rank tables, so the first n handed out allocate
  /// nothing (the engine reserves one per root child, the indices its
  /// Lemma-4 sweep queries).
  void reserve_tables(std::size_t n) { tables_.reserve(n); }

  /// Hands out a rank table for an index to keep; the index fills it.
  Ref alloc_table() {
    tables_.emplace_back();
    return static_cast<Ref>(tables_.size() - 1);
  }
  RankTable& table(Ref t) { return tables_[uidx(t)]; }

 private:
  std::vector<Node> nodes_;
  std::vector<Ref> free_list_;
  std::vector<RankTable> tables_;  ///< one per index that ever built one
};

class DispatchIndex {
 public:
  /// Points this index at a shared node pool (the engine attaches its
  /// per-engine pool to every node's index at construction). Must be called
  /// while the index is empty. Without an attached pool the index lazily
  /// creates a private one on first insert, so standalone use (tests,
  /// tools) needs no setup.
  void attach_pool(TreapPool* pool);

  /// Inserts a new entry. The key must not be present. O(log n).
  void insert(const SjfKey& key, double remaining);

  /// Replaces the remaining value of an existing entry. O(log n).
  void update(const SjfKey& key, double remaining);

  /// Removes an existing entry. O(log n).
  void erase(const SjfKey& key);

  /// Removes the entry if present; returns whether it was. O(log n).
  bool erase_if_present(const SjfKey& key);

  std::size_t size() const {
    return root_ == kNil ? 0 : uidx(pool_->node(root_).cnt);
  }
  bool empty() const { return root_ == kNil; }

  /// Sum of remaining over entries with key strictly less than `key`
  /// (strictly higher SJF priority). The key itself, if present, is
  /// excluded. O(log n).
  double remaining_before(const SjfKey& key) const;

  /// Number of entries with size strictly greater than `size`. O(log n).
  int count_size_greater(double size) const;

  /// Both aggregates of the Lemma-4 term F for one candidate.
  struct Split {
    double remaining_before = 0.0;  ///< == remaining_before(cand)
    int size_greater = 0;           ///< == count_size_greater(cand.size)
  };

  /// remaining_before(cand) and count_size_greater(cand.size), bit-equal to
  /// the two separate calls. O(1) when cand.size < min_size(); from the
  /// rank table (built here if stale, its sums made by the descent's
  /// additions in the descent's order) when size() <= kRankTableCap;
  /// otherwise the two O(log n) descents themselves. Inline: the shortcut
  /// and the table count are the Lemma-4 sweep's whole per-root-child cost
  /// on a fresh table.
  Split split_at(const SjfKey& cand) const {
    const int entries = static_cast<int>(size());
    // Every entry is larger than the candidate: nothing precedes it, all of
    // them count. (Also the empty index: min_size_ is +infinity, size() 0.)
    if (cand.size < min_size_) return {0.0, entries};
    if (entries > kRankTableCap)
      return {remaining_before(cand), count_size_greater(cand.size)};
    if (!table_fresh_) build_table();
    return split_in_table(pool_->table(table_), cand, entries);
  }

  static constexpr int kRankTableCap = TreapPool::kRankTableCap;

  /// Smallest key size present; +infinity when empty. O(1).
  double min_size() const { return min_size_; }

  /// Largest key present, the first key find_descending visits; when empty,
  /// kNoKey, which every key outranks. O(1).
  SjfKey max_key() const {
    return max_ == kNil ? kNoKey : pool_->node(max_).key;
  }
  static constexpr SjfKey kNoKey{-std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 kInvalidJob};

  /// Sum of remaining / size over entries with size strictly greater than
  /// `size`. O(log n).
  double fraction_size_greater(double size) const;

  /// Sum of remaining over all entries. O(1).
  double total_remaining() const {
    return root_ == kNil ? 0.0 : pool_->node(root_).sum_rem;
  }

  /// Sum of remaining / size over all entries. O(1).
  double total_fraction() const {
    return root_ == kNil ? 0.0 : pool_->node(root_).sum_frac;
  }

  /// Calls visit(key) from the largest key down until it returns true;
  /// returns whether some call did. Allocation-free (the recursion depth is
  /// the treap height).
  template <class Visit>
  bool find_descending(Visit&& visit) const {
    return find_descending_from(root_, visit);
  }

 private:
  using Ref = TreapPool::Ref;
  using Node = TreapPool::Node;
  static constexpr Ref kNil = TreapPool::kNil;

  TreapPool& pool();

  Ref alloc(const SjfKey& key, double remaining);
  void pull(Ref t);
  void split(Ref t, const SjfKey& key, Ref& left, Ref& right);
  Ref merge(Ref left, Ref right);
  /// Unlinks the entry with `key` from the subtree at t; `gone` receives
  /// the unlinked node (kNil when absent), which the caller frees.
  Ref erase_rec(Ref t, const SjfKey& key, Ref& gone);
  bool update_rec(Ref t, const SjfKey& key, double remaining);
  /// Fills this index's rank table from the treap (allocating the table on
  /// first use) and marks it fresh.
  void build_table() const;
  /// split_at of an n-entry index over its fresh rank table.
  static Split split_in_table(const TreapPool::RankTable& tab,
                              const SjfKey& cand, int n) {
    // Both counts over the sorted sizes, without a data-dependent branch;
    // the +infinity padding counts for neither (and a +infinity candidate
    // is clamped back to n). Then the entries of the candidate's own size
    // that precede it on the rest of the key (a run that is empty unless
    // sizes tie).
    int below = 0;
    int at_most = 0;
    for (int b = 0; b < n; b += 4) {
      for (int i = b; i < b + 4; ++i) {
        const double s = tab.size[uidx(i)];
        below += static_cast<int>(s < cand.size);
        at_most += static_cast<int>(s <= cand.size);
      }
    }
    at_most = std::min(at_most, n);
    int rank = below;
    for (int i = below; i < at_most; ++i) {
      const auto r = uidx(i);
      const bool precedes =
          (tab.release[r] < cand.release) |
          ((tab.release[r] == cand.release) & (tab.job[r] < cand.job));
      rank += static_cast<int>(precedes);
    }
    return {tab.before[uidx(rank)], n - at_most};
  }
  /// In-order fill of the subtree at t, entered with the descent's running
  /// sum acc; `rank` is the next free row.
  void fill_table(Ref t, double acc, TreapPool::RankTable& tab,
                  int& rank) const;

  template <class Visit>
  bool find_descending_from(Ref t, Visit& visit) const {
    for (; t != kNil; t = pool_->node(t).left) {
      if (find_descending_from(pool_->node(t).right, visit)) return true;
      if (visit(pool_->node(t).key)) return true;
    }
    return false;
  }

  // The fields the engine's root-cut queries read come first.
  TreapPool* pool_ = nullptr;
  Ref root_ = kNil;
  mutable Ref table_ = kNil;         ///< this index's rank table, once built
  double min_size_ = std::numeric_limits<double>::infinity();
  Ref max_ = kNil;                   ///< the node holding the largest key
  mutable bool table_fresh_ = false;  ///< table_ matches the treap
  std::unique_ptr<TreapPool> owned_;  ///< lazy fallback for standalone use
};

}  // namespace treesched::sim
