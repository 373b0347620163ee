// DispatchIndex differential test: random insert/update/erase traffic
// checked after every operation against a naive flat-vector model. Sums are
// compared with a relative tolerance (the treap reassociates additions);
// counts, membership, the minimum size and the largest key are exact, and
// the fused split_at query — answered from the rank table up to
// kRankTableCap entries, by the two descents themselves above it — is
// bit-equal to those descents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "treesched/sim/dispatch_index.hpp"
#include "treesched/util/rng.hpp"

namespace treesched::sim {
namespace {

struct Entry {
  SjfKey key;
  double rem = 0.0;
};

class NaiveIndex {
 public:
  void insert(const SjfKey& key, double rem) { entries_.push_back({key, rem}); }
  void update(const SjfKey& key, double rem) { find(key)->rem = rem; }
  void erase(const SjfKey& key) { entries_.erase(find(key)); }
  std::size_t size() const { return entries_.size(); }

  double remaining_before(const SjfKey& key) const {
    double sum = 0.0;
    for (const Entry& e : entries_)
      if (e.key < key) sum += e.rem;
    return sum;
  }
  int count_size_greater(double size) const {
    int n = 0;
    for (const Entry& e : entries_)
      if (e.key.size > size) ++n;
    return n;
  }
  double fraction_size_greater(double size) const {
    double sum = 0.0;
    for (const Entry& e : entries_)
      if (e.key.size > size) sum += e.rem / e.key.size;
    return sum;
  }
  double total_remaining() const {
    double sum = 0.0;
    for (const Entry& e : entries_) sum += e.rem;
    return sum;
  }
  double total_fraction() const {
    double sum = 0.0;
    for (const Entry& e : entries_) sum += e.rem / e.key.size;
    return sum;
  }
  double min_size() const {
    double m = std::numeric_limits<double>::infinity();
    for (const Entry& e : entries_) m = std::min(m, e.key.size);
    return m;
  }
  /// True iff split_at(cand) must finish two separate tails: some entry has
  /// the candidate's size and does not precede it.
  bool ties_with(const SjfKey& cand) const {
    for (const Entry& e : entries_)
      if (e.key.size == cand.size && !(e.key < cand)) return true;
    return false;
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry>::iterator find(const SjfKey& key) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [&](const Entry& e) { return e.key == key; });
  }

  std::vector<Entry> entries_;
};

void expect_near_rel(double fast, double naive) {
  const double tol = 1e-9 * std::max(1.0, std::fabs(naive));
  EXPECT_NEAR(fast, naive, tol);
}

/// Which split_at paths the probes reached, so the tests can require both
/// the tie tail and the smallest-candidate shortcut to have run.
struct SplitCoverage {
  int ties = 0;
  int below_min = 0;
  int under_cap = 0;  ///< probes of an index below the rank-table cap
  int at_cap = 0;     ///< ... holding exactly kRankTableCap entries
  int over_cap = 0;   ///< ... above it (the descent answers)
};

/// split_at must be == (not near) the two separate descents.
void check_split(const DispatchIndex& fast, const NaiveIndex& naive,
                 const SjfKey& probe, SplitCoverage& cov) {
  const DispatchIndex::Split s = fast.split_at(probe);
  EXPECT_EQ(s.remaining_before, fast.remaining_before(probe));
  EXPECT_EQ(s.size_greater, fast.count_size_greater(probe.size));
  if (naive.ties_with(probe)) ++cov.ties;
  if (probe.size < naive.min_size()) ++cov.below_min;
  const auto n = static_cast<int>(naive.size());
  if (n < DispatchIndex::kRankTableCap) ++cov.under_cap;
  if (n == DispatchIndex::kRankTableCap) ++cov.at_cap;
  if (n > DispatchIndex::kRankTableCap) ++cov.over_cap;
}

void check_queries(const DispatchIndex& fast, const NaiveIndex& naive,
                   util::Rng& rng, SplitCoverage& cov) {
  ASSERT_EQ(fast.size(), naive.size());
  EXPECT_EQ(fast.min_size(), naive.min_size());
  expect_near_rel(fast.total_remaining(), naive.total_remaining());
  expect_near_rel(fast.total_fraction(), naive.total_fraction());
  for (int q = 0; q < 4; ++q) {
    // Thresholds drawn from the same small grids the keys use, so queries
    // land exactly on stored sizes (the strict-inequality edge) as well as
    // between them.
    const double size = static_cast<double>(rng.uniform_int(0, 12)) / 2.0;
    EXPECT_EQ(fast.count_size_greater(size), naive.count_size_greater(size));
    expect_near_rel(fast.fraction_size_greater(size),
                    naive.fraction_size_greater(size));
    const SjfKey probe{size, static_cast<Time>(rng.uniform_int(0, 4)),
                       static_cast<JobId>(rng.uniform_int(0, 400))};
    expect_near_rel(fast.remaining_before(probe),
                    naive.remaining_before(probe));
    check_split(fast, naive, probe, cov);
  }
}

TEST(DispatchIndex, MatchesNaiveModelUnderRandomTraffic) {
  SplitCoverage cov;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    DispatchIndex fast;
    NaiveIndex naive;
    JobId next_job = 0;
    for (int op = 0; op < 800; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind < 5 || naive.size() == 0) {
        // Sizes from a small grid force heavy duplication in the size
        // dimension; the (release, job) components keep keys unique.
        const SjfKey key{static_cast<double>(rng.uniform_int(1, 6)),
                         static_cast<Time>(rng.uniform_int(0, 3)),
                         next_job++};
        const double rem = key.size * rng.uniform01();
        fast.insert(key, rem);
        naive.insert(key, rem);
      } else {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(naive.size()) - 1));
        const SjfKey key = naive.entries()[pick].key;
        if (kind < 8) {
          const double rem = key.size * rng.uniform01();
          fast.update(key, rem);
          naive.update(key, rem);
        } else {
          fast.erase(key);
          naive.erase(key);
        }
      }
      check_queries(fast, naive, rng, cov);
    }
    // Drain completely: erase-path coverage down to the empty tree.
    while (naive.size() > 0) {
      const SjfKey key = naive.entries().back().key;
      fast.erase(key);
      naive.erase(key);
      check_queries(fast, naive, rng, cov);
    }
    EXPECT_TRUE(fast.empty());
  }
  EXPECT_GT(cov.ties, 0);
  EXPECT_GT(cov.below_min, 0);
}

TEST(DispatchIndex, MinSizeAndSplitOnSharedPool) {
  // Three indices share one node pool, as the engine's per-node indices do.
  // Erasures prefer the current minimum, so the left-spine re-read runs
  // often, and every index is emptied and refilled along the way.
  constexpr int kIndices = 3;
  SplitCoverage cov;
  util::Rng rng(7);
  TreapPool pool;
  std::vector<DispatchIndex> fast(kIndices);
  for (DispatchIndex& d : fast) d.attach_pool(&pool);
  std::vector<NaiveIndex> naive(kIndices);
  JobId next_job = 0;
  for (int op = 0; op < 1500; ++op) {
    const std::size_t i = static_cast<std::size_t>(rng.uniform_int(0, 2));
    DispatchIndex& f = fast[i];
    NaiveIndex& n = naive[i];
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind < 4 || n.size() == 0) {
      const SjfKey key{static_cast<double>(rng.uniform_int(1, 6)),
                       static_cast<Time>(rng.uniform_int(0, 3)), next_job++};
      const double rem = key.size * rng.uniform01();
      f.insert(key, rem);
      n.insert(key, rem);
    } else if (kind < 7) {
      // Erase an entry of minimum size (the one the spine re-read replaces).
      const auto& es = n.entries();
      const auto it = std::min_element(
          es.begin(), es.end(),
          [](const Entry& a, const Entry& b) { return a.key.size < b.key.size; });
      const SjfKey key = it->key;
      f.erase(key);
      n.erase(key);
    } else if (kind < 8) {
      // Empty the index completely.
      while (n.size() > 0) {
        const SjfKey key = n.entries().front().key;
        f.erase(key);
        n.erase(key);
        EXPECT_EQ(f.min_size(), n.min_size());
      }
      EXPECT_TRUE(f.empty());
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n.size()) - 1));
      const SjfKey key = n.entries()[pick].key;
      f.erase(key);
      n.erase(key);
    }
    for (int k = 0; k < kIndices; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      ASSERT_EQ(fast[ku].size(), naive[ku].size());
      EXPECT_EQ(fast[ku].min_size(), naive[ku].min_size());
      const SjfKey probe{static_cast<double>(rng.uniform_int(0, 12)) / 2.0,
                         static_cast<Time>(rng.uniform_int(0, 4)),
                         static_cast<JobId>(rng.uniform_int(0, 400))};
      check_split(fast[ku], naive[ku], probe, cov);
    }
  }
  EXPECT_GT(cov.ties, 0);
  EXPECT_GT(cov.below_min, 0);
}

TEST(DispatchIndex, RankTableMatchesDescentAcrossTheCap) {
  // Four indices on one pool, each walking its size up past the rank-table
  // cap and back down to empty, with every mutation kind between queries.
  // Sizes are class-rounded ((3/2)^k) and releases integral, so equal-size
  // and equal-release ties are the rule; probes hit stored keys exactly,
  // their neighbours on the (release, job) tail, and the gaps between.
  constexpr int kIndices = 4;
  constexpr int kCap = DispatchIndex::kRankTableCap;
  const auto class_size = [](std::int64_t k) {
    return std::pow(1.5, static_cast<double>(k));
  };
  SplitCoverage cov;
  util::Rng rng(2017);
  TreapPool pool;
  std::vector<DispatchIndex> fast(kIndices);
  for (DispatchIndex& d : fast) d.attach_pool(&pool);
  std::vector<NaiveIndex> naive(kIndices);
  std::vector<bool> growing(kIndices, true);
  JobId next_job = 0;
  for (int op = 0; op < 6000; ++op) {
    const std::size_t i = static_cast<std::size_t>(rng.uniform_int(0, 3));
    DispatchIndex& f = fast[i];
    NaiveIndex& n = naive[i];
    const auto size = static_cast<int>(n.size());
    if (size >= kCap + 6) growing[i] = false;
    if (size == 0) growing[i] = true;
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (size == 0 || (growing[i] ? kind < 6 : kind < 2)) {
      const SjfKey key{class_size(rng.uniform_int(0, 5)),
                       static_cast<Time>(rng.uniform_int(0, 2)), next_job++};
      const double rem = key.size * rng.uniform01();
      f.insert(key, rem);
      n.insert(key, rem);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n.size()) - 1));
      const SjfKey key = n.entries()[pick].key;
      if (kind < 6) {
        const double rem = key.size * rng.uniform01();
        f.update(key, rem);
        n.update(key, rem);
      } else if (kind < 8) {
        f.erase(key);
        n.erase(key);
      } else {
        // erase_if_present, hitting and (with a fresh id) missing.
        EXPECT_FALSE(f.erase_if_present({key.size, key.release, next_job}));
        EXPECT_TRUE(f.erase_if_present(key));
        n.erase(key);
      }
    }
    for (int k = 0; k < kIndices; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      ASSERT_EQ(fast[ku].size(), naive[ku].size());
      std::vector<SjfKey> probes;
      probes.push_back({class_size(rng.uniform_int(-1, 6)),
                        static_cast<Time>(rng.uniform_int(0, 2)),
                        static_cast<JobId>(rng.uniform_int(0, next_job))});
      probes.push_back({class_size(rng.uniform_int(0, 5)) * 1.25, 1.0, 0});
      if (naive[ku].size() > 0) {
        const SjfKey member =
            naive[ku]
                .entries()[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(naive[ku].size()) - 1))]
                .key;
        probes.push_back(member);
        probes.push_back({member.size, member.release, member.job - 1});
        probes.push_back({member.size, member.release, member.job + 1});
        probes.push_back({member.size, member.release + 1.0, 0});
      }
      for (const SjfKey& probe : probes) {
        check_split(fast[ku], naive[ku], probe, cov);
        expect_near_rel(fast[ku].split_at(probe).remaining_before,
                        naive[ku].remaining_before(probe));
      }
    }
  }
  EXPECT_GT(cov.ties, 0);
  EXPECT_GT(cov.below_min, 0);
  EXPECT_GT(cov.under_cap, 0);
  EXPECT_GT(cov.at_cap, 0);
  EXPECT_GT(cov.over_cap, 0);
}

TEST(DispatchIndex, MaxKeyIsTheFirstDescendingKey) {
  // Random insert / update / erase / erase_if_present traffic on two indices
  // sharing a pool, with sizes and releases from tiny grids so the maximum
  // is often decided by the release or the job id. Ids are a permutation of
  // the insertion order, so a later insert may or may not outrank the
  // maximum. Erasures prefer the maximum (the right-spine re-read), and the
  // indices are emptied now and then: max_key() must reset to kNoKey.
  constexpr int kIndices = 2;
  util::Rng rng(4242);
  TreapPool pool;
  std::vector<DispatchIndex> fast(kIndices);
  for (DispatchIndex& d : fast) d.attach_pool(&pool);
  std::vector<NaiveIndex> naive(kIndices);
  int step = 0;
  int max_erased = 0;
  int emptied = 0;
  int tied_at_top = 0;  ///< steps whose maximum shares its size and release
  const auto first_descending = [](const DispatchIndex& d) {
    SjfKey first = DispatchIndex::kNoKey;
    const bool visited = d.find_descending([&](const SjfKey& key) {
      first = key;
      return true;
    });
    EXPECT_EQ(visited, !d.empty());
    return first;
  };
  for (int op = 0; op < 4000; ++op) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, 1));
    DispatchIndex& f = fast[i];
    NaiveIndex& n = naive[i];
    const std::int64_t kind = rng.uniform_int(0, 19);
    if (kind < 8 || n.size() == 0) {
      const SjfKey key{static_cast<double>(rng.uniform_int(1, 4)),
                       static_cast<Time>(rng.uniform_int(0, 1)),
                       static_cast<JobId>((step++ * 7919) % 10007)};
      const double rem = key.size * rng.uniform01();
      f.insert(key, rem);
      n.insert(key, rem);
    } else {
      const auto& es = n.entries();
      const SjfKey largest =
          std::max_element(es.begin(), es.end(),
                           [](const Entry& a, const Entry& b) {
                             return a.key < b.key;
                           })
              ->key;
      const SjfKey pick =
          es[static_cast<std::size_t>(rng.uniform_int(
                 0, static_cast<std::int64_t>(es.size()) - 1))]
              .key;
      if (kind < 11) {
        const double rem = pick.size * rng.uniform01();
        f.update(pick, rem);
        n.update(pick, rem);
      } else if (kind < 14) {
        f.erase(largest);
        n.erase(largest);
        ++max_erased;
      } else if (kind < 17) {
        EXPECT_FALSE(f.erase_if_present({largest.size, largest.release, -2}));
        EXPECT_TRUE(f.erase_if_present(kind == 16 ? largest : pick));
        n.erase(kind == 16 ? largest : pick);
      } else if (kind < 18) {
        while (n.size() > 0) {
          const SjfKey key = n.entries().back().key;
          f.erase(key);
          n.erase(key);
        }
        ++emptied;
      } else {
        f.erase(pick);
        n.erase(pick);
      }
    }
    for (int k = 0; k < kIndices; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      ASSERT_EQ(fast[ku].size(), naive[ku].size());
      const SjfKey top = fast[ku].max_key();
      EXPECT_EQ(top, first_descending(fast[ku]));
      if (fast[ku].empty()) {
        EXPECT_EQ(top, DispatchIndex::kNoKey);
        continue;
      }
      const auto& es = naive[ku].entries();
      EXPECT_EQ(top, std::max_element(es.begin(), es.end(),
                                      [](const Entry& a, const Entry& b) {
                                        return a.key < b.key;
                                      })
                         ->key);
      tied_at_top += static_cast<int>(
          std::count_if(es.begin(), es.end(), [&](const Entry& e) {
            return e.key.size == top.size && e.key.release == top.release;
          }) > 1);
    }
  }
  EXPECT_GT(max_erased, 0);
  EXPECT_GT(emptied, 0);
  EXPECT_GT(tied_at_top, 0);
}

TEST(DispatchIndex, DeterministicAcrossInsertionOrders) {
  // The treap shape depends only on the key set, so the same entries
  // inserted in different orders answer every query bit-identically.
  std::vector<Entry> entries;
  util::Rng rng(99);
  for (JobId j = 0; j < 64; ++j)
    entries.push_back({{static_cast<double>(rng.uniform_int(1, 5)),
                        static_cast<Time>(rng.uniform_int(0, 2)), j},
                       rng.uniform01() * 7.0});

  DispatchIndex forward;
  for (const Entry& e : entries) forward.insert(e.key, e.rem);
  DispatchIndex backward;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it)
    backward.insert(it->key, it->rem);

  for (double size = 0.0; size <= 6.0; size += 0.5) {
    EXPECT_EQ(forward.count_size_greater(size),
              backward.count_size_greater(size));
    EXPECT_EQ(forward.fraction_size_greater(size),
              backward.fraction_size_greater(size));
    EXPECT_EQ(forward.remaining_before({size, 1.0, 32}),
              backward.remaining_before({size, 1.0, 32}));
  }
  EXPECT_EQ(forward.total_remaining(), backward.total_remaining());
  EXPECT_EQ(forward.total_fraction(), backward.total_fraction());
}

}  // namespace
}  // namespace treesched::sim
