// Online quantile sketches (stats/quantile_sketch.hpp): exactness below
// the marker count, the digest's documented rank-error bound, merge
// determinism, query purity, and snapshot round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "treesched/stats/quantile_sketch.hpp"
#include "treesched/util/rng.hpp"
#include "treesched/util/string_util.hpp"

using treesched::stats::merge_deterministic;
using treesched::stats::P2Quantile;
using treesched::stats::QuantileDigest;

namespace {

/// Number of sample values strictly below x (the rank the sketches are
/// judged against; ties count as "not below" so the bound is conservative
/// on both sides via the [below, below+ties] window).
std::pair<double, double> rank_window(std::vector<double> sorted, double x) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), x);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), x);
  return {static_cast<double>(lo - sorted.begin()),
          static_cast<double>(hi - sorted.begin())};
}

/// |true_rank(estimate) - q*n| <= slack*n, with ties resolved in the
/// estimate's favor.
void expect_rank_within(const std::vector<double>& data, double x, double q,
                        double slack) {
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const auto [lo, hi] = rank_window(sorted, x);
  const double target = q * static_cast<double>(data.size());
  const double err = target < lo ? lo - target : (target > hi ? target - hi
                                                              : 0.0);
  EXPECT_LE(err, slack * static_cast<double>(data.size()))
      << "q=" << q << " estimate=" << x;
}

std::vector<double> pareto_sample(std::size_t n, std::uint64_t seed) {
  treesched::util::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Heavy-tailed, the regime the digest's rank (not value) bound targets.
    const double u = rng.uniform01();
    out.push_back(1.0 / std::pow(1.0 - 0.999 * u, 0.75));
  }
  return out;
}

std::string digest_bytes(const QuantileDigest& d) {
  std::string out;
  d.save(out);
  return out;
}

/// The compression the digest specifies, written the plain way: a stable
/// sort of (centroids, then the buffered points) by (mean, weight), then the
/// capped sweep. Returns the "c"/"b" lines the digest's state would save.
struct ReferenceDigest {
  explicit ReferenceDigest(std::size_t m) : max_centroids(m) {}

  std::size_t max_centroids;
  std::uint64_t count = 0;
  std::vector<std::pair<double, double>> centroids;  // (mean, weight)
  std::vector<double> buffer;

  void add(double x) {
    ++count;
    buffer.push_back(x);
    if (buffer.size() >= 2 * max_centroids) compress();
  }
  void compress() {
    std::vector<std::pair<double, double>> all = centroids;
    for (const double x : buffer) all.emplace_back(x, 1.0);
    buffer.clear();
    centroids.clear();
    if (all.empty()) return;
    std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    });
    const double cap = std::max(
        1.0, std::ceil(static_cast<double>(count) /
                       static_cast<double>(max_centroids)));
    auto cur = all[0];
    for (std::size_t i = 1; i < all.size(); ++i) {
      if (cur.second + all[i].second <= cap) {
        const double w = cur.second + all[i].second;
        cur.first = (cur.first * cur.second + all[i].first * all[i].second) / w;
        cur.second = w;
      } else {
        centroids.push_back(cur);
        cur = all[i];
      }
    }
    centroids.push_back(cur);
  }
  std::string lines() const {
    std::string out;
    for (const auto& [mean, weight] : centroids) {
      out += "c ";
      treesched::util::append_number(out, mean);
      out += ' ';
      treesched::util::append_number(out, weight);
      out += '\n';
    }
    for (const double x : buffer) {
      out += "b ";
      treesched::util::append_number(out, x);
      out += '\n';
    }
    return out;
  }
};

/// The "c" and "b" lines of a digest's saved state.
std::string state_lines(const QuantileDigest& d) {
  std::istringstream in(digest_bytes(d));
  std::string line, out;
  while (std::getline(in, line))
    if (line.rfind("c ", 0) == 0 || line.rfind("b ", 0) == 0) out += line + '\n';
  return out;
}

}  // namespace

TEST(QuantileDigestTest, CompressMatchesStableSortOfConcatenation) {
  // Exact ties between a centroid and a buffered point, and zeros of both
  // signs, are where a merge of the sorted buffer into the centroids could
  // part from the stable sort of the concatenation it replaces.
  treesched::util::Rng rng(17);
  const std::vector<std::vector<double>> streams = {
      [&] {
        std::vector<double> xs;
        for (int i = 0; i < 5000; ++i)
          xs.push_back(std::floor(rng.uniform01() * 12.0));
        return xs;
      }(),
      [&] {
        std::vector<double> xs;
        for (int i = 0; i < 5000; ++i) {
          const double u = rng.uniform01();
          xs.push_back(u < 0.2 ? -0.0 : u < 0.4 ? 0.0 : std::floor(u * 4.0));
        }
        return xs;
      }(),
      pareto_sample(5000, 23),
  };
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const std::size_t max_centroids : {8u, 64u}) {
      QuantileDigest d(max_centroids);
      ReferenceDigest ref(max_centroids);
      for (std::size_t i = 0; i < streams[s].size(); ++i) {
        d.add(streams[s][i]);
        ref.add(streams[s][i]);
        if (i % 997 == 0) {
          ASSERT_EQ(state_lines(d), ref.lines())
              << "stream " << s << " max " << max_centroids << " at " << i;
        }
      }
      EXPECT_EQ(state_lines(d), ref.lines())
          << "stream " << s << " max " << max_centroids;
    }
  }
}

TEST(P2QuantileTest, ExactBelowFiveObservations) {
  P2Quantile p(0.5);
  EXPECT_TRUE(std::isnan(p.estimate()));
  p.add(9.0);
  EXPECT_DOUBLE_EQ(p.estimate(), 9.0);
  p.add(1.0);
  p.add(5.0);
  // n=3, rank ceil(0.5*3)=2 → the 2nd order statistic.
  EXPECT_DOUBLE_EQ(p.estimate(), 5.0);
}

TEST(P2QuantileTest, TracksUniformQuantiles) {
  treesched::util::Rng rng(7);
  std::vector<double> data;
  P2Quantile p50(0.5), p99(0.99);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform01();
    data.push_back(x);
    p50.add(x);
    p99.add(x);
  }
  // P² has no distribution-free bound; on a smooth distribution it should
  // sit well within a few percent of the true rank.
  expect_rank_within(data, p50.estimate(), 0.5, 0.03);
  expect_rank_within(data, p99.estimate(), 0.99, 0.03);
}

TEST(P2QuantileTest, SaveLoadRoundTripsExactly) {
  P2Quantile p(0.99);
  treesched::util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) p.add(rng.uniform01() * 100.0);
  std::string saved;
  p.save(saved);
  P2Quantile q(0.99);  // load() restores state into a same-q sketch
  treesched::util::Fields f(saved);
  q.load(f);
  EXPECT_DOUBLE_EQ(q.estimate(), p.estimate());
  EXPECT_EQ(q.count(), p.count());
  // Identical continuation after the round trip.
  p.add(42.0);
  q.add(42.0);
  EXPECT_DOUBLE_EQ(q.estimate(), p.estimate());
}

TEST(QuantileDigestTest, DocumentedRankBoundOnHeavyTail) {
  const auto data = pareto_sample(50000, 11);
  QuantileDigest d;
  for (const double x : data) d.add(x);
  const double slack = 2.0 / static_cast<double>(d.max_centroids());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999})
    expect_rank_within(data, d.quantile(q), q, slack);
}

TEST(QuantileDigestTest, EndpointsAreExact) {
  const auto data = pareto_sample(5000, 23);
  QuantileDigest d;
  for (const double x : data) d.add(x);
  EXPECT_DOUBLE_EQ(d.quantile(0.0),
                   *std::min_element(data.begin(), data.end()));
  EXPECT_DOUBLE_EQ(d.quantile(1.0),
                   *std::max_element(data.begin(), data.end()));
}

TEST(QuantileDigestTest, QueriesArePure) {
  QuantileDigest d;
  for (const double x : pareto_sample(3000, 5)) d.add(x);
  const std::string before = digest_bytes(d);
  (void)d.quantile(0.5);
  (void)d.quantile(0.99);
  (void)d.min();
  (void)d.max();
  EXPECT_EQ(digest_bytes(d), before);
}

TEST(QuantileDigestTest, InsertionSequenceDeterminesBytes) {
  const auto data = pareto_sample(10000, 31);
  QuantileDigest a, b;
  for (const double x : data) a.add(x);
  for (const double x : data) b.add(x);
  EXPECT_EQ(digest_bytes(a), digest_bytes(b));
}

TEST(QuantileDigestTest, DeterministicMergeHoldsRankBound) {
  const auto data = pareto_sample(40000, 17);
  // Shards of different lengths, merged in index order.
  std::vector<QuantileDigest> parts(7);
  for (std::size_t i = 0; i < data.size(); ++i)
    parts[(i * i) % parts.size()].add(data[i]);
  const QuantileDigest merged = merge_deterministic(parts);
  EXPECT_EQ(merged.count(), data.size());
  const double slack = 2.0 / static_cast<double>(merged.max_centroids());
  for (const double q : {0.1, 0.5, 0.9, 0.99})
    expect_rank_within(data, merged.quantile(q), q, slack);
  // Same parts, same order → same bytes, independent of when shards landed.
  EXPECT_EQ(digest_bytes(merge_deterministic(parts)), digest_bytes(merged));
}

TEST(P2QuantileTest, RejectsTruncatedAndBitFlippedState) {
  P2Quantile p(0.99);
  treesched::util::Rng rng(3);
  for (int i = 0; i < 500; ++i) p.add(rng.uniform01() * 100.0);
  std::string bytes;
  p.save(bytes);
  // Durability contract: a mutated serialization is either rejected with
  // std::invalid_argument or decodes to the EXACT original state (an
  // equivalent encoding, e.g. a newline flipped to another whitespace
  // byte) — it never silently mis-loads.
  const auto check = [&](const std::string& mut) {
    P2Quantile q(0.99);
    treesched::util::Fields f(mut);
    try {
      q.load(f);
    } catch (const std::invalid_argument&) {
      return;
    }
    std::string rs;
    q.save(rs);
    EXPECT_EQ(rs, bytes);
  };
  for (std::size_t len = 0; len < bytes.size(); ++len)
    check(bytes.substr(0, len));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mut = bytes;
    mut[i] = static_cast<char>(mut[i] ^ 0x01);
    check(mut);
  }
}

TEST(QuantileDigestTest, RejectsTruncatedAndBitFlippedState) {
  QuantileDigest d(64);
  for (const double x : pareto_sample(3000, 41)) d.add(x);
  const std::string bytes = digest_bytes(d);
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 512);
  const auto check = [&](const std::string& mut) {
    QuantileDigest e(64);
    treesched::util::Fields f(mut);
    try {
      e.load(f);
    } catch (const std::invalid_argument&) {
      return;
    }
    EXPECT_EQ(digest_bytes(e), bytes);
  };
  for (std::size_t len = 0; len < bytes.size(); len += stride)
    check(bytes.substr(0, len));
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    std::string mut = bytes;
    mut[i] = static_cast<char>(mut[i] ^ 0x01);
    check(mut);
  }
}

TEST(QuantileDigestTest, SaveLoadRoundTripsExactly) {
  QuantileDigest d(128);
  for (const double x : pareto_sample(9000, 41)) d.add(x);
  std::string saved;
  d.save(saved);
  QuantileDigest e(128);  // load() restores state into a same-shape sketch
  treesched::util::Fields f(saved);
  e.load(f);
  EXPECT_EQ(digest_bytes(e), digest_bytes(d));
  EXPECT_EQ(e.max_centroids(), d.max_centroids());
  // Identical continuation: resume-from-snapshot must not fork the stream.
  for (const double x : pareto_sample(1000, 43)) {
    d.add(x);
    e.add(x);
  }
  EXPECT_EQ(digest_bytes(e), digest_bytes(d));
}
