// Online quantile sketches (stats/quantile_sketch.hpp): exactness below
// the marker count, the digest's documented rank-error bound, merge
// determinism, query purity, and snapshot round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "treesched/stats/quantile_sketch.hpp"
#include "treesched/util/rng.hpp"

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
  std::ostringstream os;
  d.save(os);
  return os.str();
}

}  // namespace

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
  std::ostringstream os;
  p.save(os);
  P2Quantile q(0.99);  // load() restores state into a same-q sketch
  const std::string saved = os.str();
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
  std::ostringstream os;
  p.save(os);
  const std::string bytes = os.str();
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
    std::ostringstream rs;
    q.save(rs);
    EXPECT_EQ(rs.str(), bytes);
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
  std::ostringstream os;
  d.save(os);
  QuantileDigest e(128);  // load() restores state into a same-shape sketch
  const std::string saved = os.str();
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
