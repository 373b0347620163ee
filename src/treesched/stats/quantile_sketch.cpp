#include "treesched/stats/quantile_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <string>

#include "treesched/core/types.hpp"
#include "treesched/util/assert.hpp"
#include "treesched/util/csum.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::stats {

namespace {

double quiet_nan() { return std::numeric_limits<double>::quiet_NaN(); }

}  // namespace

// ---------------------------------------------------------------------------
// P2Quantile
// ---------------------------------------------------------------------------

P2Quantile::P2Quantile(double q) : q_(q) {
  TS_REQUIRE(q > 0.0 && q < 1.0, "P2Quantile requires q in (0, 1)");
  incr_[0] = 0.0;
  incr_[1] = q / 2.0;
  incr_[2] = q;
  incr_[3] = (1.0 + q) / 2.0;
  incr_[4] = 1.0;
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q;
  desired_[2] = 1.0 + 4.0 * q;
  desired_[3] = 3.0 + 2.0 * q;
  desired_[4] = 5.0;
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    // Bootstrap phase: heights double as a sorted sample buffer.
    height_[count_] = x;
    ++count_;
    if (count_ == 5) std::sort(height_, height_ + 5);
    return;
  }

  // Find the marker cell x falls into and update the extremes.
  int k;
  if (x < height_[0]) {
    height_[0] = x;
    k = 0;
  } else if (x < height_[1]) {
    k = 0;
  } else if (x < height_[2]) {
    k = 1;
  } else if (x < height_[3]) {
    k = 2;
  } else if (x <= height_[4]) {
    k = 3;
  } else {
    height_[4] = x;
    k = 3;
  }

  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += incr_[i];

  // Adjust the interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    const double below = pos_[i] - pos_[i - 1];
    const double above = pos_[i + 1] - pos_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction of the new height.
      const double hp =
          height_[i] +
          s / (pos_[i + 1] - pos_[i - 1]) *
              ((below + s) * (height_[i + 1] - height_[i]) / above +
               (above - s) * (height_[i] - height_[i - 1]) / below);
      if (height_[i - 1] < hp && hp < height_[i + 1]) {
        height_[i] = hp;
      } else {
        // Parabolic left the bracket: fall back to linear interpolation.
        const int j = d >= 1.0 ? i + 1 : i - 1;
        height_[i] = height_[i] + s * (height_[uidx(j)] - height_[i]) /
                                      (pos_[uidx(j)] - pos_[i]);
      }
      pos_[i] += s;
    }
  }
  ++count_;
}

double P2Quantile::estimate() const {
  if (count_ == 0) return quiet_nan();
  if (count_ < 5) {
    double sorted[5];
    std::copy(height_, height_ + count_, sorted);
    std::sort(sorted, sorted + count_);
    const double rank = std::ceil(q_ * static_cast<double>(count_));
    const std::size_t i =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(i, static_cast<std::size_t>(count_ - 1))];
  }
  return height_[2];
}

std::string P2Quantile::payload() const {
  // The bytes `os << std::setprecision(17)` writes, without a stream.
  constexpr std::size_t kNumbers = 2 + 3 * 5;
  std::string out;
  out.reserve(3 + kNumbers * (1 + util::kMaxNumberChars));
  out += "p2 ";
  util::append_number(out, q_);
  out += ' ';
  util::append_number(out, count_);
  for (int i = 0; i < 5; ++i) {
    for (const double v : {height_[i], pos_[i], desired_[i]}) {
      out += ' ';
      util::append_number(out, v);
    }
  }
  out += '\n';
  return out;
}

void P2Quantile::save(std::ostream& os) const {
  util::seal(os, "p2csum", payload());
}

void P2Quantile::load(util::Fields& f) {
  P2Quantile tmp(q_);
  double q = 0.0;
  TS_REQUIRE((f.expect("p2") >> q >> tmp.count_) && q == q_,
             "p2 load: quantile mismatch");
  for (int i = 0; i < 5; ++i)
    f >> tmp.height_[i] >> tmp.pos_[i] >> tmp.desired_[i];
  TS_REQUIRE(f, "p2 load: truncated state");
  util::expect_seal(f, "p2csum", tmp.payload(), "p2 load");
  *this = tmp;
}

// ---------------------------------------------------------------------------
// QuantileDigest
// ---------------------------------------------------------------------------

QuantileDigest::QuantileDigest(std::size_t max_centroids)
    : max_centroids_(max_centroids) {
  TS_REQUIRE(max_centroids_ >= 8, "QuantileDigest needs >= 8 centroids");
}

double QuantileDigest::min() const {
  return count_ == 0 ? quiet_nan() : min_;
}

double QuantileDigest::max() const {
  return count_ == 0 ? quiet_nan() : max_;
}

void QuantileDigest::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  buffer_.push_back(x);
  if (buffer_.size() >= 2 * max_centroids_) compress();
}

void QuantileDigest::absorb_unordered(const QuantileDigest& other) {
  TS_REQUIRE(other.max_centroids_ == max_centroids_,
             "absorb: digests must share max_centroids");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  centroids_.insert(centroids_.end(), other.centroids_.begin(),
                    other.centroids_.end());
  buffer_.insert(buffer_.end(), other.buffer_.begin(), other.buffer_.end());
  compress();
}

void QuantileDigest::compress() {
  std::vector<Centroid> all;
  all.reserve(centroids_.size() + buffer_.size());
  all.insert(all.end(), centroids_.begin(), centroids_.end());
  for (const double x : buffer_) all.push_back({x, 1.0});
  buffer_.clear();
  if (all.empty()) {
    centroids_.clear();
    return;
  }
  // stable_sort: exact-tie grouping must not depend on the library's
  // (unspecified) unstable-sort behavior, or byte-identity dies.
  std::stable_sort(all.begin(), all.end(),
                   [](const Centroid& a, const Centroid& b) {
                     if (a.mean != b.mean) return a.mean < b.mean;
                     return a.weight < b.weight;
                   });
  const double cap = std::max(
      1.0, std::ceil(static_cast<double>(count_) /
                     static_cast<double>(max_centroids_)));
  std::vector<Centroid> out;
  out.reserve(max_centroids_ + 2);
  Centroid cur = all[0];
  for (std::size_t i = 1; i < all.size(); ++i) {
    const Centroid& c = all[i];
    if (cur.weight + c.weight <= cap) {
      const double w = cur.weight + c.weight;
      cur.mean = (cur.mean * cur.weight + c.mean * c.weight) / w;
      cur.weight = w;
    } else {
      out.push_back(cur);
      cur = c;
    }
  }
  out.push_back(cur);
  centroids_ = std::move(out);
}

double QuantileDigest::quantile(double q) const {
  TS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile requires q in [0, 1]");
  if (count_ == 0) return quiet_nan();
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Merged view of compressed centroids + raw buffer, built locally so the
  // query never mutates sketch state (snapshot byte-identity).
  std::vector<Centroid> view;
  view.reserve(centroids_.size() + buffer_.size());
  view.insert(view.end(), centroids_.begin(), centroids_.end());
  for (const double x : buffer_) view.push_back({x, 1.0});
  std::stable_sort(view.begin(), view.end(),
                   [](const Centroid& a, const Centroid& b) {
                     if (a.mean != b.mean) return a.mean < b.mean;
                     return a.weight < b.weight;
                   });
  const double target = q * static_cast<double>(count_);
  util::CompensatedSum cum;
  for (const Centroid& c : view) {
    cum.add(c.weight);
    if (cum.value() >= target)
      return std::min(std::max(c.mean, min_), max_);
  }
  return max_;
}

std::string QuantileDigest::payload() const {
  // The bytes `os << std::setprecision(17)` writes, without a stream.
  constexpr std::size_t kNum = 1 + util::kMaxNumberChars;  // separator too
  std::string out;
  out.reserve(7 + 6 * kNum + centroids_.size() * (2 + 2 * kNum) +
              buffer_.size() * (2 + kNum));
  out += "digest ";
  util::append_number(out, max_centroids_);
  out += ' ';
  util::append_number(out, count_);
  out += ' ';
  util::append_number(out, min_);
  out += ' ';
  util::append_number(out, max_);
  out += ' ';
  util::append_number(out, centroids_.size());
  out += ' ';
  util::append_number(out, buffer_.size());
  out += '\n';
  for (const Centroid& c : centroids_) {
    out += "c ";
    util::append_number(out, c.mean);
    out += ' ';
    util::append_number(out, c.weight);
    out += '\n';
  }
  for (const double x : buffer_) {
    out += "b ";
    util::append_number(out, x);
    out += '\n';
  }
  return out;
}

void QuantileDigest::save(std::ostream& os) const {
  util::seal(os, "digestcsum", payload());
}

void QuantileDigest::load(util::Fields& f) {
  QuantileDigest tmp(max_centroids_);
  std::size_t mc = 0, nc = 0, nb = 0;
  f.expect("digest") >> mc >> tmp.count_ >> tmp.min_ >> tmp.max_ >> nc >> nb;
  TS_REQUIRE(f && mc == max_centroids_, "digest load: max_centroids mismatch");
  // Structural bounds BEFORE any allocation: a corrupt count must not drive
  // a giant .assign() — the writer never exceeds these (compress() caps the
  // centroid list and flushes the buffer at 2 * max_centroids).
  TS_REQUIRE(nc <= 2 * max_centroids_ + 2 && nb < 2 * max_centroids_,
             "digest load: implausible centroid/buffer count (corrupt state)");
  tmp.centroids_.assign(nc, Centroid{});
  for (Centroid& c : tmp.centroids_) f.expect("c") >> c.mean >> c.weight;
  tmp.buffer_.assign(nb, 0.0);
  for (double& x : tmp.buffer_) f.expect("b") >> x;
  TS_REQUIRE(f, "digest load: truncated state");
  util::expect_seal(f, "digestcsum", tmp.payload(), "digest load");
  *this = tmp;
}

QuantileDigest merge_deterministic(const std::vector<QuantileDigest>& parts) {
  if (parts.empty()) return QuantileDigest{};
  QuantileDigest out(parts[0].max_centroids());
  // Index-order fold: the caller's canonical shard order IS the merge
  // order, so the result is independent of shard completion timing.
  for (const QuantileDigest& p : parts) out.absorb_unordered(p);
  return out;
}

}  // namespace treesched::stats
