#include "treesched/sim/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <string>

#include "treesched/util/assert.hpp"
#include "treesched/util/csum.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::sim {

// ---------------------------------------------------------------------------
// StreamAccumulator
// ---------------------------------------------------------------------------

void StreamAccumulator::fold(const JobRecord& r) {
  if (r.completed()) {
    ++completed;
    const double f = r.flow();
    flow.add(f);
    weighted_flow.add(r.weight * f);
    max_flow = std::max(max_flow, f);
    makespan = std::max(makespan, r.completion);
    flow_digest.add(f);
    p99_marker.add(f);
  }
  if (r.shed) ++shed;
  if (r.rejected) ++rejected;
  if (r.admitted()) ++admitted;
  if (r.shed || r.rejected) shed_volume.add(r.size);
  frac.add(r.fractional_area);
  weighted_frac.add(r.weight * r.fractional_area);
}

namespace {

/// Canonical serialized head (counters + compensated sums) — the bytes the
/// self-checksum covers. The sketches that follow carry their own checksums.
std::string acc_head(const StreamAccumulator& a) {
  // The bytes `os << std::setprecision(17)` writes, without a stream.
  constexpr std::size_t kNum = 1 + util::kMaxNumberChars;  // separator too
  std::string out;
  out.reserve(4 + 6 * kNum + 5 + 10 * kNum);
  out += "acc ";
  util::append_number(out, a.completed);
  for (const std::uint64_t n : {a.shed, a.rejected, a.admitted}) {
    out += ' ';
    util::append_number(out, n);
  }
  for (const double v : {a.max_flow, a.makespan}) {
    out += ' ';
    util::append_number(out, v);
  }
  out += "\nsums";
  for (const util::CompensatedSum* s :
       {&a.flow, &a.weighted_flow, &a.frac, &a.weighted_frac,
        &a.shed_volume}) {
    out += ' ';
    util::append_number(out, s->sum());
    out += ' ';
    util::append_number(out, s->compensation());
  }
  out += '\n';
  return out;
}

}  // namespace

void StreamAccumulator::save(std::ostream& os) const {
  util::seal(os, "acccsum", acc_head(*this));
  flow_digest.save(os);
  p99_marker.save(os);
}

void StreamAccumulator::load(util::Fields& f) {
  StreamAccumulator tmp;
  f.expect("acc") >> tmp.completed >> tmp.shed >> tmp.rejected >>
      tmp.admitted >> tmp.max_flow >> tmp.makespan;
  f.expect("sums");
  for (util::CompensatedSum* s : {&tmp.flow, &tmp.weighted_flow, &tmp.frac,
                                  &tmp.weighted_frac, &tmp.shed_volume}) {
    double sum = 0.0, comp = 0.0;
    f >> sum >> comp;
    s->set_state(sum, comp);
  }
  TS_REQUIRE(f, "accumulator load: truncated state");
  // Reject corrupt bytes before they become state: re-serialize what was
  // parsed and require the recorded checksum to reproduce (truncations die
  // above or on the missing tag; flipped digits re-serialize differently).
  util::expect_seal(f, "acccsum", acc_head(tmp), "accumulator load");
  tmp.flow_digest.load(f);
  tmp.p99_marker.load(f);
  *this = tmp;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

void Metrics::reset(std::size_t job_count) {
  jobs_.clear();
  stamps_.clear();
  extend(job_count);
  acc_ = StreamAccumulator();
}

void Metrics::extend(std::size_t job_count) {
  TS_REQUIRE(job_count >= jobs_.size(), "metrics extend: window cannot shrink");
  const std::size_t old = jobs_.size();
  jobs_.resize(job_count);
  for (std::size_t j = old; j < job_count; ++j)
    jobs_[j].id = static_cast<JobId>(j);
}

void Metrics::open_node_completion(JobId j, std::size_t len,
                                   std::size_t keep) {
  JobRecord& r = jobs_[uidx(j)];
  TS_CHECK(keep <= len && keep <= r.stamp_len,
           "node-completion stamps: cannot keep more than exist");
  if (len > r.stamp_len) {
    const std::size_t off = stamps_.size();
    TS_REQUIRE(len <= std::numeric_limits<std::uint32_t>::max() - off,
               "node-completion stamps: arena exceeds 32-bit offsets");
    stamps_.resize(off + len);
    std::copy_n(stamps_.data() + r.stamp_off, keep, stamps_.data() + off);
    r.stamp_off = static_cast<std::uint32_t>(off);
  }
  r.stamp_len = static_cast<std::uint32_t>(len);
  const std::span<Time> fresh = node_completion(j).subspan(keep);
  std::fill(fresh.begin(), fresh.end(), -1.0);
}

void Metrics::enable_streaming(StreamAccumulator acc) {
  TS_REQUIRE(std::none_of(jobs_.begin(), jobs_.end(),
                          [](const JobRecord& r) { return r.finalized; }),
             "enable_streaming: window already has finalized jobs");
  mode_ = MetricsMode::kStreaming;
  acc_ = std::move(acc);
}

void Metrics::finalize_job(JobId j) {
  if (mode_ != MetricsMode::kStreaming) return;
  JobRecord& r = jobs_[uidx(j)];
  if (r.finalized) return;
  r.finalized = true;
  acc_.fold(r);
}

bool Metrics::all_completed() const {
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [](const JobRecord& r) { return r.completed(); });
}

std::size_t Metrics::completed_count() const {
  if (mode_ == MetricsMode::kStreaming)
    return static_cast<std::size_t>(acc_.completed);
  return static_cast<std::size_t>(
      std::count_if(jobs_.begin(), jobs_.end(),
                    [](const JobRecord& r) { return r.completed(); }));
}

double Metrics::total_flow_time() const {
  if (mode_ == MetricsMode::kStreaming) return acc_.flow.value();
  util::CompensatedSum total;
  for (const auto& r : jobs_)
    if (r.completed()) total.add(r.flow());
  return total.value();
}

double Metrics::mean_flow_time() const {
  const std::size_t n = completed_count();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return total_flow_time() / static_cast<double>(n);
}

std::size_t Metrics::shed_count() const {
  if (mode_ == MetricsMode::kStreaming)
    return static_cast<std::size_t>(acc_.shed);
  return static_cast<std::size_t>(
      std::count_if(jobs_.begin(), jobs_.end(),
                    [](const JobRecord& r) { return r.shed; }));
}

std::size_t Metrics::rejected_count() const {
  if (mode_ == MetricsMode::kStreaming)
    return static_cast<std::size_t>(acc_.rejected);
  return static_cast<std::size_t>(
      std::count_if(jobs_.begin(), jobs_.end(),
                    [](const JobRecord& r) { return r.rejected; }));
}

std::size_t Metrics::admitted_count() const {
  // Streaming: retired admissions live in the accumulator; still-live window
  // jobs are counted from their (unfinalized) records, matching full-mode
  // semantics at every instant.
  const auto live = static_cast<std::size_t>(std::count_if(
      jobs_.begin(), jobs_.end(), [this](const JobRecord& r) {
        if (mode_ == MetricsMode::kStreaming && r.finalized) return false;
        return r.admitted();
      }));
  if (mode_ == MetricsMode::kStreaming)
    return static_cast<std::size_t>(acc_.admitted) + live;
  return live;
}

double Metrics::shed_volume() const {
  if (mode_ == MetricsMode::kStreaming) return acc_.shed_volume.value();
  util::CompensatedSum total;
  for (const auto& r : jobs_)
    if (r.shed || r.rejected) total.add(r.size);
  return total.value();
}

double Metrics::goodput() const {
  const std::size_t n = completed_count();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const double span = makespan();
  if (span <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(n) / span;
}

double Metrics::mean_flow_time_admitted() const {
  const std::size_t n = admitted_count();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return total_flow_time() / static_cast<double>(n);
}

double Metrics::flow_percentile(double q) const {
  TS_REQUIRE(q >= 0.0 && q <= 1.0, "flow_percentile requires q in [0, 1]");
  if (mode_ == MetricsMode::kStreaming) return acc_.flow_digest.quantile(q);
  std::vector<double> flows;
  flows.reserve(jobs_.size());
  for (const auto& r : jobs_)
    if (r.completed()) flows.push_back(r.flow());
  if (flows.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(flows.begin(), flows.end());
  const double rank = std::ceil(q * static_cast<double>(flows.size()));
  const std::size_t i =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return flows[std::min(i, flows.size() - 1)];
}

double Metrics::total_fractional_flow_time() const {
  util::CompensatedSum total;
  if (mode_ == MetricsMode::kStreaming) {
    // Retired areas from the accumulator + partial accrual of live jobs,
    // folded in window-index order (deterministic).
    total.merge(acc_.frac);
    for (const auto& r : jobs_)
      if (!r.finalized) total.add(r.fractional_area);
    return total.value();
  }
  for (const auto& r : jobs_) total.add(r.fractional_area);
  return total.value();
}

double Metrics::total_weighted_flow_time() const {
  if (mode_ == MetricsMode::kStreaming) return acc_.weighted_flow.value();
  util::CompensatedSum total;
  for (const auto& r : jobs_)
    if (r.completed()) total.add(r.weight * r.flow());
  return total.value();
}

double Metrics::total_weighted_fractional_flow_time() const {
  util::CompensatedSum total;
  if (mode_ == MetricsMode::kStreaming) {
    total.merge(acc_.weighted_frac);
    for (const auto& r : jobs_)
      if (!r.finalized) total.add(r.weight * r.fractional_area);
    return total.value();
  }
  for (const auto& r : jobs_) total.add(r.weight * r.fractional_area);
  return total.value();
}

double Metrics::max_flow_time() const {
  if (mode_ == MetricsMode::kStreaming) return acc_.max_flow;
  double mx = 0.0;
  for (const auto& r : jobs_)
    if (r.completed()) mx = std::max(mx, r.flow());
  return mx;
}

double Metrics::lk_norm_flow_time(double k) const {
  TS_REQUIRE(k >= 1.0, "l_k norm requires k >= 1");
  TS_REQUIRE(mode_ == MetricsMode::kFull,
             "lk_norm_flow_time needs per-job flows (full mode only)");
  util::CompensatedSum total;
  for (const auto& r : jobs_)
    if (r.completed()) total.add(std::pow(r.flow(), k));
  return std::pow(total.value(), 1.0 / k);
}

double Metrics::makespan() const {
  if (mode_ == MetricsMode::kStreaming) return acc_.makespan;
  double mx = 0.0;
  for (const auto& r : jobs_)
    if (r.completed()) mx = std::max(mx, r.completion);
  return mx;
}

void Metrics::save(std::ostream& os) const {
  const auto flags = os.flags();
  const auto prec = os.precision();
  os << std::setprecision(17);
  const auto written = [](const JobRecord& r) {
    return r.touched() && !r.finalized;
  };
  os << "metrics " << (mode_ == MetricsMode::kStreaming ? "streaming" : "full")
     << ' ' << jobs_.size() << ' '
     << std::count_if(jobs_.begin(), jobs_.end(), written) << '\n';
  if (mode_ == MetricsMode::kStreaming) acc_.save(os);
  for (const auto& r : jobs_) {
    if (!written(r)) continue;
    os << "jr " << r.id << ' ' << r.release << ' ' << r.weight << ' '
       << r.size << ' ' << r.leaf << ' ' << r.completion << ' '
       << r.fractional_area << ' ' << (r.shed ? 1 : 0) << ' '
       << (r.rejected ? 1 : 0) << ' ' << r.stamp_len;
    for (const Time t : node_completion(r.id)) os << ' ' << t;
    os << '\n';
  }
  os.flags(flags);
  os.precision(prec);
}

void Metrics::load(util::Fields& f) {
  std::string_view mode;
  std::size_t n = 0, nrec = 0;
  f.expect("metrics") >> mode >> n >> nrec;
  TS_REQUIRE(f && (mode == "streaming" || mode == "full"),
             "metrics load: bad mode");
  TS_REQUIRE(jobs_.size() >= n,
             "metrics load: window smaller than serialized record count");
  TS_REQUIRE(nrec <= n, "metrics load: more records than the window");
  mode_ = mode == "streaming" ? MetricsMode::kStreaming : MetricsMode::kFull;
  if (mode_ == MetricsMode::kStreaming) acc_.load(f);
  JobId prev = kInvalidJob;
  for (std::size_t i = 0; i < nrec; ++i) {
    JobId id = kInvalidJob;
    TS_REQUIRE((f.expect("jr") >> id) && id > prev && uidx(id) < n,
               "metrics load: record id out of order");
    prev = id;
    JobRecord& r = jobs_[uidx(id)];
    int shed = 0, rejected = 0;
    std::size_t nc = 0;
    f >> r.release >> r.weight >> r.size >> r.leaf >> r.completion >>
        r.fractional_area >> shed >> rejected >> nc;
    TS_REQUIRE(f, "metrics load: truncated record");
    TS_REQUIRE(nc <= f.token_room(),
               "metrics load: more node-completion stamps than bytes left");
    r.shed = shed != 0;
    r.rejected = rejected != 0;
    open_node_completion(id, nc);
    for (Time& t : node_completion(id)) f >> t;
  }
  TS_REQUIRE(f, "metrics load: truncated state");
}

}  // namespace treesched::sim
