#include "treesched/sim/runlog_segments.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "treesched/sim/run_log.hpp"
#include "treesched/util/assert.hpp"
#include "treesched/util/csum.hpp"
#include "treesched/util/fields.hpp"
#include "treesched/util/fs.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::sim {

namespace {

using util::fnv1a_64;
using util::kFnvOffsetBasis;

std::uint64_t chain_step(std::uint64_t chain, std::uint64_t fp) {
  char buf[41];  // decimal(chain) ":" decimal(fp), 20 digits at most each
  char* p = std::to_chars(buf, buf + 20, chain).ptr;
  *p++ = ':';
  p = std::to_chars(p, p + 20, fp).ptr;
  return fnv1a_64(std::string_view(buf, static_cast<std::size_t>(p - buf)));
}

const char* policy_token(NodePolicy p) {
  switch (p) {
    case NodePolicy::kSjf: return "sjf";
    case NodePolicy::kFifo: return "fifo";
    case NodePolicy::kSrpt: return "srpt";
    case NodePolicy::kLcfs: return "lcfs";
    case NodePolicy::kHdf: return "hdf";
  }
  return "?";
}

char kind_token(NodeKind k) {
  switch (k) {
    case NodeKind::kRoot: return 'r';
    case NodeKind::kRouter: return 'i';
    case NodeKind::kMachine: return 'm';
  }
  return '?';
}

// Canonical kind ranks (see file comment of the header).
constexpr int kRankJobrec = 0;
constexpr int kRankSeg = 1;
constexpr int kRankDone = 2;
constexpr int kRankRetire = 3;

struct ManifestEntry {
  std::size_t lines = 0;
  std::uint64_t fp = 0;
  std::uint64_t chain = 0;
};

/// The manifest records parsed so far.
struct Manifest {
  bool header = false;
  double chunk = 0.0;
  std::vector<double> speeds;
  std::vector<NodeId> parents;
  std::vector<char> kinds;
  std::vector<ManifestEntry> entries;
  bool has_final = false;
  std::uint64_t arrivals = 0, completed = 0, shed = 0, rejected = 0;
  double total_flow = 0.0, makespan = 0.0;
};

/// The one manifest grammar, shared by resume and the audit. Parses `lines`
/// into `m` and returns how many it read: all of them, or fewer when it
/// stops before a `segment` or `final` record that would follow
/// `max_segments` entries, or at the first malformed record. Malformed is
/// anything the writer does not emit, blank and '#' lines included; then,
/// or when the records read lack the header or disagree on the node count,
/// `error` says so.
std::size_t parse_manifest(const std::vector<util::LogLine>& lines,
                           std::size_t max_segments, Manifest& m,
                           std::string& error) {
  std::size_t i = 0;
  for (; i < lines.size(); ++i) {
    util::Fields f(lines[i].text);
    const std::string_view tag = f.next();
    if ((tag == "segment" || tag == "final") &&
        m.entries.size() == max_segments)
      break;
    bool ok = true;
    if (tag == "runlogseg") {
      int v = 0;
      ok = (f >> v) && v == 1;
      m.header = ok;
    } else if (!m.header) {
      ok = false;  // nothing precedes the header
    } else if (tag == "policy") {
      std::string_view p;
      f >> p;
    } else if (tag == "chunk") {
      f >> m.chunk;
    } else if (tag == "speeds") {
      std::size_t n = 0;
      ok = (f >> n) && n <= lines[i].text.size();
      m.speeds.assign(ok ? n : 0, 0.0);
      for (double& s : m.speeds) f >> s;
    } else if (tag == "shedcfg") {
      std::string_view p;
      double cap = 0, slack = 0;
      f >> p >> cap >> slack;
    } else if (tag == "node") {
      std::size_t id = 0;
      NodeId parent = kInvalidNode;
      char kind = 0;
      ok = (f >> id >> parent >> kind) && id == m.parents.size();
      m.parents.push_back(parent);
      m.kinds.push_back(kind);
    } else if (tag == "segment") {
      std::size_t idx = 0;
      ManifestEntry e;
      ok = (f >> idx >> e.lines >> e.fp >> e.chain) && f.done() &&
           idx == m.entries.size() && !m.has_final;
      if (ok) m.entries.push_back(e);
    } else if (tag == "final") {
      ok = (f >> m.arrivals >> m.completed >> m.shed >> m.rejected >>
            m.total_flow >> m.makespan) &&
           !m.has_final;
      m.has_final = true;
    } else {
      ok = false;
    }
    if (!ok || !f || !f.done()) {
      error = "malformed manifest line " + std::to_string(lines[i].number) +
              ": " + lines[i].text;
      return i;
    }
  }
  if (!m.header)
    error = "manifest missing 'runlogseg 1' header";
  else if (m.speeds.size() != m.parents.size())
    error = "manifest speeds/node count mismatch";
  return i;
}

}  // namespace

// ---------------------------------------------------------------------------
// SegmentedRunLogWriter
// ---------------------------------------------------------------------------

SegmentedRunLogWriter::SegmentedRunLogWriter(
    Config cfg, const Tree& tree, const std::vector<double>& speeds,
    NodePolicy policy, double router_chunk_size,
    const overload::ShedConfig& shed)
    : cfg_(std::move(cfg)),
      speeds_(speeds),
      policy_(policy),
      chunk_(router_chunk_size),
      shed_(shed),
      chain_(kFnvOffsetBasis) {
  TS_REQUIRE(!cfg_.base_path.empty(), "segmented log needs a base path");
  TS_REQUIRE(cfg_.segment_cap > 0, "segment cap must be positive");
  TS_REQUIRE(speeds_.size() == uidx(tree.node_count()),
             "segmented log: speeds do not match the tree");
  parents_.reserve(uidx(tree.node_count()));
  kinds_.reserve(uidx(tree.node_count()));
  // A segment's worth of lines: the first segments do not regrow these.
  pending_.reserve(cfg_.segment_cap);
  for (std::vector<Pending>& bucket : buckets_)
    bucket.reserve(cfg_.segment_cap);
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    parents_.push_back(tree.parent(v));
    kinds_.push_back(kind_token(tree.kind(v)));
  }
}

void SegmentedRunLogWriter::start_fresh() {
  TS_REQUIRE(!started_, "segmented log already started");
  started_ = true;
  const auto parent = std::filesystem::path(cfg_.base_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  util::write_file_atomic(cfg_.base_path, header_text());
}

std::string SegmentedRunLogWriter::header_text() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "runlogseg 1\n";
  os << "policy " << policy_token(policy_) << '\n';
  os << "chunk " << chunk_ << '\n';
  os << "speeds " << speeds_.size();
  for (const double s : speeds_) os << ' ' << s;
  os << '\n';
  if (shed_.enabled())
    os << "shedcfg " << overload::shed_policy_name(shed_.policy) << ' '
       << shed_.queue_cap << ' ' << shed_.deadline_slack << '\n';
  for (std::size_t v = 0; v < parents_.size(); ++v)
    os << "node " << v << ' ' << parents_[v] << ' ' << kinds_[v] << '\n';
  return os.str();
}

void SegmentedRunLogWriter::resume(std::size_t next_index,
                                   std::uint64_t chain) {
  TS_REQUIRE(!started_ && pending_.empty() && next_index_ == 0 && !finalized_,
             "resume must precede start_fresh and all event feeding");
  started_ = true;
  const std::optional<util::LogLines> manifest =
      util::read_log(cfg_.base_path);
  TS_REQUIRE(manifest.has_value(),
             "resume: cannot open manifest " + cfg_.base_path);
  // Kept: the header and the first next_index entries. Stale entries and a
  // stale trailer of the killed run come after them and are not read.
  Manifest m;
  std::string error;
  const std::size_t kept =
      parse_manifest(manifest->lines, next_index, m, error);
  TS_REQUIRE(error.empty(), "resume: " + error +
                                " (not a torn record, or a tear healed by an "
                                "older build)");
  TS_REQUIRE(m.entries.size() == next_index,
             "resume: manifest has fewer segments than the snapshot");
  TS_REQUIRE((m.entries.empty() ? kFnvOffsetBasis : m.entries.back().chain) ==
                 chain,
             "resume: manifest chain does not match the snapshot");
  std::string text;
  for (std::size_t i = 0; i < kept; ++i) {
    text += manifest->lines[i].text;
    text += '\n';
  }
  util::write_file_atomic(cfg_.base_path, text);
  next_index_ = next_index;
  chain_ = chain;
}

template <class... Fields>
void SegmentedRunLogWriter::push(double key, int rank, const char* tag,
                                 Fields... fields) {
  TS_REQUIRE(started_ && !finalized_,
             "segmented log not started or already finalized");
  const std::size_t offset = lines_.size();
  lines_ += tag;
  ((lines_ += ' ', util::append_number(lines_, fields)), ...);
  pending_.push_back({key, rank, offset, lines_.size() - offset});
}

void SegmentedRunLogWriter::on_admit(std::uint64_t job, double release,
                                     double weight, double size,
                                     NodeId leaf) {
  push(release, kRankJobrec, "jobrec", job, release, weight, size, leaf);
}

void SegmentedRunLogWriter::on_burst(const Segment& s, std::uint64_t job) {
  // A burst becomes final at its recording instant t1 — the key that stays
  // monotone across drains (t0 does not: a long burst can start before
  // short ones that were recorded earlier).
  push(s.t1, kRankSeg, "seg", s.node, job, s.chunk, s.t0, s.t1, s.rate);
}

void SegmentedRunLogWriter::on_done(std::uint64_t job, double t) {
  push(t, kRankDone, "done", job, t);
}

void SegmentedRunLogWriter::on_shed(double t, std::uint64_t job) {
  push(t, kRankRetire, "shed", t, job);
}

void SegmentedRunLogWriter::on_reject(double t, std::uint64_t job) {
  push(t, kRankRetire, "reject", t, job);
}

void SegmentedRunLogWriter::order_pending() {
  static_assert(static_cast<std::size_t>(kRankRetire) + 1 == kRankCount);
  // Every line is pushed at its key instant in event order, so one rank's
  // lines arrive sorted by key (in practice always; a bucket that is not
  // gets sorted), while lines of different ranks interleave out of order.
  // Split by rank in push order, then merge the buckets: the lowest rank
  // wins a key tie. Offsets rise in push order, so this is the
  // (key, rank, offset) order a full sort gives — the stable order by
  // (key, rank).
  for (std::vector<Pending>& bucket : buckets_) bucket.clear();
  for (const Pending& p : pending_) buckets_[uidx(p.rank)].push_back(p);
  const auto by_key = [](const Pending& a, const Pending& b) {
    return a.key != b.key ? a.key < b.key : a.offset < b.offset;
  };
  for (std::vector<Pending>& bucket : buckets_)
    if (!std::is_sorted(bucket.begin(), bucket.end(), by_key))
      std::sort(bucket.begin(), bucket.end(), by_key);
  std::size_t head[kRankCount] = {};
  for (Pending& out : pending_) {
    std::size_t best = kRankCount;
    for (std::size_t r = 0; r < kRankCount; ++r) {
      if (head[r] == buckets_[r].size()) continue;
      if (best == kRankCount ||
          buckets_[r][head[r]].key < buckets_[best][head[best]].key)
        best = r;
    }
    out = buckets_[best][head[best]++];
  }
}

void SegmentedRunLogWriter::commit(bool force) {
  if (pending_.empty()) return;
  if (!force && pending_.size() < cfg_.segment_cap) return;
  order_pending();
  content_.clear();
  // The framed lines, one newline each, plus the two frame lines.
  content_.reserve(lines_.size() + pending_.size() + 32 +
                   3 * util::kMaxNumberChars);
  content_ += "runlogseg-part 1 ";
  util::append_number(content_, next_index_);
  content_ += '\n';
  for (const Pending& p : pending_) {
    content_.append(lines_, p.offset, p.length);
    content_ += '\n';
  }
  content_ += "end ";
  util::append_number(content_, next_index_);
  content_ += ' ';
  util::append_number(content_, pending_.size());
  content_ += '\n';
  const std::uint64_t fp = fnv1a_64(content_);
  chain_ = chain_step(chain_, fp);
  assign_segment_log_path(seg_path_, cfg_.base_path, next_index_);
  util::write_file_atomic(seg_path_, content_);
  // Manifest entry: one fsynced append (failpoint site "manifest.append"),
  // so at worst a crash tears this one line — which readers drop as a torn
  // tail, and the next append heals.
  entry_ = "segment ";
  util::append_number(entry_, next_index_);
  entry_ += ' ';
  util::append_number(entry_, pending_.size());
  entry_ += ' ';
  util::append_number(entry_, fp);
  entry_ += ' ';
  util::append_number(entry_, chain_);
  util::append_line_durable(cfg_.base_path, entry_, "manifest.append");
  pending_.clear();
  lines_.clear();
  ++next_index_;
}

void SegmentedRunLogWriter::write_final(std::uint64_t arrivals,
                                        std::uint64_t completed,
                                        std::uint64_t shed,
                                        std::uint64_t rejected,
                                        double total_flow, double makespan) {
  commit(true);
  TS_REQUIRE(!finalized_, "segmented log already finalized");
  finalized_ = true;
  std::ostringstream trailer;
  trailer << std::setprecision(17);
  trailer << "final " << arrivals << ' ' << completed << ' ' << shed << ' '
          << rejected << ' ' << total_flow << ' ' << makespan;
  util::append_line_durable(cfg_.base_path, trailer.str(), "manifest.append");
}

// ---------------------------------------------------------------------------
// audit_segments
// ---------------------------------------------------------------------------

namespace {

struct LiveJob {
  double release = 0.0;
  double size = 0.0;
  std::vector<NodeId> path;  ///< first hop .. leaf (root excluded)
  std::size_t hop = 0;
  double acc = 0.0;          ///< work done on the current hop
  double data_ready_t = 0.0;  ///< when the current hop's data arrived
  double finish_t = -1.0;     ///< leaf requirement met at this instant
};

class SegmentAuditor {
 public:
  SegmentAuditor(const SegmentAuditOptions& opts, SegmentAuditResult& out)
      : opts_(opts), out_(out) {}

  void fail(std::size_t segment, const std::string& msg) {
    ++violation_count_;
    if (out_.violations.size() < opts_.max_violations)
      out_.violations.push_back({segment, msg});
  }

  void fail_line(std::size_t segment, const char* what,
                 std::string_view line) {
    fail(segment, what + std::string(line));
  }

  /// Records the FIRST segment whose file integrity broke (missing file,
  /// fingerprint mismatch, chain mismatch) so treesched_audit can name the
  /// exact file and suggest quarantining it.
  void note_broken(std::size_t segment, const std::string& path) {
    if (out_.has_first_bad) return;
    out_.has_first_bad = true;
    out_.first_bad_segment = segment;
    out_.first_bad_path = path;
  }

  bool run(const std::string& manifest_path) {
    const std::optional<util::LogLines> manifest =
        util::read_log(manifest_path);
    std::string error;
    if (!manifest)
      error = "cannot open manifest: " + manifest_path;
    else
      parse_manifest(manifest->lines, SIZE_MAX, m_, error);
    if (!error.empty()) {
      fail(m_.entries.size(), error);
      return finish();
    }
    if (!m_.has_final)
      fail(m_.entries.size(),
           "manifest has no final trailer (unfinished run?)");
    node_last_t1_.assign(m_.parents.size(), 0.0);
    for (std::size_t i = 0; i < m_.entries.size(); ++i)
      check_segment(manifest_path, i);
    check_final();
    return finish();
  }

 private:
  bool finish() {
    out_.ok = violation_count_ == 0;
    out_.segments = m_.entries.size();
    out_.payload_lines = payload_total_;
    out_.arrivals = admitted_ + rejected_;
    out_.completed = done_;
    return out_.ok;
  }

  std::vector<NodeId> path_of(NodeId leaf, std::size_t segment, bool& ok) {
    ok = false;
    if (leaf < 0 || uidx(leaf) >= m_.parents.size() ||
        m_.kinds[uidx(leaf)] != 'm') {
      fail(segment, "jobrec leaf is not a machine");
      return {};
    }
    std::vector<NodeId> path;
    NodeId v = leaf;
    while (v >= 0 && uidx(v) < m_.parents.size() && m_.kinds[uidx(v)] != 'r') {
      path.push_back(v);
      v = m_.parents[uidx(v)];
    }
    if (v < 0 || uidx(v) >= m_.parents.size()) {
      fail(segment, "jobrec leaf does not hang under the root");
      return {};
    }
    std::reverse(path.begin(), path.end());
    ok = true;
    return path;
  }

  double tol_for(double scale) const {
    return opts_.tol * std::max(1.0, scale);
  }

  void check_segment(const std::string& manifest_path, std::size_t idx) {
    const ManifestEntry& entry = m_.entries[idx];
    const std::string seg_path = segment_log_path(manifest_path, idx);
    // Failpoint site "segment.read": short-read / bit-flip corrupt the
    // slurped bytes — the fingerprint check below must catch both.
    const std::optional<std::string> bytes =
        util::read_file(seg_path, "segment.read");
    if (!bytes) {
      fail(idx, "missing segment file: " + seg_path);
      note_broken(idx, seg_path);
      return;
    }
    const std::string& content = *bytes;
    const std::uint64_t fp = fnv1a_64(content);
    if (fp != entry.fp) {
      fail(idx, "segment fingerprint mismatch (tampered or truncated)");
      note_broken(idx, seg_path);
      return;  // content is untrustworthy; replaying it would cascade noise
    }
    const std::uint64_t want_chain = chain_step(chain_, fp);
    if (want_chain != entry.chain) {
      fail(idx, "manifest chain mismatch (segments reordered or dropped?)");
      note_broken(idx, seg_path);
    }
    chain_ = want_chain;

    // Lines are parsed in place from the slurped bytes.
    std::string_view rest = content;
    std::string_view line;
    util::next_line(rest, line);
    util::Fields head(line);
    int version = 0;
    std::size_t index = 0;
    if (!(head.expect("runlogseg-part") >> version >> index) || !head.done() ||
        version != 1 || index != idx)
      fail_line(idx, "bad segment header: ", line);
    std::size_t payload = 0;
    bool saw_end = false;
    while (util::next_line(rest, line)) {
      util::Fields f(line);
      const std::string_view tag = f.next();
      if (saw_end) {
        fail_line(idx, "payload after end marker: ", line);
        break;
      }
      if (tag == "end") {
        std::size_t i = 0, n = 0;
        if (!(f >> i >> n) || !f.done() || i != idx || n != payload)
          fail_line(idx, "bad end marker: ", line);
        saw_end = true;
        continue;
      }
      ++payload;
      double key = 0.0;
      int rank = 0;
      // A record with a malformed field, or one left over, is skipped.
      const auto malformed = [&] {
        if (f && f.done()) return false;
        fail_line(idx, "malformed record: ", line);
        return true;
      };
      if (tag == "jobrec") {
        std::uint64_t job = 0;
        double release = 0, weight = 0, size = 0;
        NodeId leaf = kInvalidNode;
        f >> job >> release >> weight >> size >> leaf;
        if (malformed()) continue;
        key = release;
        rank = kRankJobrec;
        if (live_.count(job) != 0) {
          fail(idx, "duplicate jobrec for job " + std::to_string(job));
          continue;
        }
        bool ok = false;
        LiveJob lj;
        lj.path = path_of(leaf, idx, ok);
        if (!ok) continue;
        lj.release = release;
        lj.size = size;
        lj.data_ready_t = release;
        live_.emplace(job, std::move(lj));
        ++admitted_;
      } else if (tag == "seg") {
        NodeId node = kInvalidNode;
        std::uint64_t job = 0;
        std::int32_t chunk = 0;
        double t0 = 0, t1 = 0, rate = 0;
        f >> node >> job >> chunk >> t0 >> t1 >> rate;
        if (malformed()) continue;
        key = t1;
        rank = kRankSeg;
        check_burst(idx, node, job, t0, t1, rate, line);
      } else if (tag == "done") {
        std::uint64_t job = 0;
        double t = 0;
        f >> job >> t;
        if (malformed()) continue;
        key = t;
        rank = kRankDone;
        check_done(idx, job, t);
      } else if (tag == "shed" || tag == "reject") {
        double t = 0;
        std::uint64_t job = 0;
        f >> t >> job;
        if (malformed()) continue;
        key = t;
        rank = kRankRetire;
        if (tag == "shed") {
          const auto it = live_.find(job);
          if (it == live_.end())
            fail(idx, "shed of a job never admitted: " + std::to_string(job));
          else
            live_.erase(it);
          ++shed_;
        } else {
          if (live_.count(job) != 0)
            fail(idx, "reject of an admitted job: " + std::to_string(job));
          ++rejected_;
        }
      } else {
        fail_line(idx, "unknown payload tag: ", line);
        continue;
      }
      // Canonical order: (key, rank) within the segment, key alone across
      // segment boundaries (same-instant events may legitimately straddle a
      // commit point).
      if (have_any_ &&
          (key < prev_key_ ||
           (have_prev_in_segment_ && key == prev_key_ && rank < prev_rank_)))
        fail_line(idx, "canonical order violated at: ", line);
      prev_key_ = key;
      prev_rank_ = rank;
      have_prev_in_segment_ = true;
      have_any_ = true;
    }
    if (!saw_end) fail(idx, "segment missing end marker");
    if (payload != entry.lines)
      fail(idx, "payload line count disagrees with manifest");
    payload_total_ += payload;
    have_prev_in_segment_ = false;
  }

  void check_burst(std::size_t idx, NodeId node, std::uint64_t job, double t0,
                   double t1, double rate, std::string_view line) {
    if (node < 0 || uidx(node) >= m_.speeds.size()) {
      fail_line(idx, "seg on unknown node: ", line);
      return;
    }
    if (t1 <= t0 || t0 < 0.0) {
      fail_line(idx, "degenerate burst interval: ", line);
      return;
    }
    const double speed = m_.speeds[uidx(node)];
    if (std::abs(rate - speed) > tol_for(speed))
      fail_line(idx, "burst rate differs from node speed: ", line);
    // Unit capacity: one item at a time per node.
    double& last = node_last_t1_[uidx(node)];
    if (t0 < last - tol_for(last))
      fail(idx, "overlapping bursts on node " + std::to_string(node));
    last = std::max(last, t1);

    const auto it = live_.find(job);
    if (it == live_.end()) {
      fail_line(idx, "burst for a job not live (unadmitted or retired): ",
                line);
      return;
    }
    LiveJob& lj = it->second;
    const NodeId want = lj.path[lj.hop];
    if (node != want) {
      if (lj.hop + 1 < lj.path.size() && node == lj.path[lj.hop + 1])
        fail_line(idx, "store-and-forward violated (work before data): ", line);
      else
        fail_line(idx, "burst off the job's current hop: ", line);
      return;
    }
    if (t0 < lj.data_ready_t - tol_for(lj.data_ready_t))
      fail_line(idx, "hop started before its data arrived: ", line);
    lj.acc += (t1 - t0) * rate;
    if (lj.acc > lj.size + tol_for(lj.size))
      fail_line(idx, "more work than the requirement: ", line);
    if (lj.acc >= lj.size - tol_for(lj.size)) {
      if (lj.hop + 1 < lj.path.size()) {
        ++lj.hop;
        lj.acc = 0.0;
        lj.data_ready_t = t1;
      } else {
        lj.finish_t = t1;
      }
    }
  }

  void check_done(std::size_t idx, std::uint64_t job, double t) {
    const auto it = live_.find(job);
    if (it == live_.end()) {
      fail(idx, "done for a job not live: " + std::to_string(job));
      return;
    }
    const LiveJob& lj = it->second;
    if (lj.hop + 1 != lj.path.size() || lj.finish_t < 0.0)
      fail(idx, "done before the requirement was met: " + std::to_string(job));
    else if (std::abs(t - lj.finish_t) > tol_for(t))
      fail(idx, "done time disagrees with the final burst: " +
                    std::to_string(job));
    // Flow recomputation in completion order, compensated — by the
    // determinism contract this reproduces the writer's accumulator bits.
    flow_.add(t - lj.release);
    makespan_ = std::max(makespan_, t);
    ++done_;
    live_.erase(it);
  }

  void check_final() {
    if (!m_.has_final) return;
    const std::size_t last = m_.entries.size();
    if (!live_.empty())
      fail(last, std::to_string(live_.size()) +
                     " jobs admitted but never retired (first: " +
                     std::to_string(live_.begin()->first) + ")");
    if (m_.arrivals != admitted_ + rejected_)
      fail(last, "trailer arrivals disagree with jobrec+reject count");
    if (m_.completed != done_)
      fail(last, "trailer completed count disagrees with done lines");
    if (m_.shed != shed_) fail(last, "trailer shed count disagrees");
    if (m_.rejected != rejected_) fail(last, "trailer rejected count disagrees");
    if (m_.total_flow != flow_.value())
      fail(last, "trailer total flow does not reproduce from done lines");
    if (m_.makespan != makespan_)
      fail(last, "trailer makespan does not reproduce from done lines");
  }

  const SegmentAuditOptions& opts_;
  SegmentAuditResult& out_;
  Manifest m_;
  std::size_t violation_count_ = 0;
  std::uint64_t chain_ = kFnvOffsetBasis;
  std::map<std::uint64_t, LiveJob> live_;
  std::vector<double> node_last_t1_;  ///< per node, sized by the manifest
  double prev_key_ = 0.0;
  int prev_rank_ = 0;
  bool have_prev_in_segment_ = false;
  bool have_any_ = false;
  std::uint64_t payload_total_ = 0;
  std::uint64_t admitted_ = 0, done_ = 0, shed_ = 0, rejected_ = 0;
  util::CompensatedSum flow_;
  double makespan_ = 0.0;
};

}  // namespace

SegmentAuditResult audit_segments(const std::string& manifest_path,
                                  const SegmentAuditOptions& opts) {
  if (!(opts.tol >= 0.0) || std::isinf(opts.tol))
    throw std::invalid_argument(
        "segment audit tol must be finite and >= 0, got " +
        std::to_string(opts.tol));
  SegmentAuditResult out;
  SegmentAuditor auditor(opts, out);
  auditor.run(manifest_path);
  return out;
}

}  // namespace treesched::sim
