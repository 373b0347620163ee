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
  std::ostringstream kept;
  std::size_t seg_lines = 0;
  for (const util::LogLine& line : manifest->lines) {
    if (seg_lines == next_index) break;
    std::istringstream ls(line.text);
    std::string tag;
    ls >> tag;
    if (tag == "final") break;  // stale trailer from the killed run
    if (tag == "segment") {
      std::size_t idx = 0, n = 0;
      std::uint64_t fp = 0, ch = 0;
      TS_REQUIRE(static_cast<bool>(ls >> idx >> n >> fp >> ch) &&
                     idx == seg_lines,
                 "resume: manifest line " + std::to_string(line.number) +
                     " is corrupt (not a torn record, or a tear healed by "
                     "an older build): " + line.text);
      ++seg_lines;
      if (seg_lines == next_index)
        TS_REQUIRE(ch == chain,
                   "resume: manifest chain does not match the snapshot");
    }
    kept << line.text << '\n';
  }
  TS_REQUIRE(seg_lines == next_index,
             "resume: manifest has fewer segments than the snapshot");
  if (next_index == 0)
    TS_REQUIRE(chain == kFnvOffsetBasis,
               "resume: chain of an empty log must be the FNV offset basis");
  util::write_file_atomic(cfg_.base_path, kept.str());
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

struct ManifestEntry {
  std::size_t lines = 0;
  std::uint64_t fp = 0;
  std::uint64_t chain = 0;
};

struct ManifestData {
  double chunk = 0.0;
  std::vector<double> speeds;
  std::vector<NodeId> parents;
  std::vector<char> kinds;
  std::vector<ManifestEntry> entries;
  bool has_final = false;
  std::uint64_t arrivals = 0, completed = 0, shed = 0, rejected = 0;
  double total_flow = 0.0, makespan = 0.0;
};

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
    if (!parse_manifest(manifest_path)) return finish();
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

  bool parse_manifest(const std::string& path) {
    const std::optional<util::LogLines> manifest = util::read_log(path);
    if (!manifest) {
      fail(0, "cannot open manifest: " + path);
      return false;
    }
    bool header = false;
    for (const util::LogLine& record : manifest->lines) {
      const std::string line = util::trim(record.text);
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      bool ok = true;
      if (tag == "runlogseg") {
        int v = 0;
        ok = static_cast<bool>(ls >> v) && v == 1;
        header = ok;
      } else if (!header) {
        fail(0, "manifest missing 'runlogseg 1' header");
        return false;
      } else if (tag == "policy") {
        std::string p;
        ok = static_cast<bool>(ls >> p);
      } else if (tag == "chunk") {
        ok = static_cast<bool>(ls >> m_.chunk);
      } else if (tag == "speeds") {
        std::size_t n = 0;
        ok = static_cast<bool>(ls >> n);
        if (ok) {
          m_.speeds.resize(n);
          for (std::size_t k = 0; ok && k < n; ++k)
            ok = static_cast<bool>(ls >> m_.speeds[k]);
        }
      } else if (tag == "shedcfg") {
        std::string p;
        double cap = 0, slack = 0;
        ok = static_cast<bool>(ls >> p >> cap >> slack);
      } else if (tag == "node") {
        std::size_t id = 0;
        NodeId parent = kInvalidNode;
        char kind = 0;
        ok = static_cast<bool>(ls >> id >> parent >> kind) &&
             id == m_.parents.size();
        if (ok) {
          m_.parents.push_back(parent);
          m_.kinds.push_back(kind);
        }
      } else if (tag == "segment") {
        std::size_t idx = 0;
        ManifestEntry e;
        ok = static_cast<bool>(ls >> idx >> e.lines >> e.fp >> e.chain) &&
             idx == m_.entries.size() && !m_.has_final;
        if (ok) m_.entries.push_back(e);
      } else if (tag == "final") {
        ok = static_cast<bool>(ls >> m_.arrivals >> m_.completed >> m_.shed >>
                               m_.rejected >> m_.total_flow >> m_.makespan) &&
             !m_.has_final;
        if (ok) m_.has_final = true;
      } else {
        ok = false;
      }
      if (!ok) {
        fail(m_.entries.size(), "malformed manifest line " +
                                    std::to_string(record.number) + ": " +
                                    line);
        return false;
      }
    }
    if (!header) {
      fail(0, "manifest missing 'runlogseg 1' header");
      return false;
    }
    if (m_.speeds.size() != m_.parents.size()) {
      fail(0, "manifest speeds/node count mismatch");
      return false;
    }
    if (!m_.has_final)
      fail(m_.entries.size(), "manifest has no final trailer (unfinished run?)");
    return true;
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

    std::istringstream is(content);
    std::string line;
    std::size_t payload = 0;
    bool saw_end = false;
    bool first = true;
    while (std::getline(is, line)) {
      line = util::trim(line);
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      if (first) {
        int v = 0;
        std::size_t i = 0;
        if (tag != "runlogseg-part" || !(ls >> v >> i) || v != 1 || i != idx)
          fail(idx, "bad segment header: " + line);
        first = false;
        continue;
      }
      if (saw_end) {
        fail(idx, "payload after end marker: " + line);
        break;
      }
      if (tag == "end") {
        std::size_t i = 0, n = 0;
        if (!(ls >> i >> n) || i != idx || n != payload)
          fail(idx, "bad end marker: " + line);
        saw_end = true;
        continue;
      }
      ++payload;
      double key = 0.0;
      int rank = 0;
      if (tag == "jobrec") {
        std::uint64_t job = 0;
        double release = 0, weight = 0, size = 0;
        NodeId leaf = kInvalidNode;
        if (!(ls >> job >> release >> weight >> size >> leaf)) {
          fail(idx, "bad jobrec line: " + line);
          continue;
        }
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
        if (!(ls >> node >> job >> chunk >> t0 >> t1 >> rate)) {
          fail(idx, "bad seg line: " + line);
          continue;
        }
        key = t1;
        rank = kRankSeg;
        check_burst(idx, node, job, t0, t1, rate, line);
      } else if (tag == "done") {
        std::uint64_t job = 0;
        double t = 0;
        if (!(ls >> job >> t)) {
          fail(idx, "bad done line: " + line);
          continue;
        }
        key = t;
        rank = kRankDone;
        check_done(idx, job, t);
      } else if (tag == "shed" || tag == "reject") {
        double t = 0;
        std::uint64_t job = 0;
        if (!(ls >> t >> job)) {
          fail(idx, "bad " + tag + " line: " + line);
          continue;
        }
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
        fail(idx, "unknown payload tag: " + line);
        continue;
      }
      // Canonical order: (key, rank) within the segment, key alone across
      // segment boundaries (same-instant events may legitimately straddle a
      // commit point).
      if (have_any_ &&
          (key < prev_key_ ||
           (have_prev_in_segment_ && key == prev_key_ && rank < prev_rank_)))
        fail(idx, "canonical order violated at: " + line);
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
                   double t1, double rate, const std::string& line) {
    if (node < 0 || uidx(node) >= m_.speeds.size()) {
      fail(idx, "seg on unknown node: " + line);
      return;
    }
    if (t1 <= t0 || t0 < 0.0) {
      fail(idx, "degenerate burst interval: " + line);
      return;
    }
    const double speed = m_.speeds[uidx(node)];
    if (std::abs(rate - speed) > tol_for(speed))
      fail(idx, "burst rate differs from node speed: " + line);
    // Unit capacity: one item at a time per node.
    double& last = node_last_t1_[node];
    if (t0 < last - tol_for(last))
      fail(idx, "overlapping bursts on node " + std::to_string(node));
    last = std::max(last, t1);

    const auto it = live_.find(job);
    if (it == live_.end()) {
      fail(idx, "burst for a job not live (unadmitted or retired): " + line);
      return;
    }
    LiveJob& lj = it->second;
    const NodeId want = lj.path[lj.hop];
    if (node != want) {
      if (lj.hop + 1 < lj.path.size() && node == lj.path[lj.hop + 1])
        fail(idx, "store-and-forward violated (work before data): " + line);
      else
        fail(idx, "burst off the job's current hop: " + line);
      return;
    }
    if (t0 < lj.data_ready_t - tol_for(lj.data_ready_t))
      fail(idx, "hop started before its data arrived: " + line);
    lj.acc += (t1 - t0) * rate;
    if (lj.acc > lj.size + tol_for(lj.size))
      fail(idx, "more work than the requirement: " + line);
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
  ManifestData m_;
  std::size_t violation_count_ = 0;
  std::uint64_t chain_ = kFnvOffsetBasis;
  std::map<std::uint64_t, LiveJob> live_;
  std::map<NodeId, double> node_last_t1_;
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
  SegmentAuditResult out;
  SegmentAuditor auditor(opts, out);
  auditor.run(manifest_path);
  return out;
}

}  // namespace treesched::sim
