// Strict record grammar (util/fields.hpp): one table of on-disk records,
// each given well-formed and with one defect. Every decoder must accept the
// first and reject the second with a typed error or an audit violation —
// the defects are ones stream extraction let through: a field left over, a
// negative value in an unsigned field, a number with trailing characters,
// and values a crafted snapshot envelope can carry past its fingerprints
// (among them a count that would size an allocation).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/exec/snapshot_store.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/exec/sweep.hpp"
#include "treesched/guard/guard_log.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/util/fields.hpp"
#include "treesched/workload/stream.hpp"
#include "treesched/workload/trace_io.hpp"

using namespace treesched;
namespace fs = std::filesystem;

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

using LineEdit = std::function<std::string(const std::string&)>;

/// `text` (whole lines) with the first line that starts with `prefix` and
/// satisfies `also` replaced by edit(line).
std::string edit_line(
    const std::string& text, const std::string& prefix, const LineEdit& edit,
    const std::function<bool(const std::string&)>& also = nullptr) {
  std::istringstream is(text);
  std::string out;
  bool edited = false;
  for (std::string line; std::getline(is, line);) {
    if (!edited && line.rfind(prefix, 0) == 0 && (!also || also(line))) {
      line = edit(line);
      edited = true;
    }
    out += line + '\n';
  }
  EXPECT_TRUE(edited) << "no '" << prefix << "' line to edit";
  return out;
}

/// The `index`-th whitespace-separated token of `line`.
std::string token(const std::string& line, std::size_t index) {
  std::istringstream is(line);
  std::string tok;
  for (std::size_t i = 0; i <= index; ++i) is >> tok;
  return is ? tok : std::string();
}

/// `line` with its `index`-th token replaced.
std::string with_token(const std::string& line, std::size_t index,
                       const std::string& tok) {
  std::istringstream is(line);
  std::string out, t;
  for (std::size_t i = 0; is >> t; ++i)
    out += (i ? " " : "") + (i == index ? tok : t);
  return out;
}

/// True when the decoder accepted the bytes; false on std::invalid_argument.
bool accepts(const std::function<void()>& decode) {
  try {
    decode();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

struct Case {
  std::string name;
  std::string good;  ///< a well-formed record set
  std::string bad;   ///< the same with one defect
  std::function<bool(const std::string&)> decodes;
};

// --- segmented run log: one manifest, two readers --------------------------

struct SegmentedLog {
  std::shared_ptr<const Tree> tree =
      std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
  SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  std::string path;
  std::string manifest;
  std::size_t segments = 0;
  std::uint64_t chain = 0;
};

SegmentedLog segmented_log() {
  SegmentedLog log;
  exec::StreamRunnerConfig cfg;
  cfg.stream.seed = 0x5eed;
  cfg.stream.lambda = 0.35;
  cfg.total_jobs = 300;
  cfg.window = 64;
  cfg.segment_cap = 64;
  cfg.record_path = fresh_dir("decode_seg") + "/m.log";
  const exec::StreamRunnerResult res =
      exec::run_stream(log.tree, log.speeds, cfg);
  log.path = cfg.record_path;
  log.manifest = slurp(log.path);
  log.segments = res.segments_written;
  std::istringstream is(log.manifest);
  for (std::string line; std::getline(is, line);)
    if (line.rfind("segment ", 0) == 0)
      log.chain = std::stoull(token(line, 4));
  return log;
}

// --- a mid-run engine state in a re-fingerprinted envelope -----------------

struct EngineSnapshot {
  std::shared_ptr<const Tree> tree =
      std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
  SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  std::unique_ptr<Instance> inst;
  std::string state;
};

EngineSnapshot engine_snapshot() {
  EngineSnapshot snap;
  workload::StreamSpec spec;
  spec.seed = 7;
  spec.lambda = 0.9;
  workload::JobStream stream(spec);
  workload::StreamCursor cur;
  std::vector<Job> jobs;
  for (JobId j = 0; j < 60; ++j) {
    const workload::StreamJob a = stream.next(cur);
    jobs.emplace_back(j, a.release, a.size);
  }
  snap.inst = std::make_unique<Instance>(snap.tree, std::move(jobs),
                                         EndpointModel::kIdentical);
  sim::Engine engine(*snap.inst, snap.speeds, sim::EngineConfig{});
  algo::PaperGreedyPolicy policy(0.5);
  for (const Job& job : snap.inst->jobs()) {
    engine.advance_to(job.release);
    engine.admit(job.id, policy.assign(engine, job));
  }
  engine.save_state(snap.state);
  return snap;
}

std::string envelope(const std::string& engine_state) {
  std::string out;
  exec::encode_snapshot_envelope({{"engine", engine_state}}, out);
  return out;
}

std::vector<Case> cases() {
  std::vector<Case> out;

  const auto seg = std::make_shared<SegmentedLog>(segmented_log());
  const std::string bad_manifest =
      edit_line(seg->manifest, "segment ",
                [](const std::string& l) { return l + " 0"; });
  out.push_back({"segment manifest, audit", seg->manifest, bad_manifest,
                 [seg](const std::string& bytes) {
                   spill(seg->path, bytes);
                   return sim::audit_segments(seg->path).ok;
                 }});
  out.push_back({"segment manifest, resume", seg->manifest, bad_manifest,
                 [seg](const std::string& bytes) {
                   spill(seg->path, bytes);
                   sim::SegmentedRunLogWriter writer(
                       {seg->path, 64}, *seg->tree, seg->speeds.speeds(),
                       sim::NodePolicy::kSjf, 0.0, overload::ShedConfig{});
                   return accepts(
                       [&] { writer.resume(seg->segments, seg->chain); });
                 }});

  const std::string guard_path = fresh_dir("decode_guard") + "/guard.log";
  const std::string guard =
      "treesched-guardlog-v1\n"
      "ceiling rss 0 queue 64 arena 0 deadline 1.500000\n"
      "guard 0.250000 supervisor start pid 42\n";
  out.push_back({"guard log", guard,
                 edit_line(guard, "ceiling ",
                           [](const std::string& l) {
                             return with_token(l, 2, "-1");
                           }),
                 [guard_path](const std::string& bytes) {
                   spill(guard_path, bytes);
                   return guard::audit_guard_log(guard_path).ok;
                 }});

  exec::SweepSpec sweep;
  sweep.policies = {"paper"};
  sweep.trees = {"star-2x3"};
  sweep.eps_grid = {0.5};
  sweep.seeds = 2;
  sweep.jobs = 20;
  sweep.threads = 1;
  sweep.checkpoint = fresh_dir("decode_sweep") + "/sweep.ckpt";
  exec::run_sweep(sweep);
  sweep.resume = true;
  // A fully-shed cell journals its mean flow (field 5) as "nan".
  const std::string journal = edit_line(
      slurp(sweep.checkpoint), "task ",
      [](const std::string& l) { return with_token(l, 5, "nan"); });
  out.push_back({"sweep journal", journal,
                 edit_line(journal, "task ",
                           [](const std::string& l) { return l + " extra"; }),
                 [sweep](const std::string& bytes) {
                   spill(sweep.checkpoint, bytes);
                   return accepts([&] { exec::run_sweep(sweep); });
                 }});

  const std::string run_log =
      "runlog 1\npolicy sjf\nchunk 0\nspeeds 2 1 1.5\njob 0 2 1 1\n"
      "seg 1 0 0 0 2 1.5\n";
  out.push_back({"run log", run_log,
                 edit_line(run_log, "seg ",
                           [](const std::string& l) { return l + "x"; }),
                 [](const std::string& bytes) {
                   return accepts([&] { sim::read_run_log(bytes); });
                 }});

  const std::string trace =
      "tree 4\nnode 0 -1 root\nnode 1 0 router\nnode 2 1 machine\n"
      "node 3 1 machine\nmodel unrelated\njob 0 0 1 1 -1 2 3\n";
  out.push_back({"trace", trace,
                 edit_line(trace, "job ",
                           [](const std::string& l) { return l + " x"; }),
                 [](const std::string& bytes) {
                   return accepts([&] { workload::read_trace(bytes); });
                 }});

  // Engine state: the envelope's fingerprints are recomputed around the
  // edit, so only Engine::load_state stands between it and the engine.
  const auto snap = std::make_shared<EngineSnapshot>(engine_snapshot());
  const auto loads = [snap](const std::string& bytes) {
    const auto sections = exec::decode_snapshot_envelope(bytes);
    sim::Engine engine(*snap->inst, snap->speeds, sim::EngineConfig{});
    return accepts([&] {
      engine.load_state(exec::find_snapshot_section(sections, "engine"));
      engine.run_to_completion();
    });
  };
  // The running item of a node names a job id past the window.
  out.push_back(
      {"engine state, running job", envelope(snap->state),
       envelope(edit_line(
           snap->state, "node ",
           [](const std::string& l) { return with_token(l, 7, "1000000"); },
           [](const std::string& l) { return token(l, 4) == "1"; })),
       loads});
  // A shed record whose kind is none of reject, shed, admit.
  out.push_back({"engine state, shed kind", envelope(snap->state),
                 envelope(edit_line(snap->state, "shedlog ",
                                    [](const std::string&) {
                                      return std::string(
                                          "shedlog 1\nsl 3 0 0 -1 -1");
                                    })),
                 loads});
  // A metrics record whose node-completion stamp count (token 10) no bytes
  // left could hold: rejected before the stamps are sized from it.
  out.push_back(
      {"engine state, stamp count", envelope(snap->state),
       envelope(edit_line(snap->state, "jr ",
                          [](const std::string& l) {
                            return with_token(l, 10, "4000000000");
                          })),
       loads});
  return out;
}

TEST(Decode, StrictRecordsAcceptGoodAndRejectOneDefect) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    ASSERT_NE(c.good, c.bad);
    EXPECT_TRUE(c.decodes(c.good));
    EXPECT_FALSE(c.decodes(c.bad));
  }
}

TEST(Decode, FieldsReadsWholeTokensOnly) {
  std::uint64_t u = 7;
  EXPECT_FALSE(util::parse_number("-1", u));
  EXPECT_FALSE(util::parse_number("+1", u));
  EXPECT_FALSE(util::parse_number("12abc", u));
  EXPECT_FALSE(util::parse_number("", u));
  EXPECT_EQ(u, 7u);
  double d = 0.0;
  EXPECT_FALSE(util::parse_number("1.5x", d));
  EXPECT_TRUE(util::parse_number("nan", d) && std::isnan(d));
  EXPECT_TRUE(util::parse_number("-inf", d) && std::isinf(d) && d < 0);
  EXPECT_TRUE(util::parse_number("4.9406564584124654e-324", d) && d > 0);

  const std::string text = " a  12\t-3 1e3\n";
  util::Fields f(text);
  std::string_view tag;
  int i = 0, j = 0;
  double x = 0.0;
  EXPECT_TRUE((f >> tag >> i >> j >> x) && f.done());
  EXPECT_EQ(tag, "a");
  EXPECT_EQ(i, 12);
  EXPECT_EQ(j, -3);
  EXPECT_EQ(x, 1000.0);
  EXPECT_FALSE(f >> x);  // nothing left: the failure sticks
  EXPECT_FALSE(util::Fields("b 1").expect("a") >> i);
  char c = 0;
  EXPECT_FALSE(util::Fields("rr") >> c);
}

}  // namespace
