// Streaming endurance runner (exec/stream_runner.hpp): window invariance,
// agreement with a monolithic engine over the same arrivals, segmented
// run-log audit (accept / tamper-reject / resume), and the kill-and-resume
// differential in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "treesched/algo/policies.hpp"
#include "treesched/core/tree_builders.hpp"
#include "treesched/exec/snapshot_store.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/sim/engine.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/rng.hpp"
#include "treesched/util/string_util.hpp"
#include "treesched/workload/stream.hpp"

using namespace treesched;
namespace fs = std::filesystem;

namespace {

std::shared_ptr<const Tree> test_tree() {
  return std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
}

exec::StreamRunnerConfig base_config(std::uint64_t jobs, std::size_t window) {
  exec::StreamRunnerConfig cfg;
  cfg.stream.seed = 0x5eed;
  cfg.stream.lambda = 0.35;
  cfg.total_jobs = jobs;
  cfg.window = window;
  cfg.segment_cap = 256;
  return cfg;
}

std::string acc_bytes(const sim::StreamAccumulator& acc) {
  std::ostringstream os;
  acc.save(os);
  return os.str();
}

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

/// Chain value of the last `segment` entry of a manifest.
std::uint64_t manifest_chain(const std::string& manifest) {
  std::istringstream in(manifest);
  std::string line, tag;
  std::uint64_t chain = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::size_t idx = 0, n = 0;
    std::uint64_t fp = 0;
    if (ls >> tag && tag == "segment") ls >> idx >> n >> fp >> chain;
  }
  return chain;
}

}  // namespace

TEST(StreamRunnerTest, ResultsAreWindowInvariant) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const auto r64 = exec::run_stream(tree, speeds, base_config(800, 64));
  const auto r1k = exec::run_stream(tree, speeds, base_config(800, 1024));
  EXPECT_EQ(r64.arrivals, 800u);
  EXPECT_EQ(acc_bytes(r64.acc), acc_bytes(r1k.acc));
}

TEST(StreamRunnerTest, MatchesMonolithicEngineExactly) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const auto cfg = base_config(600, 128);
  const auto streamed = exec::run_stream(tree, speeds, cfg);

  // The same arrivals as one big instance through the ordinary engine.
  workload::JobStream stream(cfg.stream);
  workload::StreamCursor cur;
  std::vector<Job> jobs;
  for (std::uint64_t i = 0; i < cfg.total_jobs; ++i) {
    const workload::StreamJob a = stream.next(cur);
    jobs.emplace_back(static_cast<JobId>(i), a.release, a.size);
  }
  const Instance inst(tree, std::move(jobs), EndpointModel::kIdentical);
  algo::PaperGreedyPolicy policy(cfg.eps);
  sim::Engine engine(inst, speeds, sim::EngineConfig{});
  engine.run(policy);

  EXPECT_EQ(streamed.acc.completed, cfg.total_jobs);
  // Bit-equal objectives: windowing must be invisible in the metrics.
  EXPECT_EQ(streamed.acc.flow.value(), engine.metrics().total_flow_time());
  EXPECT_EQ(streamed.acc.makespan, engine.metrics().makespan());
  EXPECT_EQ(streamed.acc.max_flow, engine.metrics().max_flow_time());
}

TEST(StreamRunnerTest, SegmentedLogPassesAudit) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_seg_ok");
  auto cfg = base_config(500, 128);
  cfg.record_path = dir + "/manifest.log";
  const auto res = exec::run_stream(tree, speeds, cfg);
  EXPECT_GT(res.segments_written, 1u);

  const sim::SegmentAuditResult audit = sim::audit_segments(cfg.record_path);
  EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                ? "no violations?"
                                : audit.violations.front().message);
  EXPECT_EQ(audit.arrivals, 500u);
  EXPECT_EQ(audit.completed, 500u);
  EXPECT_EQ(audit.segments, res.segments_written);
}

TEST(StreamRunnerTest, AuditRejectsTamperedSegment) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_seg_tamper");
  auto cfg = base_config(400, 128);
  cfg.record_path = dir + "/manifest.log";
  exec::run_stream(tree, speeds, cfg);

  const std::string seg = sim::segment_log_path(cfg.record_path, 0);
  std::string bytes = slurp(seg);
  ASSERT_FALSE(bytes.empty());
  const std::size_t at = bytes.find("seg ");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 4] = bytes[at + 4] == '1' ? '2' : '1';
  std::ofstream(seg, std::ios::binary) << bytes;

  const sim::SegmentAuditResult audit = sim::audit_segments(cfg.record_path);
  EXPECT_FALSE(audit.ok);
  bool saw_fp = false;
  for (const auto& v : audit.violations)
    if (v.message.find("fingerprint") != std::string::npos) saw_fp = true;
  EXPECT_TRUE(saw_fp);
}

TEST(StreamRunnerTest, AuditRejectsDroppedSegment) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_seg_drop");
  auto cfg = base_config(500, 128);
  cfg.record_path = dir + "/manifest.log";
  const auto res = exec::run_stream(tree, speeds, cfg);
  ASSERT_GT(res.segments_written, 2u);

  // Splice segment 1 out of the manifest: the chain over segment 2 no
  // longer extends segment 0's, so the audit must notice the gap.
  std::istringstream in(slurp(cfg.record_path));
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.find("segment 1 ") != 0) out << line << '\n';
  std::ofstream(cfg.record_path, std::ios::binary) << out.str();

  EXPECT_FALSE(sim::audit_segments(cfg.record_path).ok);
}

TEST(StreamRunnerTest, KillAndResumeIsByteIdentical) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);

  // Reference: uninterrupted, but with the same snapshot cadence (each
  // snapshot force-commits a segment, so cadence shapes segment bounds).
  const std::string ref_dir = fresh_dir("stream_resume_ref");
  auto ref_cfg = base_config(900, 128);
  ref_cfg.record_path = ref_dir + "/manifest.log";
  ref_cfg.snapshot_every = 300;
  ref_cfg.snapshot_path = ref_dir + "/snap.bin";
  const auto ref = exec::run_stream(tree, speeds, ref_cfg);
  EXPECT_FALSE(ref.interrupted);
  EXPECT_EQ(ref.snapshots_written, 2u);  // at 300 and 600; not at the end

  // Killed run: dies right after the first snapshot...
  const std::string kill_dir = fresh_dir("stream_resume_kill");
  auto kill_cfg = ref_cfg;
  kill_cfg.record_path = kill_dir + "/manifest.log";
  kill_cfg.snapshot_path = kill_dir + "/snap.bin";
  kill_cfg.die_after_snapshot = 1;
  const auto killed = exec::run_stream(tree, speeds, kill_cfg);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.arrivals, 300u);

  // ...and the resumed process finishes the stream.
  auto resume_cfg = kill_cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = kill_cfg.snapshot_path;
  const auto resumed = exec::run_stream(tree, speeds, resume_cfg);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.arrivals, 900u);

  // Metrics bits and every run-log byte match the uninterrupted run.
  EXPECT_EQ(acc_bytes(resumed.acc), acc_bytes(ref.acc));
  EXPECT_EQ(slurp(kill_cfg.record_path), slurp(ref_cfg.record_path));
  const sim::SegmentAuditResult audit =
      sim::audit_segments(kill_cfg.record_path);
  EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                ? "no violations?"
                                : audit.violations.front().message);
  for (std::size_t i = 0; i < audit.segments; ++i)
    EXPECT_EQ(slurp(sim::segment_log_path(kill_cfg.record_path, i)),
              slurp(sim::segment_log_path(ref_cfg.record_path, i)))
        << "segment " << i;
}

TEST(StreamRunnerTest, ResumeRejectsMismatchedSpec) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_resume_bad");
  auto cfg = base_config(400, 128);
  cfg.snapshot_every = 200;
  cfg.snapshot_path = dir + "/snap.bin";
  cfg.die_after_snapshot = 1;
  exec::run_stream(tree, speeds, cfg);

  auto bad = cfg;
  bad.die_after_snapshot = 0;
  bad.resume_snapshot = cfg.snapshot_path;
  bad.stream.lambda = 0.9;  // different arrival process: different run
  EXPECT_THROW(exec::run_stream(tree, speeds, bad), std::invalid_argument);
}

TEST(StreamRunnerTest, SheddingStreamAuditsClean) {
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_shed");
  auto cfg = base_config(600, 128);
  cfg.stream.lambda = 1.2;  // overload: force shed/reject traffic
  cfg.shed.policy = overload::ShedPolicy::kLargestFirst;
  cfg.shed.queue_cap = 48.0;
  cfg.record_path = dir + "/manifest.log";
  const auto res = exec::run_stream(tree, speeds, cfg);
  EXPECT_EQ(res.acc.completed + res.acc.shed + res.acc.rejected, 600u);
  EXPECT_GT(res.acc.shed + res.acc.rejected, 0u);

  const sim::SegmentAuditResult audit = sim::audit_segments(cfg.record_path);
  EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                ? "no violations?"
                                : audit.violations.front().message);
}

TEST(StreamRunnerTest, RunLogBytesArePinned) {
  // A fixed small stream that emits every payload kind (jobrec, seg, done,
  // shed, reject) and crosses snapshot-forced commits. The chain covers every
  // segment byte and the manifest hash covers the header and trailer, so a
  // formatting drift of one byte anywhere fails here.
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_pinned");
  auto cfg = base_config(600, 96);
  cfg.stream.lambda = 1.2;
  cfg.shed.policy = overload::ShedPolicy::kLargestFirst;
  cfg.shed.queue_cap = 48.0;
  cfg.record_path = dir + "/manifest.log";
  cfg.snapshot_every = 250;
  cfg.snapshot_path = dir + "/snap.bin";
  const auto res = exec::run_stream(tree, speeds, cfg);
  ASSERT_GT(res.acc.shed, 0u);
  ASSERT_GT(res.acc.rejected, 0u);
  ASSERT_GT(res.max_window, cfg.window);  // in-flight window extension
  const std::string manifest = slurp(cfg.record_path);
  EXPECT_EQ(manifest_chain(manifest), 0x2568f1dfcfc87d51ULL);
  EXPECT_EQ(util::fnv1a_64(manifest), 0x4572a8daeb5053d5ULL);
}

TEST(StreamRunnerTest, RunLogNumbersFormatLikeTheStream) {
  // Run-log lines are built with util::append_number; its bytes must be
  // those of an ostream at setprecision(17), which the golden logs pin.
  const auto streamed = [](auto v) {
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
  };
  const auto appended = [](auto v) {
    std::string out;
    util::append_number(out, v);
    return out;
  };
  const double table[] = {0.0,
                          -0.0,
                          5e-324,
                          DBL_MIN,
                          1e16,
                          1e17,
                          1e21,
                          0.1,
                          1.0 / 3.0,
                          -2.5,
                          DBL_MAX,
                          -DBL_MAX,
                          1.0,
                          42.0,
                          4096.0,
                          123456789.0,
                          9007199254740992.0,
                          1e-5,
                          0.0001,
                          123456.78901234567,
                          std::numeric_limits<double>::infinity()};
  for (const double v : table) EXPECT_EQ(appended(v), streamed(v)) << v;
  util::Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    // Uniform bit patterns cover every exponent; skip NaN payloads.
    const std::uint64_t bits = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (v != v) continue;
    ASSERT_EQ(appended(v), streamed(v)) << "bits " << bits;
    const double t = rng.uniform01() * 1e4;  // simulation-time-like values
    ASSERT_EQ(appended(t), streamed(t));
  }
  const NodeId no_node = kInvalidNode;
  EXPECT_EQ(appended(no_node), streamed(no_node));
  EXPECT_EQ(appended(std::numeric_limits<std::uint64_t>::max()),
            streamed(std::numeric_limits<std::uint64_t>::max()));
  EXPECT_EQ(appended(std::int32_t{0}), "0");
}

TEST(StreamRunnerTest, RunLogNumbersFastPathMatchesTheStream) {
  // util::append_number prints finite |v| in [1e-4, 2^53) with its own
  // integer arithmetic, everything else with std::to_chars. Over a million
  // values aimed at the fast path's edges — every decimal exponent, exact
  // ties, the neighbours of powers of ten, the range limits — the bytes must
  // still be those of an ostream at setprecision(17).
  std::ostringstream os;
  os << std::setprecision(17);
  std::string out;
  std::size_t checked = 0;
  const auto check = [&](double v) {
    if (::testing::Test::HasFailure()) return;  // report the first only
    os.str("");
    os << v;
    out.clear();
    util::append_number(out, v);
    ++checked;
    ASSERT_EQ(out, os.str()) << std::hexfloat << v;
  };
  const auto check_both = [&](double v) {
    check(v);
    check(-v);
  };
  const auto check_ulps = [&](double v, int n) {
    double up = v, down = v;
    for (int k = 0; k <= n; ++k) {
      check_both(up);
      check_both(down);
      up = std::nextafter(up, HUGE_VAL);
      down = std::nextafter(down, 0.0);
    }
  };
  util::Rng rng(23);
  // Every decimal exponent the fast path prints, random 53-bit mantissas.
  for (int x = -4; x <= 15; ++x) {
    const double lo = std::pow(10.0, x);
    for (int i = 0; i < 10000; ++i)
      check_both(lo * (1.0 + 9.0 * rng.uniform01()));
  }
  // Exact ties: k / 2^j with k of few significant bits has a short exact
  // decimal expansion, so the 18th digit can be a final 5 (1 + 2^-17 =
  // 1.00000762939453125 rounds to even, 1 + 3 * 2^-17 rounds up).
  check(1.00000762939453125);
  check(1.00002288818359375);
  for (int i = 0; i < 100000; ++i) {
    const int bits = static_cast<int>(rng.uniform_int(1, 24));
    const auto k = static_cast<double>(
        rng.uniform_int(1, (std::int64_t{1} << bits) - 1) | 1);
    check_both(std::ldexp(k, -static_cast<int>(rng.uniform_int(0, 66))));
  }
  // Carries: 17 digits round up to the next power of ten only within 5e-18
  // below it (9.99999999999999995 * 10^x), and the doubles around each power
  // of ten sit on both sides of a digit count change.
  for (int x = -5; x <= 17; ++x) check_ulps(std::pow(10.0, x), 256);
  // Both edges of the fast range.
  check_ulps(1e-4, 2000);
  check_ulps(0x1p53, 2000);
  // Outside the fast range: signed zeros, subnormals, the normal limits,
  // infinities.
  for (const double v : {0.0, 5e-324, DBL_MIN, DBL_MAX, HUGE_VAL})
    check_both(v);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t bits = rng.next_u64() & ((std::uint64_t{1} << 52) - 1);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    check_both(v);
  }
  // Release and finish times of a stream: Poisson arrivals, bounded-Pareto
  // sizes.
  double release = 0.0;
  for (int i = 0; i < 200000; ++i) {
    release += rng.exponential(0.7);
    const double size = rng.bounded_pareto(1.0, 1000.0, 1.5);
    check(release);
    check(size);
    check(release + size / 1.5);
  }
  EXPECT_GE(checked, 1000000u);
}

TEST(StreamRunnerTest, ResumeFromOlderEngineStateIsUnrecoverable) {
  // Every generation verifies clean, but its engine section is the previous
  // enginestate version (2, one line per touched job), which load_state
  // rejects with std::invalid_argument. The ladder must walk all of them
  // and end in SnapshotUnrecoverableError — treesched_run's documented exit
  // code for an exhausted ladder — without crashing.
  auto tree = test_tree();
  const SpeedProfile speeds = SpeedProfile::paper_identical(*tree, 0.5);
  const std::string dir = fresh_dir("stream_resume_v2");
  auto cfg = base_config(600, 128);
  cfg.snapshot_every = 150;
  cfg.snapshot_path = dir + "/snap.bin";
  cfg.die_after_snapshot = 3;
  exec::run_stream(tree, speeds, cfg);

  exec::SnapshotStore current(cfg.snapshot_path, cfg.snapshot_keep);
  std::vector<exec::SnapshotGeneration> gens = current.generations();
  ASSERT_EQ(gens.size(), 3u);
  std::reverse(gens.begin(), gens.end());  // oldest first, as written
  exec::SnapshotStore old(dir + "/old.bin", cfg.snapshot_keep);
  for (const exec::SnapshotGeneration& gen : gens) {
    std::vector<exec::SnapshotSection> sections =
        exec::decode_snapshot_envelope(*current.read(gen));
    for (exec::SnapshotSection& sec : sections) {
      if (sec.name != "engine") continue;
      ASSERT_EQ(sec.payload.rfind("enginestate 3\n", 0), 0u);
      sec.payload[12] = '2';
    }
    old.write(gen.progress, exec::encode_snapshot_envelope(sections));
  }

  auto resume = cfg;
  resume.die_after_snapshot = 0;
  resume.resume_snapshot = old.base_path();
  try {
    exec::run_stream(tree, speeds, resume);
    ADD_FAILURE() << "resumed from v2-only generations";
  } catch (const exec::SnapshotUnrecoverableError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported enginestate version 2"),
              std::string::npos)
        << e.what();
  }
}
