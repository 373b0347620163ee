// Durability chaos battery: the snapshot envelope/store contracts, and
// kill-points × injected I/O faults swept over a streaming shed run. The
// invariant under test everywhere: a resumed run is BYTE-IDENTICAL to the
// uninterrupted one, or the process fails loudly with a typed error —
// never silent divergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "treesched/core/tree_builders.hpp"
#include "treesched/exec/snapshot_store.hpp"
#include "treesched/exec/stream_runner.hpp"
#include "treesched/overload/controller.hpp"
#include "treesched/sim/metrics.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/util/failpoint.hpp"
#include "treesched/util/hash.hpp"

using namespace treesched;
namespace fs = std::filesystem;

namespace {

std::shared_ptr<const Tree> test_tree() {
  return std::make_shared<const Tree>(builders::fat_tree(2, 2, 2));
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

std::string acc_bytes(const sim::StreamAccumulator& acc) {
  std::ostringstream os;
  acc.save(os);
  return os.str();
}

/// An overloaded (rho >> 1) shedding stream with snapshots every 300
/// arrivals — the chaos battery's workload. 900 jobs → snapshots at 300
/// and 600, none at the end.
exec::StreamRunnerConfig chaos_config(const std::string& dir) {
  exec::StreamRunnerConfig cfg;
  cfg.stream.seed = 0xc4a05;
  cfg.stream.lambda = 1.4;  // ~4x the stable-rate baseline: sustained shed
  cfg.total_jobs = 900;
  cfg.window = 128;
  cfg.segment_cap = 256;
  cfg.shed.policy = overload::ShedPolicy::kLargestFirst;
  cfg.shed.queue_cap = 32.0;
  cfg.record_path = dir + "/manifest.log";
  cfg.snapshot_every = 300;
  cfg.snapshot_path = dir + "/snap";
  return cfg;
}

struct RefRun {
  std::string dir;
  exec::StreamRunnerConfig cfg;
  exec::StreamRunnerResult res;
};

RefRun reference_run(const std::string& name) {
  RefRun ref;
  ref.dir = fresh_dir(name);
  ref.cfg = chaos_config(ref.dir);
  ref.res = exec::run_stream(test_tree(),
                             SpeedProfile::paper_identical(*test_tree(), 0.5),
                             ref.cfg);
  EXPECT_FALSE(ref.res.interrupted);
  EXPECT_GT(ref.res.acc.shed + ref.res.acc.rejected, 0u);
  EXPECT_FALSE(ref.res.overload_state.empty());
  return ref;
}

/// Asserts the resumed run converged to the same bytes as the reference:
/// metrics accumulator, durable overload state, rho-hat, and every run-log
/// artifact on disk.
void expect_byte_identical(const RefRun& ref,
                           const exec::StreamRunnerConfig& cfg,
                           const exec::StreamRunnerResult& res) {
  EXPECT_FALSE(res.interrupted);
  EXPECT_EQ(res.arrivals, ref.res.arrivals);
  EXPECT_EQ(acc_bytes(res.acc), acc_bytes(ref.res.acc));
  EXPECT_EQ(res.overload_state, ref.res.overload_state);
  EXPECT_EQ(res.rho_hat_root, ref.res.rho_hat_root);  // bit-exact
  EXPECT_EQ(slurp(cfg.record_path), slurp(ref.cfg.record_path));
  const sim::SegmentAuditResult audit = sim::audit_segments(cfg.record_path);
  EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                ? "no violations?"
                                : audit.violations.front().message);
  for (std::size_t i = 0; i < audit.segments; ++i)
    EXPECT_EQ(slurp(sim::segment_log_path(cfg.record_path, i)),
              slurp(sim::segment_log_path(ref.cfg.record_path, i)))
        << "segment " << i;
}

class DurabilityChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { util::disarm_failpoints(); }
};

// ---------------------------------------------------------------- envelope

TEST_F(DurabilityChaosTest, EnvelopeRoundTripsAdversarialPayloads) {
  // Payloads that contain header-look-alike lines and raw NULs: the
  // length-driven parser must not be fooled.
  const std::vector<exec::SnapshotSection> in = {
      {"stream", "streamsnap 2\nspec 42\n"},
      {"empty", ""},
      {"tricky", std::string("section x 3 5\nwhole 9\n\0bin", 26)},
  };
  const std::string bytes = exec::encode_snapshot_envelope(in);
  const auto out = exec::decode_snapshot_envelope(bytes);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].name, in[i].name);
    EXPECT_EQ(out[i].payload, in[i].payload);
  }
  EXPECT_EQ(exec::find_snapshot_section(out, "tricky"), in[2].payload);
  EXPECT_THROW(exec::find_snapshot_section(out, "absent"),
               std::invalid_argument);
}

TEST_F(DurabilityChaosTest, EnvelopeRejectsEveryTruncation) {
  const std::string bytes = exec::encode_snapshot_envelope(
      {{"a", "hello world\n"}, {"b", "0123456789"}});
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_THROW(exec::decode_snapshot_envelope(bytes.substr(0, len)),
                 std::invalid_argument)
        << "prefix of length " << len << " decoded";
  // Trailing garbage is damage too (exact byte accounting).
  EXPECT_THROW(exec::decode_snapshot_envelope(bytes + "x"),
               std::invalid_argument);
  EXPECT_NO_THROW(exec::decode_snapshot_envelope(bytes));
}

TEST_F(DurabilityChaosTest, EnvelopeRejectsEveryBitFlip) {
  const std::string bytes = exec::encode_snapshot_envelope(
      {{"a", "hello world\n"}, {"b", "0123456789"}});
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mut = bytes;
    mut[i] = static_cast<char>(mut[i] ^ 0x01);
    EXPECT_THROW(exec::decode_snapshot_envelope(mut), std::invalid_argument)
        << "flip at byte " << i << " decoded";
  }
}

// ------------------------------------------------------------------- store

TEST_F(DurabilityChaosTest, StoreRotatesGenerationsUnderKeepBudget) {
  const std::string dir = fresh_dir("chaos_store_rotate");
  exec::SnapshotStore store(dir + "/snap", 3);
  std::vector<std::string> envs;
  for (int i = 0; i < 5; ++i) {
    envs.push_back(exec::encode_snapshot_envelope(
        {{"n", "payload " + std::to_string(i) + "\n"}}));
    store.write(static_cast<std::uint64_t>((i + 1) * 100), envs.back());
  }
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), 3u);  // keep budget
  EXPECT_EQ(gens[0].progress, 500u);  // newest first
  EXPECT_EQ(gens[2].progress, 300u);
  for (const auto& g : gens) {
    const auto bytes = store.read(g);
    ASSERT_TRUE(bytes.has_value()) << g.path;
    EXPECT_EQ(util::fnv1a_64(*bytes), g.fingerprint);
  }
  EXPECT_EQ(*store.read(gens[0]), envs[4]);
  // The rotated-out generations are really gone (they were healthy).
  EXPECT_FALSE(fs::exists(dir + "/snap.gen000"));
  EXPECT_FALSE(fs::exists(dir + "/snap.gen001"));
  EXPECT_TRUE(fs::exists(dir + "/snap.gen004"));
}

TEST_F(DurabilityChaosTest, StoreQuarantineRenamesAndLogs) {
  const std::string dir = fresh_dir("chaos_store_quar");
  exec::SnapshotStore store(dir + "/snap", 3);
  store.write(100, exec::encode_snapshot_envelope({{"n", "x\n"}}));
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), 1u);
  store.quarantine(gens[0], "unit-test damage");
  EXPECT_FALSE(fs::exists(gens[0].path));
  EXPECT_TRUE(fs::exists(gens[0].path + ".quarantined"));
  const std::string log = slurp(store.quarantine_log_path());
  EXPECT_NE(log.find("gen 0"), std::string::npos);
  EXPECT_NE(log.find("unit-test damage"), std::string::npos);
}

TEST_F(DurabilityChaosTest, StoreManifestIsOnlyAppended) {
  const std::string dir = fresh_dir("chaos_store_append");
  exec::SnapshotStore store(dir + "/snap", 2);
  std::string before;
  for (int i = 0; i < 4; ++i) {
    store.write(static_cast<std::uint64_t>((i + 1) * 100),
                exec::encode_snapshot_envelope(
                    {{"n", "payload " + std::to_string(i) + "\n"}}));
    const std::string after = slurp(dir + "/snap");
    EXPECT_EQ(after.compare(0, before.size(), before), 0)
        << "snapshot " << i << " rewrote the manifest";
    before = after;
  }
  EXPECT_EQ(before.rfind("treesched-snapmanifest-v2\ngen 0 100 ", 0), 0u)
      << before;
  // Every record stays; the live generations are the newest `keep`.
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0].index, 3);
  EXPECT_EQ(gens[1].index, 2);
  EXPECT_FALSE(fs::exists(dir + "/snap.gen001"));
}

TEST_F(DurabilityChaosTest, StoreSettlesStrayGenerations) {
  const std::string dir = fresh_dir("chaos_store_strays");
  const std::string base = dir + "/snap";
  {
    // gen 1's record tears; gens 2 and 3 land after it.
    util::ScopedFailpoints guard("snapmanifest.append:torn-write:2");
    exec::SnapshotStore store(base, 3);
    for (int i = 0; i < 4; ++i)
      store.write(static_cast<std::uint64_t>((i + 1) * 100),
                  exec::encode_snapshot_envelope(
                      {{"n", "payload " + std::to_string(i) + "\n"}}));
  }
  // As after a kill before retention ran: gen 0 is recorded but has left
  // the window (of 2 now) with its file still there. Files that are not
  // generations stay untouched.
  spit(base + ".gen000", "retired generation");
  exec::SnapshotStore store(base, 2);
  ASSERT_TRUE(fs::exists(base + ".gen001"));
  spit(base + ".gen0003", "not a generation name");
  spit(base + ".gen002.tmp", "not a generation name");
  const auto quarantined = store.quarantine_uncommitted();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].index, 1);
  EXPECT_FALSE(fs::exists(base + ".gen001"));  // never recorded: set aside
  EXPECT_TRUE(fs::exists(base + ".gen001.quarantined"));
  EXPECT_NE(slurp(store.quarantine_log_path()).find("gen 1 "),
            std::string::npos);
  EXPECT_TRUE(fs::exists(base + ".gen000"));  // retired: healthy, kept
  EXPECT_TRUE(store.quarantine_uncommitted().empty());  // idempotent
  store.delete_retired();
  EXPECT_FALSE(fs::exists(base + ".gen000"));  // retired: deleted
  EXPECT_TRUE(fs::exists(base + ".gen001.quarantined"));
  EXPECT_TRUE(fs::exists(base + ".gen002"));
  EXPECT_TRUE(fs::exists(base + ".gen003"));
  EXPECT_TRUE(fs::exists(base + ".gen0003"));
  EXPECT_TRUE(fs::exists(base + ".gen002.tmp"));
}

TEST_F(DurabilityChaosTest, StoreRejectsAV1Manifest) {
  const std::string dir = fresh_dir("chaos_store_v1");
  spit(dir + "/snap",
       "treesched-snapmanifest-v1\nkeep 3\ngen 0 100 12345\n");
  const exec::SnapshotStore store(dir + "/snap", 3);
  try {
    store.generations();
    ADD_FAILURE() << "a v1 manifest was read";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("treesched-snapmanifest-v1"),
              std::string::npos)
        << e.what();
  }
  // A malformed record that no append tore is corruption too.
  spit(dir + "/snap", "treesched-snapmanifest-v2\ngen 0 10\ngen 1 200 7\n");
  EXPECT_THROW(store.generations(), std::invalid_argument);
}

TEST_F(DurabilityChaosTest, FreshRunRefusesAV1ManifestWithUsableAdvice) {
  // A fresh (not resuming) run meets the v1 manifest at its first
  // snapshot; the advice must not be "restart without --resume-snapshot".
  const std::string dir = fresh_dir("chaos_fresh_v1");
  auto cfg = chaos_config(dir);
  spit(cfg.snapshot_path, "treesched-snapmanifest-v1\nkeep 3\n");
  try {
    exec::run_stream(test_tree(),
                     SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);
    ADD_FAILURE() << "a fresh run wrote into a v1 manifest";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("choose another --snapshot-path"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("without --resume-snapshot"), std::string::npos)
        << what;
  }
  EXPECT_EQ(slurp(cfg.snapshot_path), "treesched-snapmanifest-v1\nkeep 3\n");
}

// --------------------------------------------- kill-points x resume ladder

TEST_F(DurabilityChaosTest, KillPointSweepResumesByteIdentical) {
  const RefRun ref = reference_run("chaos_ref_sweep");
  ASSERT_EQ(ref.res.snapshots_written, 2u);
  for (std::uint64_t die_after : {std::uint64_t{1}, std::uint64_t{2}}) {
    const std::string dir =
        fresh_dir("chaos_kill_" + std::to_string(die_after));
    auto cfg = chaos_config(dir);
    cfg.die_after_snapshot = die_after;
    const auto killed = exec::run_stream(
        test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);
    EXPECT_TRUE(killed.interrupted);
    EXPECT_EQ(killed.arrivals, die_after * cfg.snapshot_every);

    auto resume_cfg = cfg;
    resume_cfg.die_after_snapshot = 0;
    resume_cfg.resume_snapshot = cfg.snapshot_path;
    const auto resumed = exec::run_stream(
        test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5),
        resume_cfg);
    expect_byte_identical(ref, resume_cfg, resumed);
  }
}

TEST_F(DurabilityChaosTest, LadderFallsBackAcrossCorruptNewestGeneration) {
  const RefRun ref = reference_run("chaos_ref_fallback");
  const std::string dir = fresh_dir("chaos_fallback");
  auto cfg = chaos_config(dir);
  cfg.die_after_snapshot = 2;
  exec::run_stream(test_tree(),
                   SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);

  // Flip one byte in the newest generation on disk.
  exec::SnapshotStore store(cfg.snapshot_path, cfg.snapshot_keep);
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), 2u);
  std::string bytes = slurp(gens[0].path);
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x01);
  spit(gens[0].path, bytes);

  auto resume_cfg = cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = cfg.snapshot_path;
  const auto resumed = exec::run_stream(
      test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5),
      resume_cfg);
  expect_byte_identical(ref, resume_cfg, resumed);
  // The damaged rung was quarantined, never deleted.
  EXPECT_FALSE(fs::exists(gens[0].path));
  EXPECT_TRUE(fs::exists(gens[0].path + ".quarantined"));
  EXPECT_TRUE(fs::exists(store.quarantine_log_path()));
}

TEST_F(DurabilityChaosTest, TornSnapshotWriteIsCaughtAndFallsBack) {
  const RefRun ref = reference_run("chaos_ref_torn");
  const std::string dir = fresh_dir("chaos_torn_write");
  auto cfg = chaos_config(dir);
  cfg.die_after_snapshot = 2;
  {
    // The SECOND snapshot write tears silently: the writer believes it
    // succeeded, the manifest records the intended fingerprint.
    util::ScopedFailpoints guard("snapshot.write:torn-write:2");
    const auto killed = exec::run_stream(
        test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);
    EXPECT_TRUE(killed.interrupted);
    ASSERT_EQ(util::failpoints_fired().size(), 1u);
  }
  auto resume_cfg = cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = cfg.snapshot_path;
  const auto resumed = exec::run_stream(
      test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5),
      resume_cfg);
  expect_byte_identical(ref, resume_cfg, resumed);
  exec::SnapshotStore store(cfg.snapshot_path, cfg.snapshot_keep);
  EXPECT_TRUE(fs::exists(store.quarantine_log_path()));
}

TEST_F(DurabilityChaosTest, BitFlippedSnapshotWriteIsCaughtAndFallsBack) {
  const RefRun ref = reference_run("chaos_ref_flip");
  const std::string dir = fresh_dir("chaos_flip_write");
  auto cfg = chaos_config(dir);
  cfg.die_after_snapshot = 2;
  {
    util::ScopedFailpoints guard("snapshot.write:bit-flip:2");
    exec::run_stream(test_tree(),
                     SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);
  }
  auto resume_cfg = cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = cfg.snapshot_path;
  const auto resumed = exec::run_stream(
      test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5),
      resume_cfg);
  expect_byte_identical(ref, resume_cfg, resumed);
}

TEST_F(DurabilityChaosTest, ShortReadDuringResumeFallsBack) {
  const RefRun ref = reference_run("chaos_ref_shortread");
  const std::string dir = fresh_dir("chaos_short_read");
  auto cfg = chaos_config(dir);
  cfg.die_after_snapshot = 2;
  exec::run_stream(test_tree(),
                   SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);

  auto resume_cfg = cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = cfg.snapshot_path;
  // The FIRST generation read (the newest rung) comes back short; the
  // ladder cannot tell lying storage from a torn file and falls back.
  util::ScopedFailpoints guard("snapshot.read:short-read:1");
  const auto resumed = exec::run_stream(
      test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5),
      resume_cfg);
  expect_byte_identical(ref, resume_cfg, resumed);
}

TEST_F(DurabilityChaosTest, AllGenerationsCorruptIsLoudlyUnrecoverable) {
  const std::string dir = fresh_dir("chaos_unrecoverable");
  auto cfg = chaos_config(dir);
  cfg.die_after_snapshot = 2;
  exec::run_stream(test_tree(),
                   SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);

  exec::SnapshotStore store(cfg.snapshot_path, cfg.snapshot_keep);
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), 2u);
  for (const auto& g : gens) {
    std::string bytes = slurp(g.path);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    spit(g.path, bytes);
  }

  auto resume_cfg = cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = cfg.snapshot_path;
  try {
    exec::run_stream(test_tree(),
                     SpeedProfile::paper_identical(*test_tree(), 0.5),
                     resume_cfg);
    FAIL() << "resume from two corrupt generations succeeded";
  } catch (const exec::SnapshotUnrecoverableError& e) {
    // The one-line report names the quarantine log.
    EXPECT_NE(std::string(e.what()).find(store.quarantine_log_path()),
              std::string::npos)
        << e.what();
  }
  for (const auto& g : gens) {
    EXPECT_FALSE(fs::exists(g.path));
    EXPECT_TRUE(fs::exists(g.path + ".quarantined"));
  }
  EXPECT_FALSE(slurp(store.quarantine_log_path()).empty());
}

TEST_F(DurabilityChaosTest, FailedLadderKeepsARetiredGeneration) {
  // Three snapshots under keep 3, then a resume that passes keep 2: gen 0
  // has left its window but is healthy. With both window generations
  // corrupt the ladder fails loudly, and gen 0 must still be on disk, so a
  // resume with the original keep reaches it and converges.
  const auto config = [](const std::string& dir) {
    auto cfg = chaos_config(dir);
    cfg.snapshot_every = 200;  // snapshots at 200, 400, 600 and 800
    cfg.snapshot_keep = 3;
    return cfg;
  };
  RefRun ref;
  ref.dir = fresh_dir("chaos_ref_retired");
  ref.cfg = config(ref.dir);
  ref.res = exec::run_stream(
      test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5), ref.cfg);
  const std::string dir = fresh_dir("chaos_retired");
  auto cfg = config(dir);
  cfg.die_after_snapshot = 3;
  exec::run_stream(test_tree(),
                   SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);

  const auto gens = exec::SnapshotStore(cfg.snapshot_path, 2).generations();
  ASSERT_EQ(gens.size(), 2u);
  ASSERT_EQ(gens[1].index, 1);
  for (const auto& g : gens) {
    std::string bytes = slurp(g.path);
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    spit(g.path, bytes);
  }
  auto resume_cfg = cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = cfg.snapshot_path;
  resume_cfg.snapshot_keep = 2;
  EXPECT_THROW(exec::run_stream(test_tree(),
                                SpeedProfile::paper_identical(*test_tree(),
                                                              0.5),
                                resume_cfg),
               exec::SnapshotUnrecoverableError);
  EXPECT_TRUE(fs::exists(cfg.snapshot_path + ".gen000"));

  resume_cfg.snapshot_keep = 3;
  const auto resumed = exec::run_stream(
      test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5),
      resume_cfg);
  expect_byte_identical(ref, resume_cfg, resumed);
}

TEST_F(DurabilityChaosTest, MissingManifestIsTyped) {
  const std::string dir = fresh_dir("chaos_missing");
  auto cfg = chaos_config(dir);
  cfg.resume_snapshot = dir + "/never-written";
  EXPECT_THROW(
      exec::run_stream(test_tree(),
                       SpeedProfile::paper_identical(*test_tree(), 0.5), cfg),
      exec::SnapshotMissingError);
}

TEST_F(DurabilityChaosTest, SpecMismatchIsTypedAndImmediate) {
  const std::string dir = fresh_dir("chaos_spec");
  auto cfg = chaos_config(dir);
  cfg.die_after_snapshot = 1;
  exec::run_stream(test_tree(),
                   SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);
  auto bad = cfg;
  bad.die_after_snapshot = 0;
  bad.resume_snapshot = cfg.snapshot_path;
  bad.stream.lambda = 0.9;  // a different run entirely
  EXPECT_THROW(
      exec::run_stream(test_tree(),
                       SpeedProfile::paper_identical(*test_tree(), 0.5), bad),
      exec::SnapshotSpecMismatchError);
  // A clean snapshot from the wrong run is NOT damage: nothing quarantined.
  exec::SnapshotStore store(cfg.snapshot_path, cfg.snapshot_keep);
  EXPECT_FALSE(fs::exists(store.quarantine_log_path()));
}

TEST_F(DurabilityChaosTest, EnospcDuringSnapshotWriteFailsLoud) {
  const std::string dir = fresh_dir("chaos_enospc");
  auto cfg = chaos_config(dir);
  util::ScopedFailpoints guard("snapshot.write:enospc:1");
  EXPECT_THROW(
      exec::run_stream(test_tree(),
                       SpeedProfile::paper_identical(*test_tree(), 0.5), cfg),
      std::runtime_error);
}

TEST_F(DurabilityChaosTest, TornManifestAppendNeverDivergesSilently) {
  const RefRun ref = reference_run("chaos_ref_manifest");
  const std::string dir = fresh_dir("chaos_manifest_torn");
  auto cfg = chaos_config(dir);
  cfg.die_after_snapshot = 1;
  {
    util::ScopedFailpoints guard("manifest.append:torn-write:1");
    exec::run_stream(test_tree(),
                     SpeedProfile::paper_identical(*test_tree(), 0.5), cfg);
  }
  auto resume_cfg = cfg;
  resume_cfg.die_after_snapshot = 0;
  resume_cfg.resume_snapshot = cfg.snapshot_path;
  // The run-log manifest lost part of a segment entry. Whatever the ladder
  // decides, it must be all-or-nothing: a byte-identical finish or a loud
  // typed failure — never a silently divergent run log.
  try {
    const auto resumed = exec::run_stream(
        test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5),
        resume_cfg);
    expect_byte_identical(ref, resume_cfg, resumed);
  } catch (const std::exception& e) {
    EXPECT_FALSE(std::string(e.what()).empty());
  }
}

TEST_F(DurabilityChaosTest, TornSnapshotManifestAppendNeverDivergesSilently) {
  const RefRun ref = reference_run("chaos_ref_snapmanifest");
  for (std::uint64_t die : {std::uint64_t{1}, std::uint64_t{2}}) {
    for (std::uint64_t nth = 1; nth <= die; ++nth) {
      SCOPED_TRACE("die " + std::to_string(die) + " torn record " +
                   std::to_string(nth));
      const std::string dir = fresh_dir(
          "chaos_snapmanifest_" + std::to_string(die) + std::to_string(nth));
      auto cfg = chaos_config(dir);
      cfg.die_after_snapshot = die;
      {
        util::ScopedFailpoints guard("snapmanifest.append:torn-write:" +
                                     std::to_string(nth));
        exec::run_stream(test_tree(),
                         SpeedProfile::paper_identical(*test_tree(), 0.5),
                         cfg);
        ASSERT_EQ(util::failpoints_fired().size(), 1u);
      }
      auto resume_cfg = cfg;
      resume_cfg.die_after_snapshot = 0;
      resume_cfg.resume_snapshot = cfg.snapshot_path;
      // The torn record's generation was never committed: the ladder
      // resumes from an older one, or, with none left, fails loudly.
      try {
        const auto resumed = exec::run_stream(
            test_tree(), SpeedProfile::paper_identical(*test_tree(), 0.5),
            resume_cfg);
        expect_byte_identical(ref, resume_cfg, resumed);
      } catch (const exec::SnapshotUnrecoverableError& e) {
        EXPECT_EQ(die, nth) << e.what();
        EXPECT_EQ(die, 1u) << e.what();
      }
      // A torn record leaves its generation file uncommitted, whether it
      // was the newest record or later ones landed after it; the ladder
      // set it aside instead of deleting it.
      EXPECT_TRUE(fs::exists(cfg.snapshot_path + ".gen00" +
                             std::to_string(nth - 1) + ".quarantined"));
      // No generation file is left that the manifest's window does not
      // list.
      std::vector<std::string> listed;
      for (const auto& g :
           exec::SnapshotStore(cfg.snapshot_path, cfg.snapshot_keep)
               .generations())
        listed.push_back(fs::path(g.path).filename().string());
      const std::string prefix =
          fs::path(cfg.snapshot_path).filename().string() + ".gen";
      for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) != 0 ||
            name.find_first_not_of("0123456789", prefix.size()) !=
                std::string::npos)
          continue;
        EXPECT_NE(std::find(listed.begin(), listed.end(), name), listed.end())
            << name << " is on disk but not in the manifest's window";
      }
    }
  }
}

TEST_F(DurabilityChaosTest, EnospcOnManifestTrailerFailsLoud) {
  // The final trailer is an append like every segment entry, so it answers
  // to the same seam: the evaluation after the last entry is the trailer's.
  const RefRun ref = reference_run("chaos_ref_trailer");
  ASSERT_GT(ref.res.segments_written, 0u);
  const std::string dir = fresh_dir("chaos_trailer_enospc");
  const auto cfg = chaos_config(dir);
  util::ScopedFailpoints guard(
      "manifest.append:enospc:" +
      std::to_string(ref.res.segments_written + 1));
  EXPECT_THROW(
      exec::run_stream(test_tree(),
                       SpeedProfile::paper_identical(*test_tree(), 0.5), cfg),
      std::runtime_error);
  EXPECT_EQ(util::failpoints_fired(),
            std::vector<std::string>{"manifest.append:enospc"});
}

// ------------------------------------------- durable overload state bytes

TEST_F(DurabilityChaosTest, AdmissionControllerRoundTripsByteIdentically) {
  const RefRun ref = reference_run("chaos_ref_overload");
  overload::ShedConfig shed;
  shed.policy = overload::ShedPolicy::kLargestFirst;
  shed.queue_cap = 32.0;
  overload::AdmissionController ctl(shed);
  ctl.load_state(ref.res.overload_state);
  std::ostringstream os;
  ctl.save_state(os);
  EXPECT_EQ(os.str(), ref.res.overload_state);
}

TEST_F(DurabilityChaosTest, OverloadStateRejectsTruncationAndFlips) {
  const RefRun ref = reference_run("chaos_ref_overload_mut");
  const std::string& bytes = ref.res.overload_state;
  ASSERT_FALSE(bytes.empty());
  overload::ShedConfig shed;
  shed.policy = overload::ShedPolicy::kLargestFirst;
  shed.queue_cap = 32.0;
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 256);
  const auto check_mutation = [&](const std::string& mut) {
    overload::AdmissionController ctl(shed);
    try {
      ctl.load_state(mut);
    } catch (const std::invalid_argument&) {
      return;  // rejected: good
    }
    // Accepted: then it must have been an equivalent encoding (e.g. a
    // newline flipped to another whitespace byte) — never a wrong load.
    std::ostringstream os;
    ctl.save_state(os);
    EXPECT_EQ(os.str(), bytes);
  };
  for (std::size_t len = 0; len < bytes.size(); len += stride)
    check_mutation(bytes.substr(0, len));
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    std::string mut = bytes;
    mut[i] = static_cast<char>(mut[i] ^ 0x01);
    check_mutation(mut);
  }
}

TEST_F(DurabilityChaosTest, StreamAccumulatorRejectsTruncationAndFlips) {
  const RefRun ref = reference_run("chaos_ref_acc_mut");
  const std::string bytes = acc_bytes(ref.res.acc);
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 256);
  const auto check_mutation = [&](const std::string& mut) {
    sim::StreamAccumulator acc;
    util::Fields f(mut);
    try {
      acc.load(f);
    } catch (const std::invalid_argument&) {
      return;
    }
    EXPECT_EQ(acc_bytes(acc), bytes);
  };
  for (std::size_t len = 0; len < bytes.size(); len += stride)
    check_mutation(bytes.substr(0, len));
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    std::string mut = bytes;
    mut[i] = static_cast<char>(mut[i] ^ 0x01);
    check_mutation(mut);
  }
}

}  // namespace
