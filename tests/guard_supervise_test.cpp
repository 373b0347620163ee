// Supervision-core unit tests, all jitterless on a FakeClock: the restart
// policy's capped exponential backoff schedule, the crash-loop breaker's
// sliding window and trip point, the stable-run reset; the guard sidecar
// log writer/audit round trip with every invariant-violation class; the
// health/child-status JSON round trips; and the durable single-write append
// primitive's torn-tail healing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "treesched/guard/clock.hpp"
#include "treesched/guard/config.hpp"
#include "treesched/guard/guard_log.hpp"
#include "treesched/guard/health.hpp"
#include "treesched/guard/supervisor.hpp"
#include "treesched/util/failpoint.hpp"
#include "treesched/util/fs.hpp"

namespace treesched {
namespace {

using guard::RestartPolicy;
using guard::RestartPolicyConfig;
using guard::Stage;

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
  ASSERT_TRUE(static_cast<bool>(os)) << path;
}

// --- RestartPolicy ---------------------------------------------------------

RestartPolicyConfig policy_cfg() {
  RestartPolicyConfig cfg;
  cfg.breaker_max = 100;  // out of the way unless a test lowers it
  cfg.breaker_window_s = 60.0;
  cfg.backoff_base_s = 0.5;
  cfg.backoff_cap_s = 30.0;
  cfg.stable_s = 10.0;
  return cfg;
}

TEST(GuardRestartPolicy, BackoffDoublesFromBaseAndCaps) {
  guard::FakeClock clock;
  RestartPolicy pol(policy_cfg(), &clock);
  // Immediate re-crash after every start: consecutive grows 1, 2, 3, ... and
  // the backoff must replay exactly min(cap, base * 2^(consecutive-1)).
  const double want[] = {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0};
  for (std::size_t i = 0; i < std::size(want); ++i) {
    pol.on_start();
    clock.advance(0.01);  // died instantly: never stable
    const auto d = pol.on_crash();
    ASSERT_FALSE(d.give_up) << "crash " << i;
    EXPECT_DOUBLE_EQ(d.backoff_s, want[i]) << "crash " << i;
    EXPECT_EQ(pol.consecutive(), i + 1);
    clock.advance(d.backoff_s);
  }
  EXPECT_EQ(pol.restarts(), std::size(want));
}

TEST(GuardRestartPolicy, StableRunResetsConsecutiveNotRestarts) {
  guard::FakeClock clock;
  RestartPolicy pol(policy_cfg(), &clock);
  for (int i = 0; i < 3; ++i) {
    pol.on_start();
    clock.advance(0.01);
    ASSERT_FALSE(pol.on_crash().give_up);
  }
  EXPECT_EQ(pol.consecutive(), 3u);

  pol.on_start();
  clock.advance(10.0);  // lived >= stable_s: the crash loop was broken
  const auto d = pol.on_crash();
  ASSERT_FALSE(d.give_up);
  EXPECT_EQ(pol.consecutive(), 1u);
  EXPECT_DOUBLE_EQ(d.backoff_s, 0.5);  // backoff restarts from base
  EXPECT_EQ(pol.restarts(), 4u);       // total restarts keep counting
}

TEST(GuardRestartPolicy, BreakerTripsAtMaxCrashesInWindow) {
  auto cfg = policy_cfg();
  cfg.breaker_max = 5;
  cfg.breaker_window_s = 60.0;
  guard::FakeClock clock;
  RestartPolicy pol(cfg, &clock);
  for (int i = 0; i < 4; ++i) {
    pol.on_start();
    clock.advance(1.0);
    ASSERT_FALSE(pol.on_crash().give_up) << "crash " << i;
  }
  EXPECT_EQ(pol.crashes_in_window(), 4u);
  pol.on_start();
  clock.advance(1.0);
  const auto d = pol.on_crash();  // 5th crash within 5 seconds: trip
  EXPECT_TRUE(d.give_up);
  EXPECT_EQ(pol.crashes_in_window(), 5u);
  EXPECT_EQ(pol.restarts(), 4u);  // the give-up is not a restart
}

TEST(GuardRestartPolicy, BreakerWindowSlides) {
  auto cfg = policy_cfg();
  cfg.breaker_max = 3;
  cfg.breaker_window_s = 10.0;
  cfg.stable_s = 1e9;  // isolate the window logic from the stable reset
  guard::FakeClock clock;
  RestartPolicy pol(cfg, &clock);
  // Crashes 11 seconds apart: each one ages out before the next lands, so
  // the window never holds more than 2 and the breaker must never trip.
  for (int i = 0; i < 6; ++i) {
    pol.on_start();
    clock.advance(11.0);
    ASSERT_FALSE(pol.on_crash().give_up) << "crash " << i;
    EXPECT_LE(pol.crashes_in_window(), 2u);
  }
  // Two rapid crashes join the latest one inside a single window: trip.
  pol.on_start();
  clock.advance(0.1);
  ASSERT_FALSE(pol.on_crash().give_up);
  pol.on_start();
  clock.advance(0.1);
  EXPECT_TRUE(pol.on_crash().give_up);
}

// --- Guard log: writer/audit round trip ------------------------------------

guard::GovernorConfig arena_ceiling(std::size_t n) {
  guard::GovernorConfig cfg;
  cfg.arena_ceiling = n;
  return cfg;
}

guard::Pressure arena_pressure(std::size_t arena) {
  guard::Pressure p;
  p.arena = arena;
  return p;
}

TEST(GuardLogAudit, WriterRoundTripsClean) {
  const std::string path = tmp_path("guardlog_roundtrip.log");
  std::remove(path.c_str());
  {
    guard::GuardLogWriter w(path);
    w.supervisor(0.0, "start pid 1234");
    w.ceiling(arena_ceiling(100), 2.0);
    w.governor_escalate(0.5, Stage::kNormal, Stage::kStreamingMetrics,
                        arena_pressure(120));
    w.governor_escalate(0.9, Stage::kStreamingMetrics, Stage::kShrunkWindow,
                        arena_pressure(130));
    w.watchdog(3.0, "log", 2.0, 40);
    w.watchdog(5.0, "snapshot", 4.0, 40);
    w.supervisor(6.0, "exit code 1");
    // Restarted child: its own ceiling line resets ladder + clock base.
    w.ceiling(arena_ceiling(100), 2.0);
    w.governor_escalate(0.2, Stage::kNormal, Stage::kStreamingMetrics,
                        arena_pressure(150));
    w.supervisor(9.0, "done");
  }
  const auto res = guard::audit_guard_log(path);
  for (const auto& v : res.violations)
    ADD_FAILURE() << "line " << v.line << ": " << v.message;
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.incarnations, 2u);
  EXPECT_EQ(res.governor_escalations, 3u);
  EXPECT_EQ(res.watchdog_events, 2u);
  EXPECT_EQ(res.supervisor_events, 3u);
  EXPECT_EQ(res.max_stage, Stage::kShrunkWindow);
}

TEST(GuardLogAudit, WriterAppendsAcrossReopens) {
  // Supervisor and child hold separate writers on one path; the second
  // writer must append, not rewrite the header.
  const std::string path = tmp_path("guardlog_reopen.log");
  std::remove(path.c_str());
  {
    guard::GuardLogWriter w(path);
    w.supervisor(0.0, "start pid 1");
  }
  {
    guard::GuardLogWriter w(path);
    w.ceiling(arena_ceiling(10), 0.0);
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes, "treesched-guardlog-v1\n"
                   "guard 0.000000 supervisor start pid 1\n"
                   "ceiling rss 0 queue 0 arena 10 deadline 0.000000\n"
        ) << bytes;
  EXPECT_TRUE(guard::audit_guard_log(path).ok);
}

std::string clean_log_prefix() {
  return "treesched-guardlog-v1\n"
         "ceiling rss 0 queue 0 arena 100 deadline 2.000000\n";
}

TEST(GuardLogAudit, RejectsSkippedLadderStage) {
  const std::string path = tmp_path("guardlog_skip.log");
  spill(path, clean_log_prefix() +
                  "guard 1.0 governor escalate normal shrunk-window "
                  "rss 0 queue 0 arena 200\n");
  const auto res = guard::audit_guard_log(path);
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].message.find("one stage at a time"),
            std::string::npos)
      << res.violations[0].message;
}

TEST(GuardLogAudit, RejectsEscalationWithoutPressure) {
  const std::string path = tmp_path("guardlog_nopressure.log");
  spill(path, clean_log_prefix() +
                  "guard 1.0 governor escalate normal streaming-metrics "
                  "rss 0 queue 0 arena 99\n");  // under the arena ceiling
  const auto res = guard::audit_guard_log(path);
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].message.find("without recorded pressure"),
            std::string::npos)
      << res.violations[0].message;
}

TEST(GuardLogAudit, RejectsWatchdogOutOfOrder) {
  const std::string path = tmp_path("guardlog_wdorder.log");
  spill(path, clean_log_prefix() +
                  "guard 4.5 watchdog snapshot stalled 4.2 arrivals 10\n");
  const auto res = guard::audit_guard_log(path);
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].message.find("preceding escalation"),
            std::string::npos)
      << res.violations[0].message;
}

TEST(GuardLogAudit, RejectsWatchdogStallUnderDeadline) {
  const std::string path = tmp_path("guardlog_wdstall.log");
  spill(path, clean_log_prefix() +
                  "guard 1.5 watchdog log stalled 1.2 arrivals 10\n");
  const auto res = guard::audit_guard_log(path);  // armed deadline is 2s
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].message.find("under 1x the armed deadline"),
            std::string::npos)
      << res.violations[0].message;
}

TEST(GuardLogAudit, FreshLogStartsANewWatchdogEpisode) {
  // log -> snapshot, progress resumed, then a new stall: log again is fine.
  const std::string path = tmp_path("guardlog_episodes.log");
  spill(path, clean_log_prefix() +
                  "guard 2.0 watchdog log stalled 2.0 arrivals 5\n"
                  "guard 4.0 watchdog snapshot stalled 4.0 arrivals 5\n"
                  "guard 9.0 watchdog log stalled 2.5 arrivals 9\n"
                  "guard 11.0 watchdog snapshot stalled 4.5 arrivals 9\n");
  EXPECT_TRUE(guard::audit_guard_log(path).ok);
}

TEST(GuardLogAudit, RejectsBackwardsChildTimestamp) {
  const std::string path = tmp_path("guardlog_backtime.log");
  spill(path, clean_log_prefix() +
                  "guard 5.0 watchdog log stalled 2.5 arrivals 5\n"
                  "guard 4.0 watchdog snapshot stalled 4.5 arrivals 5\n");
  const auto res = guard::audit_guard_log(path);
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].message.find("went backwards"),
            std::string::npos)
      << res.violations[0].message;
}

TEST(GuardLogAudit, CeilingLineResetsTheChildClock) {
  // A restarted child's timestamps restart at its own epoch: NOT a
  // violation, because the ceiling line re-bases the audit clock.
  const std::string path = tmp_path("guardlog_rebase.log");
  spill(path, clean_log_prefix() +
                  "guard 5.0 watchdog log stalled 2.5 arrivals 5\n" +
                  clean_log_prefix().substr(22) +  // second ceiling line
                  "guard 0.5 watchdog log stalled 2.5 arrivals 2\n");
  const auto res = guard::audit_guard_log(path);
  for (const auto& v : res.violations)
    ADD_FAILURE() << "line " << v.line << ": " << v.message;
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.incarnations, 2u);
}

TEST(GuardLogAudit, RejectsChildEventBeforeAnyCeiling) {
  const std::string path = tmp_path("guardlog_noceiling.log");
  spill(path, "treesched-guardlog-v1\n"
              "guard 1.0 watchdog log stalled 2.5 arrivals 5\n");
  const auto res = guard::audit_guard_log(path);
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.violations.empty());
  EXPECT_NE(res.violations[0].message.find("before any ceiling"),
            std::string::npos)
      << res.violations[0].message;
}

TEST(GuardLogAudit, RejectsBadMagicAndMissingFile) {
  const std::string path = tmp_path("guardlog_magic.log");
  spill(path, "not-a-guard-log\n");
  EXPECT_FALSE(guard::audit_guard_log(path).ok);
  EXPECT_FALSE(guard::audit_guard_log(tmp_path("no_such_guardlog")).ok);
}

TEST(GuardLogAudit, ToleratesTornFinalLineOnly) {
  const std::string torn_tail = tmp_path("guardlog_torntail.log");
  spill(torn_tail, clean_log_prefix() +
                       "guard 2.0 watchdog log stal");  // no newline: torn
  const auto tail_res = guard::audit_guard_log(torn_tail);
  for (const auto& v : tail_res.violations)
    ADD_FAILURE() << "line " << v.line << ": " << v.message;
  EXPECT_TRUE(tail_res.ok);
  EXPECT_EQ(tail_res.watchdog_events, 0u);  // the torn record is dropped

  // The same damage mid-file (newline-terminated) is tampering, not a tear.
  const std::string torn_mid = tmp_path("guardlog_tornmid.log");
  spill(torn_mid, clean_log_prefix() +
                      "guard 2.0 watchdog log stal\n"
                      "guard 4.0 watchdog snapshot stalled 4.0 arrivals 5\n");
  EXPECT_FALSE(guard::audit_guard_log(torn_mid).ok);
}

TEST(GuardLogAudit, TearHealedByALaterAppendAuditsClean) {
  // A crash tore a watchdog record; the restarted writer's next append
  // heals the tail. The healed record is dropped, not reported.
  const std::string path = tmp_path("guardlog_healed.log");
  spill(path, clean_log_prefix() + "guard 2.0 watchdog log stal");
  guard::GuardLogWriter w(path);
  w.watchdog(3.0, "log", 2.5, 7);
  const auto res = guard::audit_guard_log(path);
  for (const auto& v : res.violations)
    ADD_FAILURE() << "line " << v.line << ": " << v.message;
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.watchdog_events, 1u);

  // A violation after the healed line still names its own line number.
  w.watchdog(4.0, "abort", 9.0, 7);
  const auto late = guard::audit_guard_log(path);
  ASSERT_EQ(late.violations.size(), 1u);
  EXPECT_EQ(late.violations[0].line, 5u);
}

// --- Health / child status JSON round trips --------------------------------

TEST(GuardHealth, ChildStatusRoundTrip) {
  guard::ChildStatus s;
  s.arrivals = 123456;
  s.window = 7;
  s.rho_hat = 3.25;
  s.stage = Stage::kShrunkWindow;
  s.t_s = 1.5;
  const std::string path = tmp_path("child_status.json");
  guard::write_child_status(path, s);
  const auto r = guard::read_child_status(path);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->arrivals, 123456u);
  EXPECT_EQ(r->window, 7u);
  EXPECT_DOUBLE_EQ(r->rho_hat, 3.25);
  EXPECT_EQ(r->stage, Stage::kShrunkWindow);
  EXPECT_DOUBLE_EQ(r->t_s, 1.5);
}

TEST(GuardHealth, HealthRoundTripWithAndWithoutChild) {
  guard::HealthStatus h;
  h.pid = 4242;
  h.state = "backoff";
  h.restarts = 3;
  h.consecutive_crashes = 2;
  h.last_exit_code = 71;
  h.last_signal = 9;
  h.have_child = true;
  h.child.arrivals = 999;
  h.child.stage = Stage::kTightenedShed;
  const std::string path = tmp_path("health.json");
  guard::write_health(path, h);
  auto r = guard::read_health(path);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pid, 4242);
  EXPECT_EQ(r->state, "backoff");
  EXPECT_EQ(r->restarts, 3u);
  EXPECT_EQ(r->consecutive_crashes, 2u);
  EXPECT_EQ(r->last_exit_code, 71);
  EXPECT_EQ(r->last_signal, 9);
  EXPECT_TRUE(r->have_child);
  EXPECT_EQ(r->child.arrivals, 999u);
  EXPECT_EQ(r->child.stage, Stage::kTightenedShed);

  h.have_child = false;
  guard::write_health(path, h);
  r = guard::read_health(path);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->have_child);
}

TEST(GuardHealth, ReadersReturnNulloptOnMissingOrGarbage) {
  EXPECT_FALSE(guard::read_child_status(tmp_path("no_such_status")));
  EXPECT_FALSE(guard::read_health(tmp_path("no_such_health")));
  const std::string path = tmp_path("garbage.json");
  spill(path, "]][[ not json at all");
  EXPECT_FALSE(guard::read_child_status(path).has_value());
  EXPECT_FALSE(guard::read_health(path).has_value());
}

TEST(GuardHealth, FlatJsonFieldExtraction) {
  const std::string doc =
      "{\"schema\":\"treesched-health-v1\",\"pid\":42,\"rho\":1.25}";
  EXPECT_EQ(guard::json_string_field(doc, "schema"), "treesched-health-v1");
  const auto pid = guard::json_number_field(doc, "pid");
  ASSERT_TRUE(pid.has_value());
  EXPECT_DOUBLE_EQ(*pid, 42.0);
  EXPECT_FALSE(guard::json_number_field(doc, "absent").has_value());
  EXPECT_FALSE(guard::json_string_field(doc, "pid").has_value());
}

// --- append_line_durable ----------------------------------------------------

class GuardAppendTest : public ::testing::Test {
 protected:
  void TearDown() override { util::disarm_failpoints(); }
};

TEST_F(GuardAppendTest, AppendsAndHealsTornTail) {
  const std::string path = tmp_path("durable_append.log");
  std::remove(path.c_str());
  util::append_line_durable(path, "first");
  EXPECT_EQ(slurp(path), "first\n");

  // Simulated crash mid-append: a newline-less tail lands on disk.
  spill(path, "first\nsecond-torn-rec");
  util::append_line_durable(path, "third");
  // The torn record became its own marked line; "third" starts clean.
  EXPECT_EQ(slurp(path), "first\nsecond-torn-rec\x18\nthird\n");

  EXPECT_THROW(util::append_line_durable(path, "two\nlines"),
               std::runtime_error);
}

TEST_F(GuardAppendTest, TornWriteFailpointSucceedsSilentlyThenHeals) {
  const std::string path = tmp_path("durable_torn.log");
  std::remove(path.c_str());
  util::arm_failpoints("x.append:torn-write:1");
  util::append_line_durable(path, "hello", "x.append");  // must NOT throw
  EXPECT_EQ(slurp(path), "hel");  // newline-less prefix: storage lied
  util::append_line_durable(path, "world", "x.append");  // failpoint spent
  EXPECT_EQ(slurp(path), "hel\x18\nworld\n");
}

TEST_F(GuardAppendTest, EnospcFailpointThrowsLoudly) {
  const std::string path = tmp_path("durable_enospc.log");
  std::remove(path.c_str());
  util::arm_failpoints("x.append:enospc:1");
  EXPECT_THROW(util::append_line_durable(path, "rec", "x.append"),
               std::runtime_error);
  util::append_line_durable(path, "rec", "x.append");  // spent: succeeds
  EXPECT_EQ(slurp(path), "rec\n");
}

}  // namespace
}  // namespace treesched
