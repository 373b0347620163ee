// Resilient sweep orchestration: retry/backoff, checkpoint journals,
// resume byte-identity, cooperative cancellation, and the fault-rate grid.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "treesched/exec/sweep.hpp"

namespace treesched::exec {
namespace {

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.policies = {"fault-greedy"};
  spec.trees = {"star-2x3"};
  spec.eps_grid = {0.5};
  spec.fault_rates = {0.0, 0.02};
  spec.seeds = 2;
  spec.base_seed = 5;
  spec.jobs = 30;
  spec.threads = 2;
  return spec;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(FaultSweep, FaultGridIsDeterministicAcrossThreadCounts) {
  SweepSpec spec = tiny_spec();
  spec.threads = 1;
  const SweepResult seq = run_sweep(spec);
  spec.threads = 8;
  const SweepResult par = run_sweep(spec);
  EXPECT_EQ(sweep_json(seq, false), sweep_json(par, false));
  // policies x trees x eps x fault_rates x seeds.
  EXPECT_EQ(seq.tasks.size(), 1u * 1u * 1u * 2u * 2u);
  EXPECT_NE(sweep_json(seq, false).find("\"fault_rates\""), std::string::npos);
}

TEST(FaultSweep, FaultsDegradeFlowTimeVsControlCell) {
  SweepSpec spec = tiny_spec();
  spec.fault_rates = {0.0, 0.05};
  spec.seeds = 3;
  spec.jobs = 60;
  const SweepResult r = run_sweep(spec);
  ASSERT_EQ(r.cells.size(), 2u);
  // The control cell (rate 0) must not be slower than the faulty cell.
  EXPECT_LE(r.cells[0].mean_flow, r.cells[1].mean_flow);
}

TEST(FaultSweep, RetriesConsumeTransientFailures) {
  SweepSpec spec = tiny_spec();
  spec.retries = 2;
  spec.retry_backoff_ms = 0.1;
  std::atomic<int> injected{0};
  spec.inject_fault = [&injected](const SweepTask&, int attempt) {
    if (attempt <= 2) {
      injected.fetch_add(1);
      throw std::runtime_error("transient storage glitch");
    }
  };
  const SweepResult r = run_sweep(spec);
  EXPECT_GT(injected.load(), 0);
  for (const auto& task : r.tasks) {
    EXPECT_EQ(task.status, TaskStatus::kOk) << "task " << task.index;
    EXPECT_EQ(task.attempts, 3);
  }
}

TEST(FaultSweep, ExhaustedRetriesReportFailedTasks) {
  SweepSpec spec = tiny_spec();
  spec.retries = 1;
  spec.retry_backoff_ms = 0.1;
  spec.inject_fault = [](const SweepTask& t, int) {
    if (t.index == 0) throw std::runtime_error("persistent failure");
  };
  const SweepResult r = run_sweep(spec);
  EXPECT_EQ(r.tasks[0].status, TaskStatus::kFailed);
  EXPECT_NE(r.tasks[0].error.find("persistent failure"), std::string::npos);
  for (std::size_t i = 1; i < r.tasks.size(); ++i)
    EXPECT_EQ(r.tasks[i].status, TaskStatus::kOk);
}

TEST(FaultSweep, ResumeFromPartialJournalIsByteIdentical) {
  SweepSpec spec = tiny_spec();
  const std::string baseline_json = sweep_json(run_sweep(spec), false);

  // Full run with a journal, then truncate the journal to simulate a kill
  // after only two tasks had checkpointed.
  const std::string ckpt = temp_path("fault_sweep_resume.ckpt");
  std::filesystem::remove(ckpt);
  SweepSpec journaled = spec;
  journaled.checkpoint = ckpt;
  run_sweep(journaled);
  std::vector<std::string> lines;
  {
    std::ifstream in(ckpt);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u + 4u);  // header + fingerprint + 4 tasks
  {
    std::ofstream out(ckpt, std::ios::trunc);
    for (std::size_t i = 0; i < 4; ++i) out << lines[i] << '\n';
    out << "task 3 0.5 truncat";  // torn tail: must be ignored, not parsed
  }

  SweepSpec resumed = journaled;
  resumed.resume = true;
  const SweepResult r = run_sweep(resumed);
  EXPECT_EQ(r.resumed, 2u);
  EXPECT_EQ(sweep_json(r, false), baseline_json);
  std::filesystem::remove(ckpt);
}

TEST(FaultSweep, SecondResumeAfterTornTailKeepsAllRecords) {
  SweepSpec spec = tiny_spec();
  const std::string baseline_json = sweep_json(run_sweep(spec), false);

  // Same torn journal as above: two whole records, then a torn third.
  const std::string ckpt = temp_path("fault_sweep_second_resume.ckpt");
  std::filesystem::remove(ckpt);
  SweepSpec journaled = spec;
  journaled.checkpoint = ckpt;
  run_sweep(journaled);
  std::vector<std::string> lines;
  {
    std::ifstream in(ckpt);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u + 4u);
  {
    std::ofstream out(ckpt, std::ios::trunc);
    for (std::size_t i = 0; i < 4; ++i) out << lines[i] << '\n';
    out << "task 3 0.5 truncat";
  }

  // The first resume re-runs tasks 2 and 3 and journals them; their records
  // must not merge into the torn tail, so a second resume finds all four.
  SweepSpec resumed = journaled;
  resumed.resume = true;
  EXPECT_EQ(run_sweep(resumed).resumed, 2u);
  const SweepResult again = run_sweep(resumed);
  EXPECT_EQ(again.resumed, 4u);
  EXPECT_EQ(sweep_json(again, false), baseline_json);

  std::ifstream in(ckpt);
  std::string line;
  while (std::getline(in, line))
    EXPECT_EQ(line.find("task", 1), std::string::npos)
        << "two records merged into one line: " << line;
  std::filesystem::remove(ckpt);
}

TEST(FaultSweep, ResumeRefusesAnUnmarkedCorruptRecord) {
  // The same half record mid-file but newline-terminated without the heal
  // marker: no append tore it, so it is damage and resume refuses it.
  SweepSpec spec = tiny_spec();
  const std::string ckpt = temp_path("fault_sweep_corrupt_mid.ckpt");
  std::filesystem::remove(ckpt);
  spec.checkpoint = ckpt;
  run_sweep(spec);
  std::vector<std::string> lines;
  {
    std::ifstream in(ckpt);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u + 4u);
  {
    std::ofstream out(ckpt, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) out << lines[i] << '\n';
    out << "task 3 0.5 truncat\n" << lines[4] << '\n';
  }
  SweepSpec resumed = spec;
  resumed.resume = true;
  try {
    run_sweep(resumed);
    ADD_FAILURE() << "resumed from a corrupt journal";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }

  // Closed with the marker, the same bytes are a healed tear: dropped.
  {
    std::ofstream out(ckpt, std::ios::trunc);
    for (std::size_t i = 0; i < 3; ++i) out << lines[i] << '\n';
    out << "task 3 0.5 truncat\x18\n" << lines[4] << '\n';
  }
  EXPECT_EQ(run_sweep(resumed).resumed, 2u);
  std::filesystem::remove(ckpt);
}

TEST(FaultSweep, ResumeRejectsForeignJournal) {
  const std::string ckpt = temp_path("fault_sweep_foreign.ckpt");
  std::filesystem::remove(ckpt);
  SweepSpec spec = tiny_spec();
  spec.checkpoint = ckpt;
  run_sweep(spec);

  SweepSpec other = spec;
  other.base_seed += 1;  // different grid identity
  other.resume = true;
  EXPECT_THROW(run_sweep(other), std::invalid_argument);
  std::filesystem::remove(ckpt);
}

TEST(FaultSweep, ResumeWithMissingJournalStartsFresh) {
  SweepSpec spec = tiny_spec();
  spec.checkpoint = temp_path("fault_sweep_missing.ckpt");
  std::filesystem::remove(spec.checkpoint);
  spec.resume = true;
  const SweepResult r = run_sweep(spec);
  EXPECT_EQ(r.resumed, 0u);
  for (const auto& task : r.tasks)
    EXPECT_EQ(task.status, TaskStatus::kOk);
  std::filesystem::remove(spec.checkpoint);
}

TEST(FaultSweep, PreCancelledSequentialSweepRunsNothing) {
  SweepSpec spec = tiny_spec();
  std::atomic<bool> cancel{true};
  spec.cancel = &cancel;
  spec.threads = 1;  // sequential path: the flag is checked before any task
  const SweepResult r = run_sweep(spec);
  EXPECT_TRUE(r.interrupted);
  for (const auto& task : r.tasks)
    EXPECT_EQ(task.status, TaskStatus::kCancelled) << "task " << task.index;
}

TEST(FaultSweep, PreCancelledPoolSweepNeverHangsOrFails) {
  // On the pool path workers may legitimately finish a task before the
  // gather observes the flag, so the invariant is: every task ends kOk or
  // kCancelled (never failed/timeout), and interrupted iff any cancelled.
  SweepSpec spec = tiny_spec();
  std::atomic<bool> cancel{true};
  spec.cancel = &cancel;
  spec.threads = 4;
  const SweepResult r = run_sweep(spec);
  std::size_t cancelled = 0;
  for (const auto& task : r.tasks) {
    EXPECT_TRUE(task.status == TaskStatus::kOk ||
                task.status == TaskStatus::kCancelled)
        << "task " << task.index;
    if (task.status == TaskStatus::kCancelled) ++cancelled;
  }
  EXPECT_EQ(r.interrupted, cancelled > 0);
}

TEST(FaultSweep, CancelledRunsJournalThenResumeCompletes) {
  // Cancel immediately but journal: nothing (or only in-flight tasks)
  // completes; a resumed run must still converge to the baseline bytes.
  SweepSpec spec = tiny_spec();
  const std::string baseline_json = sweep_json(run_sweep(spec), false);

  const std::string ckpt = temp_path("fault_sweep_cancel.ckpt");
  std::filesystem::remove(ckpt);
  std::atomic<bool> cancel{false};
  SweepSpec interrupted = spec;
  interrupted.checkpoint = ckpt;
  interrupted.cancel = &cancel;
  interrupted.threads = 1;  // deterministic: cancel lands after task 1
  int started = 0;
  interrupted.inject_fault = [&cancel, &started](const SweepTask&, int) {
    if (++started == 2) cancel.store(true);
  };
  const SweepResult partial = run_sweep(interrupted);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.tasks[0].status, TaskStatus::kOk);
  EXPECT_EQ(partial.tasks.back().status, TaskStatus::kCancelled);

  SweepSpec resumed = spec;
  resumed.checkpoint = ckpt;
  resumed.resume = true;
  const SweepResult full = run_sweep(resumed);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(sweep_json(full, false), baseline_json);
  std::filesystem::remove(ckpt);
}

TEST(FaultSweep, FaultFreeJsonShapeIsUnchanged) {
  SweepSpec spec = tiny_spec();
  spec.policies = {"paper"};
  spec.fault_rates.clear();
  const std::string json = sweep_json(run_sweep(spec), false);
  EXPECT_EQ(json.find("\"fault_rates\""), std::string::npos);
  EXPECT_EQ(json.find("\"fault_rate\""), std::string::npos);
}

}  // namespace
}  // namespace treesched::exec
