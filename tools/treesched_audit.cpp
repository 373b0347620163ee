// treesched_audit — offline invariant analyzer for recorded runs.
//
//   treesched_run --trace t.txt --record-out run.log
//   treesched_audit --trace t.txt --log run.log --eps 0.5
//
// Re-checks the paper's model invariants against the burst log without
// trusting any engine state: store-and-forward precedence, unit capacity per
// node per instant, per-policy priority consistency at every preemption
// point, immediate-dispatch assignment stability, and (with --eps) the
// Lemma 1/2/3 bounds with per-job worst-case margins.
//
// Segmented streaming logs (treesched-runlog-seg-v1, written by
// treesched_run --stream --record-out) are audited incrementally in
// O(segment) memory instead:
//
//   treesched_audit --segments seg/manifest.log
//
// This mode needs no --trace: job identities are reconstructed from the
// jobrec admission lines inside the segments, and the fingerprint chain in
// the manifest proves the segment files are the ones the writer sealed.
//
// Guard sidecar logs (treesched-guardlog-v1, written by treesched_run
// --guard-log / --supervise) are verified with:
//
//   treesched_audit --guard run.guard.log
//
// This re-checks the supervision invariants offline: the degradation
// ladder escalated in order (one stage at a time, per child incarnation),
// every escalation recorded pressure at or over an armed ceiling, watchdog
// actions followed log -> snapshot -> abort with stalls over the armed
// deadline multiples, and timestamps are monotone.
//
// Exit codes: 0 = clean, 1 = usage/input error, 2 = invariant violation.
#include <iostream>

#include "treesched/guard/guard_log.hpp"
#include "treesched/sim/audit.hpp"
#include "treesched/sim/run_log.hpp"
#include "treesched/sim/runlog_segments.hpp"
#include "treesched/util/cli.hpp"
#include "treesched/workload/trace_io.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  util::Cli cli("treesched_audit",
                "Audit a recorded run against the paper's invariants.");
  auto& trace = cli.add_string("trace", "", "instance trace path (required)");
  auto& log_path = cli.add_string("log", "", "run log path (required)");
  auto& segments = cli.add_string(
      "segments", "",
      "segmented-log manifest path: audit a streaming run incrementally "
      "(no --trace/--log needed)");
  auto& eps = cli.add_double(
      "eps", 0.0, "speed-augmentation epsilon; > 0 prints lemma margins");
  auto& strict = cli.add_flag(
      "strict-lemmas",
      "treat a lemma margin ratio > 1 as a violation (needs --eps > 0)");
  auto& tol = cli.add_double("tol", 1e-6, "numeric comparison tolerance");
  auto& guard_log = cli.add_string(
      "guard", "",
      "guard sidecar log path: verify the supervision invariants (ladder "
      "order, recorded pressure, watchdog escalation, monotone timestamps)");
  auto& quiet = cli.add_flag("quiet", "print only the verdict line");
  cli.parse(argc, argv);

  try {
    if (!guard_log.empty()) {
      if (!trace.empty() || !log_path.empty() || !segments.empty())
        throw std::invalid_argument(
            "--guard is self-contained; drop --trace/--log/--segments");
      const guard::GuardAuditResult res = guard::audit_guard_log(guard_log);
      std::cout << (res.ok ? "guard audit: OK" : "guard audit: FAILED")
                << " (" << res.incarnations << " incarnation(s), "
                << res.governor_escalations << " escalation(s), "
                << res.watchdog_events << " watchdog event(s), "
                << res.supervisor_events << " supervisor event(s), "
                << "max stage " << guard::stage_name(res.max_stage) << ")\n";
      if (!quiet)
        for (const auto& v : res.violations)
          std::cout << "  line " << v.line << ": " << v.message << '\n';
      return res.ok ? 0 : 2;
    }
    if (!segments.empty()) {
      if (!trace.empty() || !log_path.empty())
        throw std::invalid_argument(
            "--segments is self-contained; drop --trace/--log");
      if (eps > 0.0 || strict)
        throw std::invalid_argument(
            "lemma margins need per-job release/size context the segment "
            "audit streams past; use the monolithic --trace/--log mode");
      sim::SegmentAuditOptions opts;
      opts.tol = tol;
      const sim::SegmentAuditResult res = sim::audit_segments(segments, opts);
      std::cout << (res.ok ? "segment audit: OK" : "segment audit: FAILED")
                << " (" << res.segments << " segments, " << res.payload_lines
                << " payload lines, " << res.arrivals << " arrivals, "
                << res.completed << " completed)\n";
      if (!quiet)
        for (const auto& v : res.violations)
          std::cout << "  segment " << v.segment << ": " << v.message << '\n';
      if (res.has_first_bad)
        std::cout << "first broken segment: " << res.first_bad_segment
                  << " (" << res.first_bad_path << ")\n"
                  << "hint: quarantine it (mv " << res.first_bad_path << ' '
                  << res.first_bad_path << ".quarantined) and re-audit; the "
                  << "chain pins every later segment, so only a writer can "
                  << "legitimately regenerate the file\n";
      return res.ok ? 0 : 2;
    }
    if (trace.empty()) throw std::invalid_argument("--trace is required");
    if (log_path.empty()) throw std::invalid_argument("--log is required");
    const Instance inst = workload::read_trace_file(trace);
    const sim::RunLog log = sim::read_run_log_file(log_path);

    sim::AuditOptions opts;
    opts.eps = eps;
    opts.strict_lemmas = strict;
    opts.tol = tol;
    const sim::AuditReport rep = sim::audit_run(inst, log, opts);

    std::cout << rep.summary() << '\n';
    if (!quiet && eps > 0.0) {
      const std::string table = rep.lemma_table();
      if (!table.empty()) std::cout << '\n' << table;
    }
    if (!rep.ok) return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
