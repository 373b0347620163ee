#include "treesched/guard/guard_log.hpp"

#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "treesched/util/fields.hpp"
#include "treesched/util/fs.hpp"

namespace treesched::guard {

namespace {

constexpr const char* kMagic = "treesched-guardlog-v1";
/// Tolerance for the audit's stall-vs-deadline comparisons: the writer
/// serializes with %.6f, so a stall of exactly 2x the deadline can round a
/// microsecond short of it.
constexpr double kEps = 1e-5;

std::string fmt_seconds(double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", s);
  return buf;
}

}  // namespace

GuardLogWriter::GuardLogWriter(std::string path) : path_(std::move(path)) {
  const std::optional<std::string> existing = util::read_file(path_);
  if (!existing || existing->empty()) util::append_line_durable(path_, kMagic);
}

void GuardLogWriter::append(const std::string& line) {
  util::append_line_durable(path_, line);
}

void GuardLogWriter::ceiling(const GovernorConfig& gov,
                             double watchdog_deadline_s) {
  std::ostringstream os;
  os << "ceiling rss " << gov.rss_ceiling_bytes << " queue "
     << gov.queue_ceiling << " arena " << gov.arena_ceiling << " deadline "
     << fmt_seconds(watchdog_deadline_s);
  append(os.str());
}

void GuardLogWriter::governor_escalate(double t_s, Stage from, Stage to,
                                       const Pressure& p) {
  std::ostringstream os;
  os << "guard " << fmt_seconds(t_s) << " governor escalate "
     << stage_name(from) << " " << stage_name(to) << " rss " << p.rss_bytes
     << " queue " << p.event_queue << " arena " << p.arena;
  append(os.str());
}

void GuardLogWriter::watchdog(double t_s, const std::string& action,
                              double stalled_s, std::uint64_t arrivals) {
  std::ostringstream os;
  os << "guard " << fmt_seconds(t_s) << " watchdog " << action << " stalled "
     << fmt_seconds(stalled_s) << " arrivals " << arrivals;
  append(os.str());
}

void GuardLogWriter::supervisor(double t_s, const std::string& detail) {
  std::ostringstream os;
  os << "guard " << fmt_seconds(t_s) << " supervisor " << detail;
  append(os.str());
}

namespace {

struct AuditState {
  GuardAuditResult result;
  // Per child incarnation (reset by each `ceiling` line):
  bool have_ceiling = false;
  GovernorConfig ceilings;
  double deadline_s = 0.0;
  Stage stage = Stage::kNormal;
  int watchdog_rank = 0;  ///< 0 none yet, 1 log, 2 snapshot, 3 abort
  double last_child_t = -1.0;
  // Supervisor lines share the supervisor's own epoch across the file.
  double last_super_t = -1.0;

  void violate(std::size_t line_no, std::string msg) {
    result.violations.push_back({line_no, std::move(msg)});
  }
};

int watchdog_rank_of(const std::string& action) {
  if (action == "log") return 1;
  if (action == "snapshot") return 2;
  if (action == "abort") return 3;
  return 0;
}

/// Parses one line; returns false (with `why`) on malformed input. Updates
/// the audit state and appends violations for semantic rule breaches.
bool audit_line(AuditState& st, std::size_t line_no, const std::string& line,
                std::string& why) {
  util::Fields f(line);
  const std::string_view head = f.next();

  if (head == "ceiling") {
    std::uint64_t rss = 0, queue = 0, arena = 0;
    double deadline = 0.0;
    f.expect("rss") >> rss;
    f.expect("queue") >> queue;
    f.expect("arena") >> arena;
    f.expect("deadline") >> deadline;
    if (!f || !f.done()) {
      why = "malformed ceiling line";
      return false;
    }
    // New child incarnation: ladder and watchdog episode start over, and the
    // child clock restarts at its own epoch.
    st.have_ceiling = true;
    st.ceilings.rss_ceiling_bytes = rss;
    st.ceilings.queue_ceiling = static_cast<std::size_t>(queue);
    st.ceilings.arena_ceiling = static_cast<std::size_t>(arena);
    st.deadline_s = deadline;
    st.stage = Stage::kNormal;
    st.watchdog_rank = 0;
    st.last_child_t = -1.0;
    ++st.result.incarnations;
    return true;
  }

  if (head != "guard") {
    why = "unknown record type '" + std::string(head) + "'";
    return false;
  }

  double t = 0.0;
  std::string kind;
  if (!(f >> t >> kind)) {
    why = "malformed guard line";
    return false;
  }

  // The supervisor's event is free text: its first word is required, the
  // rest is not parsed.
  if (kind == "supervisor") {
    if (f.done()) {
      why = "supervisor line missing event";
      return false;
    }
    ++st.result.supervisor_events;
    if (st.last_super_t >= 0.0 && t + kEps < st.last_super_t)
      st.violate(line_no, "supervisor timestamp went backwards");
    st.last_super_t = t;
    return true;
  }

  // governor / watchdog lines come from a child incarnation.
  if (!st.have_ceiling) {
    st.violate(line_no, std::string(kind) +
                            " event before any ceiling line (no armed "
                            "configuration to judge it against)");
  }
  if (st.last_child_t >= 0.0 && t + kEps < st.last_child_t)
    st.violate(line_no, "child timestamp went backwards within incarnation");
  st.last_child_t = t;

  if (kind == "governor") {
    std::string from_s, to_s;
    std::uint64_t rss = 0, queue = 0, arena = 0;
    f.expect("escalate") >> from_s >> to_s;
    f.expect("rss") >> rss;
    f.expect("queue") >> queue;
    f.expect("arena") >> arena;
    if (!f || !f.done()) {
      why = "malformed governor line";
      return false;
    }
    Stage from, to;
    try {
      from = parse_stage(from_s);
      to = parse_stage(to_s);
    } catch (const std::invalid_argument& e) {
      why = e.what();
      return false;
    }
    ++st.result.governor_escalations;
    if (from != st.stage)
      st.violate(line_no, "escalation from '" + std::string(stage_name(from)) +
                              "' but incarnation is at '" +
                              stage_name(st.stage) + "'");
    if (static_cast<int>(to) != static_cast<int>(from) + 1)
      st.violate(line_no,
                 "ladder must escalate exactly one stage at a time ('" +
                     std::string(stage_name(from)) + "' -> '" +
                     stage_name(to) + "')");
    if (st.have_ceiling) {
      const auto& c = st.ceilings;
      const bool under_pressure =
          (c.rss_ceiling_bytes > 0 && rss >= c.rss_ceiling_bytes) ||
          (c.queue_ceiling > 0 && queue >= c.queue_ceiling) ||
          (c.arena_ceiling > 0 && arena >= c.arena_ceiling);
      if (!under_pressure)
        st.violate(line_no,
                   "escalation without recorded pressure at or over any "
                   "armed ceiling");
    }
    st.stage = to;
    if (static_cast<int>(to) > static_cast<int>(st.result.max_stage))
      st.result.max_stage = to;
    return true;
  }

  if (kind == "watchdog") {
    std::string action, sval;
    double stalled = 0.0;
    std::uint64_t arrivals = 0;
    f >> action;
    f.expect("stalled") >> sval;
    f.expect("arrivals") >> arrivals;
    if (!f || !f.done() || !util::parse_number(sval, stalled)) {
      why = "malformed watchdog line";
      return false;
    }
    const int rank = watchdog_rank_of(action);
    if (rank == 0) {
      why = "unknown watchdog action '" + action + "'";
      return false;
    }
    ++st.result.watchdog_events;
    // Escalation order within an episode is log -> snapshot -> abort; a
    // fresh `log` may start a new episode (the window made progress, then
    // wedged again), but snapshot/abort without their predecessors cannot.
    if (rank == 1) {
      st.watchdog_rank = 1;
    } else if (rank == st.watchdog_rank + 1) {
      st.watchdog_rank = rank;
    } else {
      st.violate(line_no, "watchdog '" + action +
                              "' without the preceding escalation step");
      st.watchdog_rank = rank;
    }
    if (st.have_ceiling && st.deadline_s > 0.0 &&
        stalled + kEps < st.deadline_s * rank)
      st.violate(line_no, "watchdog '" + action + "' with stall " + sval +
                              "s under " + std::to_string(rank) +
                              "x the armed deadline");
    return true;
  }

  why = "unknown guard event kind '" + kind + "'";
  return false;
}

}  // namespace

GuardAuditResult audit_guard_log(const std::string& path) {
  AuditState st;
  const std::optional<util::LogLines> log = util::read_log(path);
  if (!log) {
    st.violate(0, "cannot open guard log '" + path + "'");
    return std::move(st.result);
  }

  bool saw_magic = false;
  for (const util::LogLine& line : log->lines) {
    if (line.text.empty()) continue;
    if (!saw_magic) {
      if (line.text != kMagic)
        st.violate(line.number,
                   std::string("first record is not '") + kMagic + "'");
      saw_magic = true;
      continue;  // the header line carries no event, valid or not
    }
    std::string why;
    if (!audit_line(st, line.number, line.text, why))
      st.violate(line.number, why);
  }

  if (!saw_magic) st.violate(0, "guard log is empty");
  st.result.ok = st.result.violations.empty();
  return std::move(st.result);
}

}  // namespace treesched::guard
