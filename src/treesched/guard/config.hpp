// Supervision-subsystem configuration: watchdog deadlines, resource
// ceilings, and the degradation-ladder stages shared by the governor, the
// stream runner, the guard log, and treesched_audit --guard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace treesched::guard {

/// The staged degradation ladder, in escalation order. The governor walks
/// one stage per sustained ceiling breach instead of letting the kernel OOM
/// killer decide:
///
///   normal -> streaming-metrics -> shrunk-window -> tightened-shed -> abort
///
/// Each stage trades a little fidelity or goodput for memory headroom; only
/// when every mitigation is exhausted does the run abort — with a snapshot
/// generation already on disk, so the supervisor (or an operator) resumes
/// instead of losing the run.
enum class Stage : std::uint8_t {
  kNormal = 0,
  /// Per-job metric records replaced by streaming sketches (MetricsMode::
  /// kStreaming). Streaming runs are born in this mode; the transition is
  /// still logged so the audited ladder order is the same everywhere.
  kStreamingMetrics = 1,
  /// Stream window quantum halved (results are window-invariant, so this
  /// never changes a schedule byte). It trims memory only at the next
  /// rotation: on a stream that never drains, the window holds every job
  /// since the last rotation whatever the quantum, so it saves at most the
  /// not-yet-arrived tail of one quantum.
  kShrunkWindow = 2,
  /// Admission control tightened (effective queue cap / deadline slack
  /// halved) so the shed policy drains backlog harder.
  kTightenedShed = 3,
  /// Final rung: force a snapshot generation, then abort with exit 71.
  kAbort = 4,
};

inline const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kNormal: return "normal";
    case Stage::kStreamingMetrics: return "streaming-metrics";
    case Stage::kShrunkWindow: return "shrunk-window";
    case Stage::kTightenedShed: return "tightened-shed";
    case Stage::kAbort: return "abort";
  }
  return "?";
}

inline Stage parse_stage(const std::string& s) {
  if (s == "normal") return Stage::kNormal;
  if (s == "streaming-metrics") return Stage::kStreamingMetrics;
  if (s == "shrunk-window") return Stage::kShrunkWindow;
  if (s == "tightened-shed") return Stage::kTightenedShed;
  if (s == "abort") return Stage::kAbort;
  throw std::invalid_argument("unknown degradation stage '" + s + "'");
}

struct WatchdogConfig {
  /// Wall-clock budget for arrival progress within a stream window. The
  /// watchdog escalates at 1x (log), 2x (force snapshot + segment rotate),
  /// and 3x (controlled abort, exit 70) the deadline. 0 disarms.
  double window_deadline_s = 0.0;

  bool enabled() const { return window_deadline_s > 0.0; }
};

/// Resource ceilings. A metric with ceiling 0 is unchecked. One sustained
/// breach of any checked ceiling escalates the ladder by exactly one stage;
/// `cooldown_samples` pressure samples must pass between escalations so a
/// mitigation gets a chance to bite before the next rung fires.
struct GovernorConfig {
  std::uint64_t rss_ceiling_bytes = 0;  ///< peak/current RSS (util/mem)
  std::size_t queue_ceiling = 0;        ///< engine event-queue entries
  std::size_t arena_ceiling = 0;        ///< engine job-arena slots
  std::size_t sample_every = 256;       ///< arrivals between pressure samples
  std::size_t cooldown_samples = 4;     ///< samples between escalations

  bool enabled() const {
    return rss_ceiling_bytes > 0 || queue_ceiling > 0 || arena_ceiling > 0;
  }
};

/// One pressure sample, recorded verbatim in every governor guard line so
/// the audit can verify an escalation fired only under real pressure.
struct Pressure {
  std::uint64_t rss_bytes = 0;
  std::size_t event_queue = 0;
  std::size_t arena = 0;
};

struct GuardConfig {
  WatchdogConfig watchdog;
  GovernorConfig governor;
  /// Guard sidecar log path ("" = no guard log; events still reach stderr).
  /// Deliberately a separate file from the segmented run log: guard events
  /// are wall-clock-driven, so they must stay outside the deterministic
  /// fingerprint chain the kill/resume differential byte-compares.
  std::string guard_log;

  bool any() const { return watchdog.enabled() || governor.enabled(); }
};

/// Thrown by the stream runner when the watchdog's final escalation fires
/// (wedged window; a snapshot generation is already on disk). treesched_run
/// maps it to exit 70.
class WatchdogAbortError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when the governor exhausts the degradation ladder (sustained
/// resource pressure after every mitigation; snapshot already on disk).
/// treesched_run maps it to exit 71.
class GovernorAbortError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace treesched::guard
