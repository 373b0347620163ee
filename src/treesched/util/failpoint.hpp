// Deterministic I/O fault injection for the durability chaos harness.
//
// A failpoint is a named site that can be armed to fail on a specific
// evaluation. Every site is evaluated inside util/fs (write_file_atomic,
// read_file, append_line_durable — each call names its caller's site), and
// one private helper there is the only place a hit's kind is turned into an
// effect; see docs/MODEL.md for the site -> caller table. Sites:
// fs.atomic, snapshot.write, snapshot.read, segment.read, manifest.append,
// snapmanifest.append, quarantine.append. The schedule is fully explicit —
// no randomness, no wall clock — so every chaos run is reproducible from
// its spec string:
//
//     TREESCHED_FAILPOINTS=fs.atomic:enospc:1,snapshot.read:bit-flip:2
//
// means: the 1st write_file_atomic call fails with ENOSPC, and the 2nd
// snapshot-generation read returns bytes with one bit inverted. Each armed
// entry fires exactly once (on the nth evaluation of its site, 1-based)
// and is recorded in a fired log the tests assert against.
//
// Fault kinds (a kind with no meaning at a seam — a read kind at a write,
// a write kind at a read — is a no-op there):
//   enospc      write fails with ENOSPC before any byte lands
//   fsync-fail  the data fsync fails with EIO
//   torn-write  only a prefix of the payload reaches the file — and the
//               writer does NOT notice (storage lied about durability)
//   short-read  a read returns only a prefix of the file
//   bit-flip    one bit of the payload/returned bytes is inverted silently
//
// Zero-cost when disarmed: failpoint_hit() is a single relaxed atomic bool
// load on the fast path, so shipping the sites compiled-in costs nothing
// measurable on bench_endurance. Arming/disarming is process-global and
// intended for single-run tools and tests, not concurrent arming.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace treesched::util {

enum class FailKind {
  kEnospc,
  kFsyncFail,
  kTornWrite,
  kShortRead,
  kBitFlip,
};

const char* fail_kind_name(FailKind k);

/// Parses one kind token ("enospc", "fsync-fail", "torn-write",
/// "short-read", "bit-flip"). Throws std::invalid_argument on anything else.
FailKind parse_fail_kind(const std::string& token);

struct FailpointHit {
  FailKind kind = FailKind::kEnospc;
};

/// Arms the schedule described by `spec` ("site:kind:nth,..."; nth is the
/// 1-based evaluation count at that site), replacing any previous schedule
/// and clearing the fired log. An empty spec disarms. Throws
/// std::invalid_argument on a malformed spec.
void arm_failpoints(const std::string& spec);

/// Arms from $TREESCHED_FAILPOINTS when set and non-empty (no-op otherwise).
void arm_failpoints_from_env();

/// Clears the schedule and the fired log.
void disarm_failpoints();

/// True when any entry is armed (fired or not).
bool failpoints_armed();

/// Evaluates the site: returns the fault to inject when an armed entry for
/// `site` reaches its nth evaluation, nullopt otherwise. This is the only
/// call seams make; it is a single relaxed atomic load when disarmed.
std::optional<FailpointHit> failpoint_hit(const char* site);

/// "site:kind" strings in firing order, for tests and chaos reports.
std::vector<std::string> failpoints_fired();

/// Scope guard for tests: arms on construction, disarms on destruction.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(const std::string& spec) { arm_failpoints(spec); }
  ~ScopedFailpoints() { disarm_failpoints(); }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;
};

// The byte mutations util/fs applies (half the bytes for torn/short, one
// inverted bit in the middle byte for flips). Exposed for tests that need
// to predict the corrupted bytes exactly.
std::string apply_torn(const std::string& bytes);
std::string apply_bit_flip(const std::string& bytes);

}  // namespace treesched::util
