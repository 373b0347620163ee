// The durable-I/O seam: every on-disk format writes, reads and appends
// through here, and every I/O failpoint is evaluated here.
//
// Sweep JSON, run logs, segment files, snapshots and fault plans are
// consumed by other tools (and by --resume); a process killed mid-write
// must leave either the complete old file or the complete new file, never
// a torn one. write_file_atomic writes to a sibling temporary, fsyncs it,
// renames it over the target — rename(2) on the same filesystem is atomic —
// and then fsyncs the parent directory so the new entry itself survives
// power loss.
//
// Append-only logs (segment manifests, the snapshot manifest, the sweep
// journal, guard and quarantine logs) follow ONE torn-record rule, decided
// here and nowhere else. append_line_durable writes each record as one
// fsynced O_APPEND writev, so a crash tears at most the final line; before
// the next record it heals such a tail by ending it with kTornMarker and
// '\n'. read_log drops exactly the records that rule marks as torn — an
// unterminated final line, or a line whose last byte is kTornMarker — and
// counts them. Every other line reaches the format's parser, which treats a
// line it cannot parse as corruption, wherever in the file it sits.
//
// Failpoints (util/failpoint.hpp): each call names its caller's site, and
// write_file_atomic additionally evaluates "fs.atomic". One private helper
// in fs.cpp maps a hit to its effect, so every site mutates bytes the same
// way: enospc / fsync-fail fail loudly at write seams; torn-write (write
// seams) and short-read (read seams) keep the first half of the bytes;
// bit-flip inverts one bit. A kind that has no meaning at a seam is a no-op.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace treesched::util {

/// Atomically replaces `path` with `content` (tmp + fsync + rename + parent
/// directory fsync). Throws std::runtime_error with a one-line actionable
/// message on any I/O failure; the temporary is unlinked on every error
/// path.
///
/// `failpoint_site` (nullable) is evaluated first; unless it fails loudly,
/// "fs.atomic" is evaluated next, on the bytes the first site left. Silent
/// kinds (torn-write, bit-flip) land corrupted bytes and SUCCEED —
/// modeling storage that lied, which checksummed readers must catch.
void write_file_atomic(const std::string& path, const std::string& content,
                       const char* failpoint_site = nullptr);

/// The whole file, or nullopt when it cannot be opened. `failpoint_site`
/// (nullable) is evaluated once per call: short-read returns the first half
/// of the bytes, bit-flip inverts one bit.
std::optional<std::string> read_file(const std::string& path,
                                     const char* failpoint_site = nullptr);

/// The byte append_line_durable ends a torn tail with (ASCII CAN). Records
/// may not contain it.
inline constexpr char kTornMarker = '\x18';

/// One surviving record of an append-only log.
struct LogLine {
  std::size_t number = 0;  ///< 1-based line number in the file
  std::string text;        ///< without its '\n'; blank lines are kept
};

/// An append-only log with its torn records dropped.
struct LogLines {
  std::vector<LogLine> lines;
  std::size_t torn = 0;  ///< records dropped by the torn-record rule
};

/// read_file + the torn-record rule (file comment); nullopt when the file
/// cannot be opened. Line numbers count dropped records too, so they name
/// the line an editor shows.
std::optional<LogLines> read_log(const std::string& path);

/// Crash-safe append of one record to a line-oriented log. `line` must not
/// contain '\n' or kTornMarker. The record plus its terminating newline
/// goes to the kernel in a SINGLE O_APPEND writev(2), so concurrent appenders
/// (supervisor + child) never interleave mid-record and a crash can tear at
/// most the final line. Before appending, a torn tail from a previous crash
/// (file not ending in '\n') is healed by writing kTornMarker and '\n': the
/// torn record becomes its own marked line, which read_log drops, and the
/// new record always starts clean. The write is fsynced.
///
/// `failpoint_site` (nullable) is evaluated per call: enospc / fsync-fail
/// throw std::runtime_error loudly; torn-write appends only a newline-less
/// prefix and SUCCEEDS silently (exactly the tail the next append must
/// heal); bit-flip corrupts one bit silently.
void append_line_durable(const std::string& path, const std::string& line,
                         const char* failpoint_site = nullptr);

}  // namespace treesched::util
