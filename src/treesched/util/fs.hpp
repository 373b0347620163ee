// The durable-I/O seam: every on-disk format writes, reads and appends
// through here, and every I/O failpoint is evaluated here.
//
// Sweep JSON, run logs, segment files, snapshots and fault plans are
// consumed by other tools (and by --resume); a process killed mid-write
// must leave either the complete old file or the complete new file, never
// a torn one. write_file_atomic writes to a sibling temporary, fsyncs it,
// renames it over the target — rename(2) on the same filesystem is atomic —
// and then fsyncs the parent directory so the new entry itself survives
// power loss. Append-only logs (segment manifests, the sweep journal, guard
// and quarantine logs) go through append_line_durable: one fsynced
// O_APPEND write per record, with a torn tail healed before the next one.
//
// Failpoints (util/failpoint.hpp): each call names its caller's site, and
// write_file_atomic additionally evaluates "fs.atomic". One private helper
// in fs.cpp maps a hit to its effect, so every site mutates bytes the same
// way: enospc / fsync-fail fail loudly at write seams; torn-write (write
// seams) and short-read (read seams) keep the first half of the bytes;
// bit-flip inverts one bit. A kind that has no meaning at a seam is a no-op.
#pragma once

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

/// A file split into lines the way std::getline splits it: the '\n'
/// separators are dropped, and a final '\n' does not start an empty line.
struct FileLines {
  std::vector<std::string> lines;
  /// False when the last line has no '\n' — the shape a crash mid-append
  /// leaves. True for an empty file.
  bool ends_in_newline = true;
};

/// read_file + the split above; nullopt when the file cannot be opened.
std::optional<FileLines> read_lines(const std::string& path);

/// Crash-safe append of one record to a line-oriented log. `line` must not
/// contain '\n'. The record plus its terminating newline goes to the kernel
/// in a SINGLE O_APPEND write(2), so concurrent appenders (supervisor +
/// child) never interleave mid-record and a crash can tear at most the
/// final line. Before appending, a torn tail from a previous crash (file
/// not ending in '\n') is healed by writing a lone newline first — the torn
/// record becomes its own truncated line and the new record always starts
/// clean. The write is fsynced.
///
/// `failpoint_site` (nullable) is evaluated per call: enospc / fsync-fail
/// throw std::runtime_error loudly; torn-write appends only a newline-less
/// prefix and SUCCEEDS silently (exactly the tail the next append must
/// heal); bit-flip corrupts one bit silently.
void append_line_durable(const std::string& path, const std::string& line,
                         const char* failpoint_site = nullptr);

}  // namespace treesched::util
