// Checksummed, generation-rotated snapshot storage for streaming runs.
//
// A snapshot is an ENVELOPE (treesched-snapshot-v2): a text container of
// named sections, each carrying its byte length and an FNV-1a-64
// fingerprint, closed by a whole-file fingerprint over everything above it.
// Length-driven parsing makes the decoder robust to payloads that contain
// header-look-alike lines, and the two fingerprint layers mean a torn,
// truncated, or bit-flipped file is REJECTED (std::invalid_argument), never
// silently mis-loaded:
//
//     treesched-snapshot-v2
//     section stream 123 <fnv>
//     <123 payload bytes>
//     section engine 4567 <fnv>
//     <4567 payload bytes>
//     whole <fnv over all bytes above this line>
//
// The store keeps GENERATIONS: each snapshot lands in its own file
// (<base>.genNNN, written atomically) and the manifest at <base> is an
// append-only log (treesched-snapmanifest-v2):
//
//     treesched-snapmanifest-v2
//     gen <index> <progress> <fingerprint>
//     ...
//
// The header is written once (util::write_file_atomic); each snapshot then
// appends one gen record (util::append_line_durable), so a snapshot costs 3
// fsyncs: the generation file, its directory, the record. The newest `keep`
// records are the live generations; a torn record is dropped by
// util::read_log and any other malformed line is corruption. A v1 manifest
// (rewritten whole on every snapshot) is rejected, not read. Retention
// deletes only HEALTHY generations that leave the keep window; a generation
// that fails verification, or whose record never landed, is QUARANTINED —
// renamed to <file>.quarantined and logged in <base>.quarantine.log —
// never deleted, so a post-mortem always has the corrupt bytes. The resume
// ladder (stream_runner) walks generations newest-first and falls back
// across them.
//
// Failpoint seams (util/failpoint.hpp), evaluated by util/fs:
// "snapshot.write", ahead of "fs.atomic" (enospc / fsync-fail fail loudly
// and leave no generation file; torn-write / bit-flip corrupt the envelope
// silently — the manifest still records the INTENDED fingerprint, which is
// exactly how real lying storage presents), "snapmanifest.append" (the gen
// record) and "snapshot.read" (short-read / bit-flip corrupt the returned
// bytes).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace treesched::exec {

/// No snapshot exists at the base path (nothing was ever written there).
/// treesched_run maps this to its own exit code so operators can tell
/// "never snapshotted" from "snapshotted but unrecoverable".
class SnapshotMissingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Every generation failed verification (all quarantined) — resuming is
/// impossible without operator intervention. The message is the one-line
/// actionable report; the quarantine log has the details.
class SnapshotUnrecoverableError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A generation verified clean but was taken from a DIFFERENT run spec —
/// deliberately std::invalid_argument (it is a usage error, not damage).
class SnapshotSpecMismatchError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct SnapshotSection {
  std::string name;
  std::string payload;
};

/// Appends the treesched-snapshot-v2 envelope of `sections` to `out` (its
/// whole-file fingerprint covers the appended bytes only).
void encode_snapshot_envelope(const std::vector<SnapshotSection>& sections,
                              std::string& out);

/// Parses and VERIFIES an envelope (section fingerprints, the whole-file
/// fingerprint, exact byte accounting). Throws std::invalid_argument with an
/// actionable message on any damage or version mismatch.
std::vector<SnapshotSection> decode_snapshot_envelope(
    const std::string& bytes);

/// Returns the payload of the named section; throws std::invalid_argument
/// when absent (a structurally valid envelope from the wrong producer).
const std::string& find_snapshot_section(
    const std::vector<SnapshotSection>& sections, const std::string& name);

/// One manifest entry. `fingerprint` is FNV-1a-64 over the COMPLETE
/// generation file (including its internal whole-fingerprint line), so a
/// valid-but-substituted envelope is also caught.
struct SnapshotGeneration {
  int index = 0;
  std::uint64_t progress = 0;  ///< jobs retired when the snapshot was taken
  std::uint64_t fingerprint = 0;
  std::string path;
};

class SnapshotStore {
 public:
  /// `base` is the manifest path; generations live next to it as
  /// <base>.genNNN. `keep` >= 1 is the retention budget (--snapshot-keep).
  SnapshotStore(std::string base, int keep);

  /// Writes `envelope` as the next generation (atomic file + one appended
  /// manifest record) and deletes the healthy generation that leaves the
  /// keep window. The manifest is read once, at the first write. A snapshot
  /// the manifest already records (same progress and fingerprint, within
  /// the window) writes nothing: a run resumed from an older generation is
  /// re-taking it. After such a fallback the window therefore holds fewer
  /// than `keep` healthy generations until a snapshot passes the newest
  /// record.
  /// Failpoint sites "snapshot.write" and "snapmanifest.append". Throws
  /// std::runtime_error on I/O failure (injected or real).
  void write(std::uint64_t progress, const std::string& envelope);

  /// The newest `keep` manifest records, NEWEST FIRST (the ladder's walk
  /// order). Throws SnapshotMissingError when no manifest exists at the
  /// base path and std::invalid_argument when the manifest is a v1 one or
  /// is malformed.
  std::vector<SnapshotGeneration> generations() const;

  /// Quarantines every generation file next to the base path whose record
  /// never landed: a kill between the two writes, or a torn record, whether
  /// it was the newest or later snapshots were recorded after it. Returns
  /// them in index order; their progress and fingerprint are unknown (0).
  /// The resume ladder calls it before its first rung. Throws
  /// std::runtime_error when the directory cannot be listed.
  std::vector<SnapshotGeneration> quarantine_uncommitted();

  /// Deletes every generation file whose record is on file but has left the
  /// keep window: a kill between the record and the retention delete, or a
  /// resume with a smaller keep. Such a file is healthy, so the ladder calls
  /// this only once a generation has been restored; a ladder that fails
  /// leaves it for a retry. Throws std::runtime_error when the directory
  /// cannot be listed.
  void delete_retired();

  /// Slurps one generation file. Failpoint site "snapshot.read". Returns
  /// nullopt when the file is missing (a rung the ladder skips); corruption
  /// is the caller's decoder's job to catch.
  std::optional<std::string> read(const SnapshotGeneration& gen) const;

  /// Renames the generation file to <path>.quarantined (never deletes) and
  /// appends a line to the quarantine report. Safe to call when the file
  /// has already vanished.
  void quarantine(const SnapshotGeneration& gen, const std::string& reason);

  std::string quarantine_log_path() const { return base_ + ".quarantine.log"; }
  const std::string& base_path() const { return base_; }
  int keep() const { return keep_; }

 private:
  std::string gen_path(int index) const;
  /// gen_path written into `out` (replacing its contents).
  void assign_gen_path(std::string& out, int index) const;
  /// The newest `keep` records, oldest first; `recorded`, when given,
  /// receives the index of every record in the manifest, ascending.
  std::vector<SnapshotGeneration> window(
      std::vector<int>* recorded = nullptr) const;
  /// The <base>.genNNN files the window does not list, in index order: the
  /// ones with a manifest record (`recorded`) or the ones without.
  std::vector<SnapshotGeneration> strays(bool recorded) const;

  std::string base_;
  int keep_;
  /// window() as of the last write; loaded by the first one.
  std::optional<std::vector<SnapshotGeneration>> window_;
  std::string path_;    ///< the generation file being written
  std::string record_;  ///< its manifest record
};

}  // namespace treesched::exec
