#include "treesched/exec/snapshot_store.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "treesched/util/assert.hpp"
#include "treesched/util/fields.hpp"
#include "treesched/util/fs.hpp"
#include "treesched/util/hash.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::exec {

namespace {

constexpr char kEnvelopeMagic[] = "treesched-snapshot-v2";
constexpr char kManifestMagic[] = "treesched-snapmanifest-v2";
constexpr char kManifestV1Magic[] = "treesched-snapmanifest-v1";

}  // namespace

void encode_snapshot_envelope(const std::vector<SnapshotSection>& sections,
                              std::string& out) {
  const std::size_t from = out.size();
  out += kEnvelopeMagic;
  out += '\n';
  for (const SnapshotSection& s : sections) {
    TS_REQUIRE(!s.name.empty() &&
                   s.name.find_first_of(" \n") == std::string::npos,
               "snapshot envelope: section name must be one token");
    out += "section ";
    out += s.name;
    out += ' ';
    util::append_number(out, s.payload.size());
    out += ' ';
    util::append_number(out, util::fnv1a_64(s.payload));
    out += '\n';
    out += s.payload;
    out += '\n';
  }
  const std::uint64_t whole = util::fnv1a_64(std::string_view(out).substr(from));
  out += "whole ";
  util::append_number(out, whole);
  out += '\n';
}

std::vector<SnapshotSection> decode_snapshot_envelope(
    const std::string& bytes) {
  std::size_t pos = 0;
  auto read_line = [&](std::string& line) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos) return false;
    line = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  };

  std::string line;
  TS_REQUIRE(read_line(line) && line == kEnvelopeMagic,
             "snapshot envelope: bad magic (corrupt, truncated, or from an "
             "unsupported version)");
  std::vector<SnapshotSection> out;
  for (;;) {
    const std::size_t header_pos = pos;
    TS_REQUIRE(read_line(line),
               "snapshot envelope: truncated before the whole-file "
               "fingerprint line");
    util::Fields f(line);
    const std::string_view tag = f.next();
    if (tag == "whole") {
      std::uint64_t fp = 0;
      TS_REQUIRE((f >> fp) && f.done(),
                 "snapshot envelope: malformed whole-file fingerprint line");
      TS_REQUIRE(fp == util::fnv1a_64(bytes.substr(0, header_pos)),
                 "snapshot envelope: whole-file fingerprint mismatch "
                 "(corrupt bytes)");
      TS_REQUIRE(pos == bytes.size(),
                 "snapshot envelope: trailing bytes after the fingerprint");
      return out;
    }
    TS_REQUIRE(tag == "section",
               "snapshot envelope: expected a section header, got '" + line +
                   "'");
    SnapshotSection sec;
    std::size_t len = 0;
    std::uint64_t fp = 0;
    TS_REQUIRE((f >> sec.name >> len >> fp) && f.done(),
               "snapshot envelope: malformed section header '" + line + "'");
    // Length-driven: the payload may contain anything, including lines that
    // look like headers.
    TS_REQUIRE(pos + len < bytes.size(),
               "snapshot envelope: truncated payload in section '" +
                   sec.name + "'");
    sec.payload = bytes.substr(pos, len);
    pos += len;
    TS_REQUIRE(bytes[pos] == '\n',
               "snapshot envelope: section '" + sec.name +
                   "' payload length disagrees with the header");
    ++pos;
    TS_REQUIRE(fp == util::fnv1a_64(sec.payload),
               "snapshot envelope: section '" + sec.name +
                   "' fingerprint mismatch (corrupt bytes)");
    out.push_back(std::move(sec));
  }
}

const std::string& find_snapshot_section(
    const std::vector<SnapshotSection>& sections, const std::string& name) {
  for (const SnapshotSection& s : sections)
    if (s.name == name) return s.payload;
  throw std::invalid_argument("snapshot envelope: missing section '" + name +
                              "' (wrong producer or incompatible run mode)");
}

SnapshotStore::SnapshotStore(std::string base, int keep)
    : base_(std::move(base)), keep_(keep) {
  TS_REQUIRE(!base_.empty(), "snapshot store needs a base path");
  TS_REQUIRE(keep_ >= 1, "--snapshot-keep must be >= 1");
}

std::string SnapshotStore::gen_path(int index) const {
  std::string out;
  assign_gen_path(out, index);
  return out;
}

void SnapshotStore::assign_gen_path(std::string& out, int index) const {
  out.assign(base_);
  out += ".gen";
  util::append_padded(out, static_cast<std::uint64_t>(index), 3);
}

void SnapshotStore::write(std::uint64_t progress,
                          const std::string& envelope) {
  if (!window_) {
    try {
      window_ = window();
    } catch (const SnapshotMissingError&) {
      // First snapshot at this path: the header is written once.
      util::write_file_atomic(base_, std::string(kManifestMagic) + '\n');
      window_.emplace();
    }
  }
  const std::uint64_t fingerprint = util::fnv1a_64(envelope);
  // A run resumed from an older generation re-takes, byte for byte, the
  // snapshots recorded after it. Such a snapshot is already on record (its
  // file quarantined if the bytes were damaged), so it is not taken again:
  // the manifest stays the one an uninterrupted run writes. The price: until
  // the run passes the newest record, the keep window holds fewer than
  // `keep` healthy generations (docs/MODEL.md).
  for (const SnapshotGeneration& recorded : *window_)
    if (recorded.progress == progress && recorded.fingerprint == fingerprint)
      return;
  const int index = window_->empty() ? 0 : window_->back().index + 1;
  // The file name and the record are built in buffers the store reuses.
  assign_gen_path(path_, index);

  // Failpoint site "snapshot.write", then "fs.atomic". The record carries
  // the INTENDED fingerprint: if the storage lied (torn or flipped bytes),
  // verification at read time catches it.
  util::write_file_atomic(path_, envelope, "snapshot.write");
  record_ = "gen ";
  util::append_number(record_, index);
  record_ += ' ';
  util::append_number(record_, progress);
  record_ += ' ';
  util::append_number(record_, fingerprint);
  util::append_line_durable(base_, record_, "snapmanifest.append");

  // Retention: delete the healthy generation that leaves the keep window
  // (a quarantined one was renamed away, so the unlink is a no-op) and
  // reuse its entry, path capacity included, for the new one.
  if (window_->size() >= static_cast<std::size_t>(keep_)) {
    ::unlink(window_->front().path.c_str());
    std::rotate(window_->begin(), window_->begin() + 1, window_->end());
  } else {
    window_->emplace_back();
  }
  SnapshotGeneration& g = window_->back();
  g.index = index;
  g.progress = progress;
  g.fingerprint = fingerprint;
  g.path = path_;
}

std::vector<SnapshotGeneration> SnapshotStore::window(
    std::vector<int>* recorded) const {
  const std::optional<util::LogLines> log = util::read_log(base_);
  if (!log)
    throw SnapshotMissingError("no snapshot manifest at '" + base_ +
                               "' (this run never wrote a snapshot)");
  const std::string where = "snapshot manifest '" + base_ + "'";
  TS_REQUIRE(log->lines.empty() || log->lines[0].text != kManifestV1Magic,
             where + " is " + kManifestV1Magic +
                 ", written by an older treesched, which this build can "
                 "neither resume nor extend; remove it or choose another "
                 "--snapshot-path");
  TS_REQUIRE(!log->lines.empty() && log->lines[0].text == kManifestMagic,
             where + ": bad magic (corrupt or unsupported)");
  std::vector<SnapshotGeneration> gens;
  for (std::size_t i = 1; i < log->lines.size(); ++i) {
    const util::LogLine& line = log->lines[i];
    util::Fields f(line.text);
    SnapshotGeneration g;
    TS_REQUIRE((f.expect("gen") >> g.index >> g.progress >> g.fingerprint) &&
                   f.done() && (gens.empty() || g.index > gens.back().index),
               where + ": line " + std::to_string(line.number) +
                   " is corrupt: " + line.text);
    g.path = gen_path(g.index);
    if (recorded) recorded->push_back(g.index);
    gens.push_back(std::move(g));
    if (gens.size() > static_cast<std::size_t>(keep_))
      gens.erase(gens.begin());
  }
  return gens;
}

std::vector<SnapshotGeneration> SnapshotStore::generations() const {
  std::vector<SnapshotGeneration> gens = window();
  std::reverse(gens.begin(), gens.end());  // newest first: the ladder order
  return gens;
}

std::vector<SnapshotGeneration> SnapshotStore::strays(bool recorded) const {
  std::vector<int> on_record;
  const std::vector<SnapshotGeneration> live = window(&on_record);
  // Generation files are <base>.gen<index>, the index zero-padded to three
  // digits; anything else next to the base (quarantined files, the
  // quarantine log, atomic-write temporaries) is not one.
  const std::filesystem::path base(base_);
  const std::filesystem::path dir =
      base.has_parent_path() ? base.parent_path() : std::filesystem::path(".");
  const std::string prefix = base.filename().string() + ".gen";
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec)
    throw std::runtime_error("cannot list snapshot directory '" +
                             dir.string() + "': " + ec.message());
  std::vector<SnapshotGeneration> out;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.size() > prefix.size() + 9 ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        !std::all_of(name.begin() + static_cast<std::ptrdiff_t>(prefix.size()),
                     name.end(), [](char c) { return c >= '0' && c <= '9'; }))
      continue;
    SnapshotGeneration g;
    util::parse_number(std::string_view(name).substr(prefix.size()), g.index);
    g.path = gen_path(g.index);
    if (std::filesystem::path(g.path).filename() != name) continue;
    const bool listed = std::any_of(
        live.begin(), live.end(),
        [&](const SnapshotGeneration& w) { return w.index == g.index; });
    if (!listed && std::binary_search(on_record.begin(), on_record.end(),
                                      g.index) == recorded)
      out.push_back(std::move(g));
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotGeneration& a, const SnapshotGeneration& b) {
              return a.index < b.index;
            });
  return out;
}

std::vector<SnapshotGeneration> SnapshotStore::quarantine_uncommitted() {
  std::vector<SnapshotGeneration> orphans = strays(false);
  for (const SnapshotGeneration& g : orphans)
    quarantine(g, "no manifest record (uncommitted snapshot)");
  return orphans;
}

void SnapshotStore::delete_retired() {
  std::error_code ec;
  for (const SnapshotGeneration& g : strays(true))
    std::filesystem::remove(g.path, ec);
}

std::optional<std::string> SnapshotStore::read(
    const SnapshotGeneration& gen) const {
  return util::read_file(gen.path, "snapshot.read");
}

void SnapshotStore::quarantine(const SnapshotGeneration& gen,
                               const std::string& reason) {
  const std::string qpath = gen.path + ".quarantined";
  std::error_code ec;
  std::filesystem::rename(gen.path, qpath, ec);
  // Crash-safe single-write append (tail-healed, fsynced): the quarantine
  // report is the post-mortem record of damaged generations, so it must not
  // itself tear or vanish when the resume ladder is interrupted mid-walk.
  // Failpoint site "quarantine.append". A failed append (ENOSPC and friends)
  // must not abort the ladder — quarantining is best-effort bookkeeping;
  // losing the log line is strictly better than losing the resume.
  std::ostringstream line;
  line << "quarantined gen " << gen.index << " progress " << gen.progress
       << " -> " << (ec ? gen.path + " (rename failed: file gone?)" : qpath)
       << ": " << reason;
  std::string text = line.str();
  std::replace(text.begin(), text.end(), '\n', ' ');
  try {
    util::append_line_durable(quarantine_log_path(), text,
                              "quarantine.append");
  } catch (const std::exception& e) {
    std::cerr << "[snapshot] warning: cannot append to quarantine report "
              << quarantine_log_path() << ": " << e.what() << '\n';
  }
}

}  // namespace treesched::exec
