// util/fs — the durable-I/O seam every on-disk format writes, reads and
// appends through — and the seal line of util/hash.hpp, tested at the
// primitive level: every seam against every fault kind, the one
// torn-record rule of the append-only logs, and the seal round trip.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "treesched/util/failpoint.hpp"
#include "treesched/util/fs.hpp"
#include "treesched/util/hash.hpp"

namespace treesched {
namespace {

using util::FailKind;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/util_fs_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string arm_spec(const char* site, FailKind kind) {
  return std::string(site) + ":" + util::fail_kind_name(kind) + ":1";
}

/// What one fault kind does at each seam.
enum class Outcome { kThrows, kClean, kTorn, kFlipped };

struct SeamRow {
  FailKind kind;
  Outcome write;   ///< write_file_atomic, at the caller's site or fs.atomic
  Outcome read;    ///< read_file
  Outcome append;  ///< append_line_durable
};

constexpr SeamRow kSeamTable[] = {
    {FailKind::kEnospc, Outcome::kThrows, Outcome::kClean, Outcome::kThrows},
    {FailKind::kFsyncFail, Outcome::kThrows, Outcome::kClean,
     Outcome::kThrows},
    {FailKind::kTornWrite, Outcome::kTorn, Outcome::kClean, Outcome::kTorn},
    {FailKind::kShortRead, Outcome::kClean, Outcome::kTorn, Outcome::kClean},
    {FailKind::kBitFlip, Outcome::kFlipped, Outcome::kFlipped,
     Outcome::kFlipped},
};

std::string expected_bytes(Outcome o, const std::string& clean) {
  switch (o) {
    case Outcome::kTorn: return util::apply_torn(clean);
    case Outcome::kFlipped: return util::apply_bit_flip(clean);
    case Outcome::kClean:
    case Outcome::kThrows: break;
  }
  return clean;
}

class UtilFsTest : public ::testing::Test {
 protected:
  void TearDown() override { util::disarm_failpoints(); }
};

const std::string kContent = "header 1\nrecord alpha beta gamma\n";

TEST_F(UtilFsTest, AtomicWriteSeamAppliesEveryKind) {
  const std::string dir = fresh_dir("write");
  for (const char* site : {"test.write", "fs.atomic"}) {
    for (const SeamRow& row : kSeamTable) {
      SCOPED_TRACE(arm_spec(site, row.kind));
      const std::string path = dir + "/target";
      std::filesystem::remove(path);
      util::ScopedFailpoints armed(arm_spec(site, row.kind));
      if (row.write == Outcome::kThrows) {
        EXPECT_THROW(util::write_file_atomic(path, kContent, "test.write"),
                     std::runtime_error);
        EXPECT_FALSE(std::filesystem::exists(path));
      } else {
        util::write_file_atomic(path, kContent, "test.write");
        EXPECT_EQ(slurp(path), expected_bytes(row.write, kContent));
      }
      EXPECT_EQ(util::failpoints_fired().size(), 1u);
      // No temporary survives, on the error paths included.
      EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                              std::filesystem::directory_iterator()),
                row.write == Outcome::kThrows ? 0 : 1);
    }
  }
}

TEST_F(UtilFsTest, AtomicWriteEvaluatesCallerSiteBeforeFsAtomic) {
  const std::string path = fresh_dir("order") + "/target";
  {
    // Silent faults compose in order: the caller's site tears, then
    // fs.atomic flips a bit of what is left.
    util::ScopedFailpoints armed(
        "test.write:torn-write:1,fs.atomic:bit-flip:1");
    util::write_file_atomic(path, kContent, "test.write");
    EXPECT_EQ(slurp(path), util::apply_bit_flip(util::apply_torn(kContent)));
  }
  {
    // A loud fault at the caller's site stops before fs.atomic is even
    // evaluated: its first evaluation is the next call's.
    util::ScopedFailpoints armed("test.write:enospc:1,fs.atomic:bit-flip:1");
    EXPECT_THROW(util::write_file_atomic(path, "unused", "test.write"),
                 std::runtime_error);
    util::write_file_atomic(path, kContent, "test.write");
    EXPECT_EQ(slurp(path), util::apply_bit_flip(kContent));
    EXPECT_EQ(util::failpoints_fired(),
              (std::vector<std::string>{"test.write:enospc",
                                        "fs.atomic:bit-flip"}));
  }
}

TEST_F(UtilFsTest, ReadSeamAppliesEveryKind) {
  const std::string path = fresh_dir("read") + "/source";
  spit(path, kContent);
  for (const SeamRow& row : kSeamTable) {
    SCOPED_TRACE(arm_spec("test.read", row.kind));
    util::ScopedFailpoints armed(arm_spec("test.read", row.kind));
    const std::optional<std::string> got = util::read_file(path, "test.read");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected_bytes(row.read, kContent));
    EXPECT_EQ(util::failpoints_fired().size(), 1u);
  }
  // A missing file is nullopt and evaluates nothing.
  util::ScopedFailpoints armed("test.read:bit-flip:1");
  EXPECT_FALSE(util::read_file(path + ".missing", "test.read").has_value());
  EXPECT_TRUE(util::failpoints_fired().empty());
}

TEST_F(UtilFsTest, AppendSeamAppliesEveryKind) {
  const std::string path = fresh_dir("append") + "/log";
  const std::string record = "record alpha beta gamma";
  for (const SeamRow& row : kSeamTable) {
    SCOPED_TRACE(arm_spec("test.append", row.kind));
    spit(path, "first\n");
    util::ScopedFailpoints armed(arm_spec("test.append", row.kind));
    switch (row.append) {
      case Outcome::kThrows:
        EXPECT_THROW(util::append_line_durable(path, record, "test.append"),
                     std::runtime_error);
        // ENOSPC lands nothing; a failed fsync follows a write that landed
        // but was never made durable.
        EXPECT_EQ(slurp(path), row.kind == FailKind::kEnospc
                                   ? "first\n"
                                   : "first\n" + record + "\n");
        break;
      case Outcome::kTorn: {
        util::append_line_durable(path, record, "test.append");
        const std::string torn = util::apply_torn(record + "\n");
        ASSERT_EQ(torn.find('\n'), std::string::npos);
        EXPECT_EQ(slurp(path), "first\n" + torn);
        // The next append closes the tail with the marker and starts clean.
        util::append_line_durable(path, "next", "test.append");
        EXPECT_EQ(slurp(path), "first\n" + torn + "\x18\nnext\n");
        break;
      }
      case Outcome::kClean:
      case Outcome::kFlipped:
        util::append_line_durable(path, record, "test.append");
        EXPECT_EQ(slurp(path),
                  "first\n" + expected_bytes(row.append, record + "\n"));
        break;
    }
  }
}

TEST_F(UtilFsTest, AppendCreatesHealsAndRejectsEmbeddedNewlines) {
  const std::string path = fresh_dir("append_plain") + "/log";
  util::append_line_durable(path, "one");
  spit(path, slurp(path) + "torn-tai");
  util::append_line_durable(path, "two");
  EXPECT_EQ(slurp(path), "one\ntorn-tai\x18\ntwo\n");
  EXPECT_THROW(util::append_line_durable(path, "a\nb"), std::runtime_error);
  // The marker is refused like a newline: a record ending in it would read
  // back as torn.
  EXPECT_THROW(util::append_line_durable(path, "c\x18"), std::runtime_error);
  EXPECT_EQ(slurp(path), "one\ntorn-tai\x18\ntwo\n");
  // What the heal wrote reads back as one dropped record.
  const std::optional<util::LogLines> log = util::read_log(path);
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(log->torn, 1u);
  ASSERT_EQ(log->lines.size(), 2u);
  EXPECT_EQ(log->lines[1].number, 3u);
  EXPECT_EQ(log->lines[1].text, "two");
}

TEST_F(UtilFsTest, ReadLogDropsTornRecordsOnly) {
  const std::string dir = fresh_dir("log");
  struct Case {
    const char* name;
    std::string bytes;
    std::vector<std::pair<std::size_t, std::string>> lines;  // number, text
    std::size_t torn;
  };
  const Case cases[] = {
      {"clean", "a\nb c\n", {{1, "a"}, {2, "b c"}}, 0},
      {"torn_final", "a\nb c\nd", {{1, "a"}, {2, "b c"}}, 1},
      {"marked_mid_file", "a\nb\x18\nc\n", {{1, "a"}, {3, "c"}}, 1},
      // A marker that is not the last byte does not mark the line.
      {"inner_marker", "a\x18z\n", {{1, "a\x18z"}}, 0},
      // Unmarked, newline-terminated damage is not a tear: it reaches the
      // format's parser, which calls it corruption.
      {"unmarked_mid_file_damage",
       "a\nga\x01rb\nc\n",
       {{1, "a"}, {2, "ga\x01rb"}, {3, "c"}},
       0},
      {"blank_lines", "\n\nx\n", {{1, ""}, {2, ""}, {3, "x"}}, 0},
      {"marked_and_torn", "x\x18\ny\nz", {{2, "y"}}, 2},
      {"empty", "", {}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = dir + "/" + c.name;
    spit(path, c.bytes);
    const std::optional<util::LogLines> got = util::read_log(path);
    ASSERT_TRUE(got.has_value());
    std::vector<std::pair<std::size_t, std::string>> lines;
    for (const util::LogLine& l : got->lines)
      lines.emplace_back(l.number, l.text);
    EXPECT_EQ(lines, c.lines);
    EXPECT_EQ(got->torn, c.torn);
  }
  EXPECT_FALSE(util::read_log(dir + "/missing").has_value());
}

TEST_F(UtilFsTest, SealRoundTripsAndRejectsDamage) {
  const std::string payload = "p2 0.5 17 1.25\n";
  std::ostringstream os;
  util::seal(os, "p2csum", payload);
  const std::string sealed = os.str();
  EXPECT_EQ(sealed, payload + "p2csum " +
                        std::to_string(util::fnv1a_64(payload)) + "\n");
  const std::string seal_line = sealed.substr(payload.size());
  {
    util::Fields f(seal_line);
    EXPECT_NO_THROW(util::expect_seal(f, "p2csum", payload, "test load"));
  }
  const std::vector<std::string> damaged = {
      "",                                   // missing
      "p2sum " + seal_line.substr(7),       // wrong tag
      "p2csum\n",                           // truncated checksum
      "p2csum x\n",                         // non-numeric checksum
      util::apply_bit_flip(seal_line),      // flipped digit
  };
  for (const std::string& bytes : damaged) {
    SCOPED_TRACE(bytes);
    util::Fields f(bytes);
    EXPECT_THROW(util::expect_seal(f, "p2csum", payload, "test load"),
                 std::invalid_argument);
  }
  // The payload the reader re-serialized differs from what was sealed.
  util::Fields f(seal_line);
  EXPECT_THROW(util::expect_seal(f, "p2csum", "p2 0.5 18 1.25\n", "test load"),
               std::invalid_argument);
}

}  // namespace
}  // namespace treesched
