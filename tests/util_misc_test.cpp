// Class rounding, float comparison, CSV, table, CLI, strings, memory.
#include <gtest/gtest.h>

#include <cmath>

#include "treesched/util/class_rounding.hpp"
#include "treesched/util/cli.hpp"
#include "treesched/util/csv.hpp"
#include "treesched/util/float_compare.hpp"
#include "treesched/util/mem.hpp"
#include "treesched/util/string_util.hpp"
#include "treesched/util/table.hpp"

namespace treesched::util {
namespace {

TEST(ClassRounding, ExactPowersKeepTheirClass) {
  const double eps = 0.5;
  for (std::int64_t k = -4; k <= 12; ++k) {
    const double p = class_size(k, eps);
    EXPECT_EQ(size_class(p, eps), k) << "k=" << k;
    EXPECT_NEAR(round_up_to_class(p, eps), p, 1e-12 * std::fabs(p));
  }
}

TEST(ClassRounding, RoundsUpWithinOneFactor) {
  const double eps = 0.25;
  for (double p : {0.3, 0.9, 1.0, 1.1, 2.7, 17.0, 123.456}) {
    const double r = round_up_to_class(p, eps);
    EXPECT_GE(r, p * (1.0 - 1e-9));
    EXPECT_LE(r, p * (1.0 + eps) * (1.0 + 1e-9));
  }
}

TEST(ClassRounding, EqualClassesGiveBitIdenticalSizes) {
  const double eps = 0.5;
  // SJF tie handling relies on exact equality of rounded sizes.
  EXPECT_EQ(round_up_to_class(2.9, eps), round_up_to_class(3.3, eps));
}

TEST(ClassRounding, RejectsBadArguments) {
  EXPECT_THROW(size_class(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(size_class(1.0, 0.0), std::invalid_argument);
}

TEST(FloatCompare, BasicOrdering) {
  EXPECT_TRUE(approx_eq(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(approx_lt(1.0, 1.1));
  EXPECT_FALSE(approx_lt(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(approx_le(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(approx_ge(1.0 + 1e-12, 1.0));
  EXPECT_TRUE(approx_gt(2.0, 1.0));
}

TEST(FloatCompare, ClampNonneg) {
  EXPECT_EQ(clamp_nonneg(-1e-9), 0.0);
  EXPECT_EQ(clamp_nonneg(0.5), 0.5);
  EXPECT_LT(clamp_nonneg(-1.0), 0.0);  // real negatives surface
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter w({"a", "b"});
  w.add_row({"x,y", "quote\"inside"});
  const std::string out = w.str();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Csv, RowWidthIsChecked) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"only one"}), std::invalid_argument);
}

TEST(Csv, AddFormatsValues) {
  CsvWriter w({"name", "n", "x"});
  w.add("run", 42, 1.5);
  EXPECT_EQ(w.row_count(), 1u);
  EXPECT_NE(w.str().find("run,42,1.5"), std::string::npos);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"policy", "ratio"});
  t.add("paper-greedy", 1.234);
  t.add("random", 11.5);
  const std::string out = t.str();
  EXPECT_NE(out.find("paper-greedy"), std::string::npos);
  EXPECT_NE(out.find("1.234"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Cli, ParsesAllForms) {
  Cli cli("prog", "test");
  auto& n = cli.add_int("jobs", 10, "count");
  auto& x = cli.add_double("eps", 0.5, "epsilon");
  auto& s = cli.add_string("csv", "", "path");
  auto& f = cli.add_flag("fast", "quick mode");
  const char* argv[] = {"prog", "--jobs=25", "--eps", "0.125",
                        "--csv=out.csv", "--fast"};
  cli.parse(6, argv);
  EXPECT_EQ(n, 25);
  EXPECT_DOUBLE_EQ(x, 0.125);
  EXPECT_EQ(s, "out.csv");
  EXPECT_TRUE(f);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Cli cli("prog", "test");
  cli.add_int("jobs", 10, "count");
  {
    const char* argv[] = {"prog", "--nope=1"};
    EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
  }
  {
    const char* argv[] = {"prog", "--jobs", "abc"};
    EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
  }
  {
    const char* argv[] = {"prog", "--jobs"};
    EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
  }
}

TEST(Cli, UsageMentionsEveryOption) {
  Cli cli("prog", "demo");
  cli.add_int("alpha", 1, "first");
  cli.add_flag("beta", "second");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("--alpha"), std::string::npos);
  EXPECT_NE(u.find("--beta"), std::string::npos);
}

TEST(Strings, SplitTrimJoin) {
  EXPECT_EQ(split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
  EXPECT_TRUE(starts_with("treesched", "tree"));
  EXPECT_FALSE(starts_with("tree", "treesched"));
}

TEST(Mem, CurrentRssIsPositiveAndBelowThePeak) {
  // Current RSS comes from /proc/self/statm, the peak from
  // /proc/self/status; read current first so the later peak bounds it.
  const std::uint64_t current = current_rss_bytes();
  const std::uint64_t peak = peak_rss_bytes();
  if (peak == 0) GTEST_SKIP() << "no procfs";
  EXPECT_GT(current, 0u);
  EXPECT_LE(current, peak);
}

}  // namespace
}  // namespace treesched::util
