// Unit tests for the treesched_lint rule matchers: one accept and one
// reject snippet per rule, suppression round-trips, and the stability of
// the JSON report. Fixture-file versions of the same accept/reject pairs
// live in tests/lint_fixtures/ (exercised by lint_fixtures_test).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "treesched/lint/lint.hpp"

using treesched::lint::Finding;
using treesched::lint::lint_source;

namespace {

int count_rule(const std::vector<Finding>& fs, const std::string& rule,
               bool include_suppressed = false) {
  int n = 0;
  for (const Finding& f : fs)
    if (f.rule == rule && (include_suppressed || !f.suppressed)) ++n;
  return n;
}

// --- det-wallclock ---------------------------------------------------------

TEST(LintRules, WallclockRejectsChronoNow) {
  const auto fs = lint_source(
      "void f() { auto t = std::chrono::steady_clock::now(); }",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 1);
}

TEST(LintRules, WallclockRejectsLibcTime) {
  const auto fs =
      lint_source("long f() { return time(nullptr) + clock(); }",
                  "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 2);
}

TEST(LintRules, WallclockRejectsRandomDevice) {
  const auto fs = lint_source("std::random_device rd;",
                              "src/treesched/workload/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 1);
}

TEST(LintRules, WallclockAcceptsSimulationTimeMemberCall) {
  const auto fs = lint_source(
      "double f(const Engine& engine) { return engine.now(); }",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 0);
}

TEST(LintRules, WallclockAcceptsMemberNamedTime) {
  const auto fs = lint_source("double f(Rec r) { return r.time(3); }",
                              "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 0);
}

TEST(LintRules, WallclockExemptsUtilShims) {
  const auto fs = lint_source(
      "void f() { auto t = std::chrono::steady_clock::now(); }",
      "src/treesched/util/stopwatch.hpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 0);
}

TEST(LintRules, WallclockIgnoresStringsAndComments) {
  const auto fs = lint_source(
      "// rand() here\nconst char* s = \"time(0)\";  /* clock() */",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 0);
}

// --- det-raw-rng -----------------------------------------------------------

TEST(LintRules, RawRngRejectsMt19937AndDistributions) {
  const auto fs = lint_source(
      "std::mt19937 gen(42);\nstd::uniform_int_distribution<int> d(0, 9);",
      "src/treesched/workload/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-raw-rng"), 2);
}

TEST(LintRules, RawRngAcceptsUtilRng) {
  const auto fs = lint_source(
      "util::Rng rng(util::split_seed(seed, 3));\ndouble x = rng.uniform();",
      "src/treesched/workload/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-raw-rng"), 0);
}

// --- det-unordered-iter ----------------------------------------------------

TEST(LintRules, UnorderedIterRejectsIterationInEmittingTu) {
  const auto fs = lint_source(
      "void dump(std::ostream& os) {\n"
      "  std::unordered_map<int, double> m;\n"
      "  for (const auto& [k, v] : m) os << \"json\" << k;\n"
      "}",
      "src/treesched/exec/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-unordered-iter"), 1);
}

TEST(LintRules, UnorderedIterRejectsPointerKeyedMap) {
  const auto fs = lint_source(
      "std::map<Node*, int> m;\nvoid emit_json(std::ostream& os);",
      "src/treesched/exec/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-unordered-iter"), 1);
}

TEST(LintRules, UnorderedIterAcceptsLookupOnlyUse) {
  const auto fs = lint_source(
      "int get(const std::unordered_map<int, int>& m, int k) {\n"
      "  return m.at(k);  // point lookups are order-free\n"
      "}\nvoid emit_json(std::ostream& os);",
      "src/treesched/exec/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-unordered-iter"), 0);
}

TEST(LintRules, UnorderedIterAcceptsNonEmittingTu) {
  const auto fs = lint_source(
      "std::unordered_map<int, int> m;\n"
      "void f() { for (const auto& kv : m) use(kv); }",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-unordered-iter"), 0);
}

// --- inv-raw-id-cast -------------------------------------------------------

TEST(LintRules, RawIdCastRejectsSizeTCastOfId) {
  const auto fs =
      lint_source("std::size_t i = static_cast<std::size_t>(node_id);",
                  "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-raw-id-cast"), 1);
}

TEST(LintRules, RawIdCastRejectsIntCastOfMemberId) {
  const auto fs = lint_source("int i = static_cast<int>(job.id);",
                              "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-raw-id-cast"), 1);
}

TEST(LintRules, RawIdCastAcceptsUidx) {
  const auto fs = lint_source("std::size_t i = uidx(node_id);",
                              "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-raw-id-cast"), 0);
}

TEST(LintRules, RawIdCastAcceptsNonIdMember) {
  // `job.size` casts the size member, not the job id: the member chain's
  // last name decides.
  const auto fs = lint_source(
      "auto c = static_cast<std::int32_t>(std::ceil(job.size / chunk));",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-raw-id-cast"), 0);
}

TEST(LintRules, RawIdCastAcceptsFloatTarget) {
  const auto fs = lint_source("double d = static_cast<double>(node_id);",
                              "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-raw-id-cast"), 0);
}

// --- inv-fp-accum ----------------------------------------------------------

TEST(LintRules, FpAccumRejectsNaiveLoopSum) {
  const auto fs = lint_source(
      "double f(const std::vector<double>& xs) {\n"
      "  double total = 0.0;\n"
      "  for (double x : xs) total += x;\n"
      "  return total;\n"
      "}",
      "src/treesched/stats/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-fp-accum"), 1);
}

TEST(LintRules, FpAccumAcceptsCompensatedSum) {
  const auto fs = lint_source(
      "double f(const std::vector<double>& xs) {\n"
      "  util::CompensatedSum total;\n"
      "  for (double x : xs) total.add(x);\n"
      "  return total.value();\n"
      "}",
      "src/treesched/stats/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-fp-accum"), 0);
}

TEST(LintRules, FpAccumIgnoresOutOfScopeDirs) {
  const auto fs = lint_source(
      "double f(const std::vector<double>& xs) {\n"
      "  double total = 0.0;\n"
      "  for (double x : xs) total += x;\n"
      "  return total;\n"
      "}",
      "src/treesched/algo/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-fp-accum"), 0);
}

TEST(LintRules, FpAccumIgnoresMemberFieldsSharingALocalName) {
  const auto fs = lint_source(
      "void f(std::vector<Agg>& as) {\n"
      "  double work = 1.0;\n"
      "  for (Agg& a : as) a.work += work;\n"
      "}",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "inv-fp-accum"), 0);
}

// --- inv-metrics-audit-ref -------------------------------------------------

TEST(LintRules, MetricsAuditRefRejectsUntaggedAccessor) {
  const auto fs = lint_source(
      "class Metrics {\n"
      " public:\n"
      "  /// Some metric.\n"
      "  double shiny_metric() const;\n"
      "};",
      "src/treesched/sim/metrics.hpp");
  EXPECT_EQ(count_rule(fs, "inv-metrics-audit-ref"), 1);
}

TEST(LintRules, MetricsAuditRefAcceptsTaggedAccessor) {
  const auto fs = lint_source(
      "class Metrics {\n"
      " public:\n"
      "  /// Some metric. audit: none(derived from audited quantities).\n"
      "  double shiny_metric() const;\n"
      "};",
      "src/treesched/sim/metrics.hpp");
  EXPECT_EQ(count_rule(fs, "inv-metrics-audit-ref"), 0);
}

TEST(LintRules, MetricsAuditRefOnlyAppliesToMetricsHeader) {
  const auto fs = lint_source(
      "class Metrics {\n public:\n  double shiny_metric() const;\n};",
      "src/treesched/sim/other.hpp");
  EXPECT_EQ(count_rule(fs, "inv-metrics-audit-ref"), 0);
}

// --- hyg-pragma-once -------------------------------------------------------

TEST(LintRules, PragmaOnceRejectsUnguardedHeader) {
  const auto fs = lint_source("int x;\n", "src/treesched/core/x.hpp");
  EXPECT_EQ(count_rule(fs, "hyg-pragma-once"), 1);
}

TEST(LintRules, PragmaOnceAcceptsPragmaOnce) {
  const auto fs =
      lint_source("#pragma once\nint x;\n", "src/treesched/core/x.hpp");
  EXPECT_EQ(count_rule(fs, "hyg-pragma-once"), 0);
}

TEST(LintRules, PragmaOnceAcceptsClassicGuard) {
  const auto fs = lint_source(
      "#ifndef TREESCHED_X_HPP\n#define TREESCHED_X_HPP\nint x;\n#endif\n",
      "src/treesched/core/x.hpp");
  EXPECT_EQ(count_rule(fs, "hyg-pragma-once"), 0);
}

TEST(LintRules, PragmaOnceIgnoresCppFiles) {
  const auto fs = lint_source("int x;\n", "src/treesched/core/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-pragma-once"), 0);
}

// --- hyg-todo-ref ----------------------------------------------------------

TEST(LintRules, TodoRejectsBareTodo) {
  const auto fs = lint_source("// TODO fix this later\nint x;",
                              "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-todo-ref"), 1);
}

TEST(LintRules, TodoAcceptsIssueReference) {
  const auto fs = lint_source(
      "// TODO(#42): narrow this bound\n// TODO(issue-7): and this\nint x;",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-todo-ref"), 0);
}

TEST(LintRules, TodoAcceptsProseMentions) {
  const auto fs = lint_source(
      "// Strips TODO markers from generated code.\nint x;",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-todo-ref"), 0);
}

TEST(LintRules, TodoFindsMarkerInsideBlockCommentLines) {
  const auto fs = lint_source("/*\n * TODO handle overflow\n */\nint x;",
                              "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-todo-ref"), 1);
}

// --- hyg-assert-side-effect ------------------------------------------------

TEST(LintRules, AssertSideEffectRejectsIncrement) {
  const auto fs = lint_source("void f(int x) { assert(x++ > 0); }",
                              "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-assert-side-effect"), 1);
}

TEST(LintRules, AssertSideEffectRejectsTsCheckIncrement) {
  const auto fs =
      lint_source("void f(long g) { TS_CHECK(++g < 10, \"stuck\"); }",
                  "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-assert-side-effect"), 1);
}

TEST(LintRules, AssertSideEffectAcceptsPureCondition) {
  const auto fs = lint_source(
      "void f(int x) { assert(x + 1 > 0); TS_REQUIRE(x == 3, \"msg\"); }",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-assert-side-effect"), 0);
}

TEST(LintRules, AssertSideEffectIgnoresTsMessageArgument) {
  // Only the condition must be pure; the message argument may build state.
  const auto fs = lint_source(
      "void f(int x, std::string m) { TS_CHECK(x > 0, m += \"!\"); }",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "hyg-assert-side-effect"), 0);
}

// --- hyg-raw-fstream -------------------------------------------------------

TEST(LintRules, RawFstreamRejectsStreamsInSrcAndTools) {
  const auto src = lint_source(
      "void f() { std::ifstream in(\"a\"); std::ofstream out(\"b\"); }",
      "src/treesched/workload/x.cpp");
  EXPECT_EQ(count_rule(src, "hyg-raw-fstream"), 2);
  const auto tool =
      lint_source("void f() { std::fstream io(\"c\"); }", "tools/x.cpp");
  EXPECT_EQ(count_rule(tool, "hyg-raw-fstream"), 1);
}

TEST(LintRules, RawFstreamAcceptsUtilFsTestsAndProse) {
  const char* code = "void f() { std::ifstream in(\"a\"); }";
  EXPECT_EQ(count_rule(lint_source(code, "src/treesched/util/fs.cpp"),
                       "hyg-raw-fstream"),
            0);
  EXPECT_EQ(count_rule(lint_source(code, "tests/x_test.cpp"),
                       "hyg-raw-fstream"),
            0);
  const auto prose = lint_source(
      "// no std::ofstream here\nconst char* s = \"ifstream\";",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(prose, "hyg-raw-fstream"), 0);
}

// --- hyg-istringstream -----------------------------------------------------

TEST(LintRules, IstringstreamRejectsStreamDecodersInSrcAndTools) {
  const auto src = lint_source(
      "void f(const std::string& s) { std::istringstream is(s); }",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(src, "hyg-istringstream"), 1);
  const auto tool = lint_source(
      "void f() { std::istringstream a(\"1\"), b(\"2\"); }", "tools/x.cpp");
  EXPECT_EQ(count_rule(tool, "hyg-istringstream"), 1);
}

TEST(LintRules, IstringstreamAcceptsTestsAndProse) {
  const char* code = "void f() { std::istringstream is(\"1\"); }";
  EXPECT_EQ(count_rule(lint_source(code, "tests/x_test.cpp"),
                       "hyg-istringstream"),
            0);
  EXPECT_EQ(count_rule(lint_source(code, "bench/x.cpp"), "hyg-istringstream"),
            0);
  const auto prose = lint_source(
      "// no std::istringstream here\nconst char* s = \"istringstream\";",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(prose, "hyg-istringstream"), 0);
}

// --- suppressions ----------------------------------------------------------

TEST(LintSuppression, TrailingAllowSuppressesOwnLine) {
  const auto fs = lint_source(
      "long t = time(nullptr);  "
      "// treesched-lint: allow(det-wallclock): test harness wall time\n",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 0);
  EXPECT_EQ(count_rule(fs, "det-wallclock", true), 1);
  for (const auto& f : fs)
    if (f.rule == "det-wallclock") {
      EXPECT_TRUE(f.suppressed);
      EXPECT_EQ(f.justification, "test harness wall time");
    }
}

TEST(LintSuppression, StandaloneAllowCoversWholeNextStatement) {
  const auto fs = lint_source(
      "// treesched-lint: allow(det-wallclock): deadline only, not output\n"
      "const auto deadline =\n"
      "    bounded ? Clock::now() + timeout : Clock::time_point::max();\n",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 0);
  EXPECT_EQ(count_rule(fs, "det-wallclock", true), 1);
}

TEST(LintSuppression, AllowDoesNotLeakPastItsStatement) {
  const auto fs = lint_source(
      "// treesched-lint: allow(det-wallclock): first call only\n"
      "long a = time(nullptr);\n"
      "long b = time(nullptr);\n",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 1);
}

TEST(LintSuppression, AllowOfDifferentRuleDoesNotSuppress) {
  const auto fs = lint_source(
      "// treesched-lint: allow(det-raw-rng): wrong rule\n"
      "long a = time(nullptr);\n",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 1);
  EXPECT_EQ(count_rule(fs, "lint-stale-suppression"), 1);
}

TEST(LintSuppression, MissingJustificationIsBadSuppression) {
  const auto fs = lint_source(
      "// treesched-lint: allow(det-wallclock)\nlong a = time(nullptr);\n",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "lint-bad-suppression"), 1);
  EXPECT_EQ(count_rule(fs, "det-wallclock"), 1);  // not suppressed
}

TEST(LintSuppression, UnknownRuleIsBadSuppression) {
  const auto fs = lint_source(
      "// treesched-lint: allow(not-a-rule): because\nint x;\n",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "lint-bad-suppression"), 1);
}

TEST(LintSuppression, StaleAllowIsReported) {
  const auto fs = lint_source(
      "// treesched-lint: allow(det-wallclock): nothing here needs it\n"
      "int x = 3;\n",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "lint-stale-suppression"), 1);
}

TEST(LintSuppression, ProseQuotingTheSyntaxIsNotAnAnnotation) {
  const auto fs = lint_source(
      "/// Suppress with `// treesched-lint: allow(det-wallclock): why`.\n"
      "int x = 3;\n",
      "src/treesched/sim/x.cpp");
  EXPECT_EQ(count_rule(fs, "lint-bad-suppression"), 0);
  EXPECT_EQ(count_rule(fs, "lint-stale-suppression"), 0);
}

// --- report ----------------------------------------------------------------

TEST(LintReport, JsonCarriesSchemaAndFindings) {
  treesched::lint::Report report;
  report.files_scanned = 1;
  report.findings = lint_source("long a = time(nullptr);\n",
                                "src/treesched/sim/x.cpp");
  const std::string json = treesched::lint::report_json(report);
  EXPECT_NE(json.find("\"schema\": \"treesched-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"det-wallclock\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
}

TEST(LintReport, CatalogueHasStableRuleSet) {
  const auto& rules = treesched::lint::rule_catalogue();
  EXPECT_EQ(rules.size(), 15u);
  // Spot-check ids the docs and suppressions depend on.
  bool has_wallclock = false, has_stale = false, has_sketch = false;
  bool has_hot_container = false, has_raw_fstream = false;
  bool has_istringstream = false;
  for (const auto& r : rules) {
    if (std::string(r.id) == "det-wallclock") has_wallclock = true;
    if (std::string(r.id) == "lint-stale-suppression") has_stale = true;
    if (std::string(r.id) == "det-sketch-merge") has_sketch = true;
    if (std::string(r.id) == "perf-engine-hot-container")
      has_hot_container = true;
    if (std::string(r.id) == "hyg-raw-fstream") has_raw_fstream = true;
    if (std::string(r.id) == "hyg-istringstream") has_istringstream = true;
  }
  EXPECT_TRUE(has_wallclock);
  EXPECT_TRUE(has_stale);
  EXPECT_TRUE(has_sketch);
  EXPECT_TRUE(has_hot_container);
  EXPECT_TRUE(has_raw_fstream);
  EXPECT_TRUE(has_istringstream);
}

}  // namespace
