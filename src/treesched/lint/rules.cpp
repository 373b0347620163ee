// Rule matchers for treesched_lint. Every rule works on the util::lex token
// stream of a single file; cross-file state is deliberately avoided so a
// finding is always explainable by the file it points at.
#include <algorithm>
#include <cctype>

#include "treesched/lint/lint.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::lint {

namespace {

using util::LexedFile;
using util::TokKind;
using util::Token;

// ---------------------------------------------------------------------------
// Shared matching helpers
// ---------------------------------------------------------------------------

/// Code view: identifiers / numbers / strings / chars / puncts only.
/// Comments and directives are routed to the rules that want them.
struct FileCtx {
  const std::string& path;
  std::vector<Token> code;
  std::vector<Token> comments;
  std::vector<Token> directives;
  std::vector<Finding>* out;

  void report(const char* rule, Severity sev, int line, int col,
              std::string message) const {
    out->push_back(Finding{rule, sev, path, line, col, std::move(message),
                           false, std::string()});
  }

  bool in_dir(const char* prefix) const {
    return util::starts_with(path, prefix);
  }
};

bool ident_at(const std::vector<Token>& t, std::size_t i,
              std::string_view text) {
  return i < t.size() && util::is_ident(t[i], text);
}

bool punct_at(const std::vector<Token>& t, std::size_t i,
              std::string_view text) {
  return i < t.size() && util::is_punct(t[i], text);
}

/// Index just past the parenthesized group opening at `open` (which must
/// point at a "(" / "<" / "{" token); tolerates truncated files by stopping
/// at end. For "<" the match is textual, so shift operators inside template
/// args would confuse it — acceptable for the declarations these rules scan.
std::size_t match_close(const std::vector<Token>& t, std::size_t open,
                        const char* open_text, const char* close_text) {
  const bool angle = close_text[0] == '>';
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (punct_at(t, i, open_text)) {
      ++depth;
    } else if (angle && punct_at(t, i, ">>")) {
      // Maximal munch folds two template closers into one shift token.
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (punct_at(t, i, close_text) && --depth == 0) {
      return i + 1;
    }
  }
  return t.size();
}

/// Splits snake_case / camelCase identifiers into lower-case words.
std::vector<std::string> ident_words(const std::string& s) {
  std::vector<std::string> words;
  std::string cur;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '_') {
      if (!cur.empty()) words.push_back(cur);
      cur.clear();
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(c)) && !cur.empty() &&
        !std::isupper(static_cast<unsigned char>(cur.back()))) {
      words.push_back(cur);
      cur.clear();
    }
    cur.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  if (!cur.empty()) words.push_back(cur);
  return words;
}

// ---------------------------------------------------------------------------
// det-wallclock — wall-clock and libc entropy reads outside util/ shims
// ---------------------------------------------------------------------------
//
// Guarantee protected: schedules, logs, and JSON documents depend only on
// (trace, seed, config) — never on when or how fast the run executed. Any
// wall-clock read in a scheduling path is a nondeterminism foothold even if
// "only used for logging" today. Timing lives behind util::Stopwatch, and
// wall-clock-driven control flow (pool gather deadlines) must carry an
// explicit suppression explaining why the clock cannot reach the output.

void rule_det_wallclock(const FileCtx& ctx) {
  if (ctx.in_dir("src/treesched/util/")) return;  // the shims themselves
  static const char* kCalls[] = {"time",          "clock",  "rand",
                                 "srand",         "random", "gettimeofday",
                                 "clock_gettime", "localtime", "gmtime"};
  const auto& t = ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    if (t[i].text == "random_device") {
      ctx.report("det-wallclock", Severity::kError, t[i].line, t[i].col,
                 "std::random_device is environmental entropy; seed "
                 "util::Rng via util::split_seed instead");
      continue;
    }
    const bool called = punct_at(t, i + 1, "(");
    if (!called) continue;
    // Only namespace-qualified ::now() is a wall-clock read; `engine.now()`
    // and friends are *simulation* time (member calls on project types).
    if (t[i].text == "now" && i > 0 && punct_at(t, i - 1, "::")) {
      ctx.report("det-wallclock", Severity::kError, t[i].line, t[i].col,
                 "clock ::now() read outside util/ timing shims; use "
                 "util::Stopwatch or keep wall time out of this path");
      continue;
    }
    for (const char* name : kCalls) {
      if (t[i].text != name) continue;
      // `x.time(...)` / `obj->clock(...)` are member calls on project types,
      // not the libc functions.
      if (i > 0 && (punct_at(t, i - 1, ".") || punct_at(t, i - 1, "->")))
        break;
      ctx.report("det-wallclock", Severity::kError, t[i].line, t[i].col,
                 std::string(name) +
                     "() reads ambient time/entropy; derive everything "
                     "from the trace and the seed");
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// det-raw-rng — std <random> engines/distributions instead of util::Rng
// ---------------------------------------------------------------------------
//
// Guarantee protected: bit-identical workloads across standard libraries.
// std::mt19937 output is portable but std::*_distribution is not, and any
// direct engine seeding bypasses the util::split_seed stream discipline that
// makes results independent of thread count and call order.

void rule_det_raw_rng(const FileCtx& ctx) {
  static const char* kBanned[] = {
      "mt19937",        "mt19937_64",      "minstd_rand",
      "minstd_rand0",   "ranlux24",        "ranlux48",
      "knuth_b",        "default_random_engine",
      "uniform_int_distribution",  "uniform_real_distribution",
      "normal_distribution",       "bernoulli_distribution",
      "exponential_distribution",  "poisson_distribution",
      "discrete_distribution",     "piecewise_constant_distribution"};
  for (const Token& tok : ctx.code) {
    if (tok.kind != TokKind::kIdentifier) continue;
    for (const char* name : kBanned)
      if (tok.text == name) {
        ctx.report("det-raw-rng", Severity::kError, tok.line, tok.col,
                   "std::" + tok.text +
                       " bypasses util::Rng / util::split_seed; its "
                       "streams are not reproducible across platforms "
                       "or thread counts");
        break;
      }
  }
}

// ---------------------------------------------------------------------------
// det-unordered-iter — address-ordered iteration in emitting TUs
// ---------------------------------------------------------------------------
//
// Guarantee protected: byte-identical run logs / JSON / metrics. Iterating
// a std::unordered_* container (hash order) or a pointer-keyed ordered
// container (address order) in a translation unit that emits output lets an
// allocator decision reorder emitted lines. The TU gate keeps purely
// internal hash-map use (none today) out of scope.

bool emits_output(const FileCtx& ctx) {
  static const char* kMarkers[] = {"RunLog",   "run_log", "Recorder",
                                   "recorder", "Metrics", "metrics"};
  for (const Token& tok : ctx.code) {
    if (tok.kind == TokKind::kIdentifier) {
      for (const char* m : kMarkers)
        if (tok.text == m) return true;
      if (tok.text.find("json") != std::string::npos ||
          tok.text.find("Json") != std::string::npos)
        return true;
    }
    if (tok.kind == TokKind::kString &&
        (tok.text.find("schema") != std::string::npos ||
         tok.text.find("json") != std::string::npos))
      return true;
  }
  return false;
}

void rule_det_unordered_iter(const FileCtx& ctx) {
  if (!emits_output(ctx)) return;
  const auto& t = ctx.code;

  // Names declared with an unordered type in this file.
  std::vector<std::string> unordered_vars;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier ||
        !util::starts_with(t[i].text, "unordered_"))
      continue;
    if (!punct_at(t, i + 1, "<")) continue;
    const std::size_t past = match_close(t, i + 1, "<", ">");
    if (past < t.size() && t[past].kind == TokKind::kIdentifier)
      unordered_vars.push_back(t[past].text);

    // Pointer-keyed check applies to the unordered containers too, but hash
    // order is already flagged wholesale below, so no extra finding here.
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    // Pointer-keyed ordered containers: std::map<T*, ...> / std::set<T*>.
    if (t[i].kind == TokKind::kIdentifier &&
        (t[i].text == "map" || t[i].text == "set" ||
         t[i].text == "multimap" || t[i].text == "multiset") &&
        i >= 2 && punct_at(t, i - 1, "::") && ident_at(t, i - 2, "std") &&
        punct_at(t, i + 1, "<")) {
      const bool is_map = t[i].text == "map" || t[i].text == "multimap";
      const std::size_t past = match_close(t, i + 1, "<", ">");
      int depth = 0;
      for (std::size_t k = i + 1; k < past; ++k) {
        if (punct_at(t, k, "<")) ++depth;
        if (punct_at(t, k, ">")) --depth;
        if (is_map && depth == 1 && punct_at(t, k, ",")) break;
        if (depth == 1 && punct_at(t, k, "*")) {
          ctx.report("det-unordered-iter", Severity::kError, t[i].line,
                     t[i].col,
                     "pointer-keyed std::" + t[i].text +
                         " iterates in address order in a TU that emits "
                         "output; key by NodeId/JobId instead");
          break;
        }
      }
    }

    // Iteration over a tracked unordered variable or an inline unordered
    // expression: any for-statement whose parenthesized head mentions one.
    if (!ident_at(t, i, "for") || !punct_at(t, i + 1, "(")) continue;
    const std::size_t past = match_close(t, i + 1, "(", ")");
    for (std::size_t k = i + 2; k + 1 < past; ++k) {
      const bool inline_unordered =
          t[k].kind == TokKind::kIdentifier &&
          util::starts_with(t[k].text, "unordered_");
      const bool tracked =
          t[k].kind == TokKind::kIdentifier &&
          std::find(unordered_vars.begin(), unordered_vars.end(), t[k].text) !=
              unordered_vars.end();
      if (inline_unordered || tracked) {
        ctx.report("det-unordered-iter", Severity::kError, t[i].line,
                   t[i].col,
                   "iteration over hash-ordered container '" + t[k].text +
                       "' in a TU that emits output; use a vector or an "
                       "id-keyed ordered container");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// inv-raw-id-cast — id/time narrowing that bypasses uidx()
// ---------------------------------------------------------------------------
//
// Guarantee protected: NodeId/JobId/Time conversions stay funneled through
// the one helper that documents (and under -Wsign-conversion, checks) the
// non-negativity contract. A stray static_cast<size_t>(id) compiles the day
// id is -1 (kInvalidNode) and silently indexes with 2^64-1.

bool is_int_family_type(const std::vector<Token>& t, std::size_t from,
                        std::size_t to) {
  std::vector<std::string> parts;
  for (std::size_t i = from; i < to; ++i)
    if (t[i].kind == TokKind::kIdentifier) parts.push_back(t[i].text);
  if (parts.empty()) return false;
  if (parts.back() == "size_t" || parts.back() == "ptrdiff_t") return true;
  static const char* kInts[] = {"int",      "unsigned", "long",
                                "short",    "int8_t",   "int16_t",
                                "int32_t",  "int64_t",  "uint8_t",
                                "uint16_t", "uint32_t", "uint64_t"};
  for (const std::string& p : parts) {
    bool known = p == "std" || p == "signed" || p == "const";
    for (const char* k : kInts) known = known || p == k;
    if (!known) return false;
  }
  return true;
}

bool is_id_evidence(const std::string& ident) {
  static const char* kWholeWords[] = {
      "id",     "node",   "job",      "leaf",     "parent",
      "child",  "src",    "dst",      "source",   "target",
      "assignee", "machine", "completion", "release", "deadline",
      "makespan"};
  if (ident.size() > 2) {
    if (ident.size() >= 3 && ident.compare(ident.size() - 3, 3, "_id") == 0)
      return true;
    if (ident.compare(ident.size() - 2, 2, "Id") == 0) return true;
  }
  const std::vector<std::string> words = ident_words(ident);
  // Counts over id spaces (node_count and friends) share the id types'
  // contract, so they route through uidx() as well.
  if (words.size() == 2 && words[1] == "count") {
    for (const char* w : {"node", "job", "leaf", "machine"})
      if (words[0] == w) return true;
  }
  if (words.size() != 1) return false;
  for (const char* w : kWholeWords)
    if (words[0] == w) return true;
  return false;
}

void rule_inv_raw_id_cast(const FileCtx& ctx) {
  const auto& t = ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!ident_at(t, i, "static_cast") || !punct_at(t, i + 1, "<")) continue;
    const std::size_t type_end = match_close(t, i + 1, "<", ">");
    if (!is_int_family_type(t, i + 2, type_end - 1)) continue;
    if (!punct_at(t, type_end, "(")) continue;
    const std::size_t arg_end = match_close(t, type_end, "(", ")");
    for (std::size_t k = type_end + 1; k + 1 < arg_end; ++k) {
      if (t[k].kind != TokKind::kIdentifier || !is_id_evidence(t[k].text))
        continue;
      // In a member chain the *last* name is the value being cast:
      // `job.size` is a size (fine), `job.id` is an id (flagged). An
      // identifier followed by . or -> defers judgment to its member.
      if (k + 1 < arg_end &&
          (punct_at(t, k + 1, ".") || punct_at(t, k + 1, "->")))
        continue;
      ctx.report("inv-raw-id-cast", Severity::kError, t[i].line, t[i].col,
                 "raw integral cast of id/time value '" + t[k].text +
                     "'; route through uidx() (core/types.hpp) so the "
                     "non-negativity contract stays visible");
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// inv-fp-accum — naive FP accumulation loops in stats/ and sim/
// ---------------------------------------------------------------------------
//
// Guarantee protected: aggregate metrics keep their precision independent of
// summand order and magnitude spread. `double total; for (...) total += x;`
// loses low-order bits exactly where the lemma-margin comparisons are
// tightest; util::CompensatedSum (util/csum.hpp) is the designated helper.
// Hot-path aggregates whose byte-exact current behaviour is load-bearing
// (golden schedules) carry explicit suppressions instead.

void rule_inv_fp_accum(const FileCtx& ctx) {
  if (!ctx.in_dir("src/treesched/stats/") && !ctx.in_dir("src/treesched/sim/"))
    return;
  const auto& t = ctx.code;

  // Locals declared `double NAME ...` (not parameters: a parameter's `double`
  // is preceded by '(' or ',' — ignoring const, which rarely prefixes an
  // accumulator anyway).
  std::vector<std::string> fp_locals;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!ident_at(t, i, "double") && !ident_at(t, i, "float")) continue;
    if (i > 0 && (punct_at(t, i - 1, "(") || punct_at(t, i - 1, ",")))
      continue;
    if (t[i + 1].kind == TokKind::kIdentifier &&
        (punct_at(t, i + 2, "=") || punct_at(t, i + 2, "{") ||
         punct_at(t, i + 2, ";")))
      fp_locals.push_back(t[i + 1].text);
  }
  if (fp_locals.empty()) return;

  // `NAME += ...` anywhere lexically inside a for-statement body.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!ident_at(t, i, "for") || !punct_at(t, i + 1, "(")) continue;
    const std::size_t head_end = match_close(t, i + 1, "(", ")");
    std::size_t body_end;
    if (punct_at(t, head_end, "{")) {
      body_end = match_close(t, head_end, "{", "}");
    } else {  // single-statement body: up to the terminating ';'
      body_end = head_end;
      while (body_end < t.size() && !punct_at(t, body_end, ";")) ++body_end;
    }
    for (std::size_t k = head_end; k + 1 < body_end; ++k) {
      if (t[k].kind != TokKind::kIdentifier || !punct_at(t, k + 1, "+="))
        continue;
      if (std::find(fp_locals.begin(), fp_locals.end(), t[k].text) ==
          fp_locals.end())
        continue;
      // `agg.work +=` writes a member that merely shares a local's name;
      // the rule tracks declared locals only.
      if (k > 0 && (punct_at(t, k - 1, ".") || punct_at(t, k - 1, "->")))
        continue;
      ctx.report("inv-fp-accum", Severity::kWarning, t[k].line, t[k].col,
                 "naive `" + t[k].text +
                     " +=` accumulation in a loop; use "
                     "util::CompensatedSum (util/csum.hpp) or suppress "
                     "with the reason the exact current rounding is "
                     "load-bearing");
    }
  }
}

// ---------------------------------------------------------------------------
// inv-metrics-audit-ref — serialized Metrics accessors must name their audit
// ---------------------------------------------------------------------------
//
// Guarantee protected: every number Metrics exposes (and the CLIs serialize)
// is cross-checkable by treesched_audit, which recomputes from the run log
// without trusting engine state. The accessor's doc comment must carry an
// `audit:` tag naming the audit rule that covers it — or `audit: none(...)`
// with the reason no independent check exists. The tag is how the
// metrics <-> audit correspondence stays written down next to the code.

void rule_inv_metrics_audit_ref(const FileCtx& ctx) {
  if (ctx.path.find("sim/metrics.hpp") == std::string::npos) return;
  const auto& t = ctx.code;

  // Locate `class Metrics { ... };`
  std::size_t body_begin = t.size(), body_end = t.size();
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (ident_at(t, i, "class") && ident_at(t, i + 1, "Metrics") &&
        punct_at(t, i + 2, "{")) {
      body_begin = i + 2;
      body_end = match_close(t, i + 2, "{", "}");
      break;
    }
  }

  int depth = 0;
  for (std::size_t i = body_begin; i < body_end; ++i) {
    if (punct_at(t, i, "{")) ++depth;
    if (punct_at(t, i, "}")) --depth;
    if (depth != 1) continue;
    // Accessor declarations: `double name(` or `std::size_t name(`.
    std::size_t name_i = 0;
    if (ident_at(t, i, "double") && i + 1 < body_end &&
        t[i + 1].kind == TokKind::kIdentifier && punct_at(t, i + 2, "(")) {
      name_i = i + 1;
    } else if (ident_at(t, i, "size_t") && i + 1 < body_end &&
               t[i + 1].kind == TokKind::kIdentifier &&
               punct_at(t, i + 2, "(")) {
      name_i = i + 1;
    }
    if (name_i == 0) continue;

    const int decl_line = t[name_i].line;
    bool tagged = false;
    for (const Token& c : ctx.comments) {
      if (c.line >= decl_line - 6 && c.line < decl_line &&
          c.text.find("audit:") != std::string::npos) {
        tagged = true;
        break;
      }
    }
    if (!tagged)
      ctx.report("inv-metrics-audit-ref", Severity::kError, decl_line,
                 t[name_i].col,
                 "Metrics::" + t[name_i].text +
                     "() is serialized by the CLIs but its doc comment "
                     "names no `audit:` rule (use `audit: none(<why>)` if "
                     "no independent check exists)");
  }
}

// ---------------------------------------------------------------------------
// hyg-pragma-once — headers must be include-guarded
// ---------------------------------------------------------------------------

void rule_hyg_pragma_once(const FileCtx& ctx) {
  if (ctx.path.size() < 4 ||
      ctx.path.compare(ctx.path.size() - 4, 4, ".hpp") != 0)
    return;
  for (std::size_t i = 0; i < ctx.directives.size(); ++i) {
    const Token& d = ctx.directives[i];
    if (util::starts_with(d.text, "pragma once")) return;
    if (util::starts_with(d.text, "ifndef") &&
        i + 1 < ctx.directives.size() &&
        util::starts_with(ctx.directives[i + 1].text, "define"))
      return;
  }
  ctx.report("hyg-pragma-once", Severity::kError, 1, 1,
             "header has neither `#pragma once` nor an include guard");
}

// ---------------------------------------------------------------------------
// hyg-todo-ref — TODOs must reference an issue
// ---------------------------------------------------------------------------

void rule_hyg_todo_ref(const FileCtx& ctx) {
  // Only a TODO that *leads* a comment line is a marker; prose mentioning
  // the word ("... and TODO markers ...") is not actionable and stays quiet.
  for (const Token& c : ctx.comments) {
    int line = c.line;
    std::size_t start = 0;
    while (start <= c.text.size()) {
      std::size_t end = c.text.find('\n', start);
      if (end == std::string::npos) end = c.text.size();
      std::string_view sv(c.text.data() + start, end - start);
      // Strip comment decoration: slashes, stars, whitespace.
      std::size_t b = 0;
      while (b < sv.size() &&
             (sv[b] == '/' || sv[b] == '*' || sv[b] == ' ' || sv[b] == '\t'))
        ++b;
      sv.remove_prefix(b);
      if (sv.substr(0, 4) == "TODO" &&
          sv.substr(0, 6) != "TODO(#" && sv.substr(0, 10) != "TODO(issue") {
        ctx.report("hyg-todo-ref", Severity::kWarning, line, c.col,
                   "TODO without an issue reference; write TODO(#123) or "
                   "TODO(issue-slug) so it stays actionable");
      }
      if (end == c.text.size()) break;
      start = end + 1;
      ++line;
    }
  }
}

// ---------------------------------------------------------------------------
// hyg-assert-side-effect — mutations inside assertion conditions
// ---------------------------------------------------------------------------
//
// TS_REQUIRE/TS_CHECK are always-on, so a side effect merely reads badly;
// plain assert() compiles out under NDEBUG and a side effect changes release
// behaviour. Both are flagged: the condition of an assertion must be a pure
// expression.

void rule_hyg_assert_side_effect(const FileCtx& ctx) {
  const auto& t = ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool is_assert = ident_at(t, i, "assert");
    const bool is_ts =
        ident_at(t, i, "TS_REQUIRE") || ident_at(t, i, "TS_CHECK");
    if ((!is_assert && !is_ts) || !punct_at(t, i + 1, "(")) continue;
    const std::size_t close = match_close(t, i + 1, "(", ")");
    // For TS_* only the first argument is the condition (the second is the
    // message, where `<<`-free string building may legitimately assign).
    std::size_t cond_end = close - 1;
    if (is_ts) {
      int depth = 0;
      for (std::size_t k = i + 1; k < close; ++k) {
        if (punct_at(t, k, "(")) ++depth;
        if (punct_at(t, k, ")")) --depth;
        if (depth == 1 && punct_at(t, k, ",")) {
          cond_end = k;
          break;
        }
      }
    }
    for (std::size_t k = i + 2; k < cond_end; ++k) {
      if (punct_at(t, k, "++") || punct_at(t, k, "--") ||
          punct_at(t, k, "=") || punct_at(t, k, "+=") ||
          punct_at(t, k, "-=") || punct_at(t, k, "*=") ||
          punct_at(t, k, "/=")) {
        ctx.report("hyg-assert-side-effect", Severity::kError, t[k].line,
                   t[k].col,
                   "side effect ('" + t[k].text + "') inside " + t[i].text +
                       " condition; assertions must be pure");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// hyg-raw-fstream — file streams in src/ or tools/ outside util/fs
// hyg-istringstream — a stream decoder in src/ or tools/
// ---------------------------------------------------------------------------
//
// Guarantees protected: every file the program writes or reads goes through
// util/fs, where writes are atomic or durably appended, every I/O
// failpoint is evaluated, and the append-only logs share one torn-record
// rule; a std::ifstream / std::ofstream / std::fstream elsewhere bypasses
// all three. And every text decoder reads tokens through util::Fields,
// whose numbers are whole tokens and whose records can be checked for
// leftovers, where stream extraction wraps "-1" into an unsigned field,
// reads "1.5x" as 1.5 and ignores trailing fields. Tests, benches and
// examples may use streams freely.

void rule_hyg_streams(const FileCtx& ctx) {
  if (!ctx.in_dir("src/") && !ctx.in_dir("tools/")) return;
  for (const Token& tok : ctx.code) {
    if (tok.kind != TokKind::kIdentifier) continue;
    if (tok.text == "istringstream")
      ctx.report("hyg-istringstream", Severity::kError, tok.line, tok.col,
                 "std::istringstream decodes leniently; read tokens with "
                 "util::Fields (treesched/util/fields.hpp)");
    else if ((tok.text == "ifstream" || tok.text == "ofstream" ||
              tok.text == "fstream") &&
             ctx.path != "src/treesched/util/fs.cpp")  // the seam itself
      ctx.report("hyg-raw-fstream", Severity::kError, tok.line, tok.col,
                 "std::" + tok.text +
                     " bypasses util/fs; use util::read_file, "
                     "util::write_file_atomic or util::append_line_durable");
  }
}

// ---------------------------------------------------------------------------
// det-sketch-merge — order-sensitive sketch merge outside stats/
// ---------------------------------------------------------------------------
//
// Guarantee protected: quantile sketches produce identical bytes regardless
// of how work was parallelized. QuantileDigest::absorb_unordered folds its
// argument in call order, so two threads merging partials in completion
// order yield different centroids run to run. Every call site outside the
// sketch implementation itself must route through
// stats::merge_deterministic(), which fixes the fold order to the caller's
// index order.

void rule_det_sketch_merge(const FileCtx& ctx) {
  if (ctx.in_dir("src/treesched/stats/")) return;  // the implementation
  const auto& t = ctx.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    if (t[i].text != "absorb_unordered") continue;
    if (!punct_at(t, i + 1, "(")) continue;
    ctx.report("det-sketch-merge", Severity::kError, t[i].line, t[i].col,
               "absorb_unordered() is order-sensitive; merge sketches via "
               "stats::merge_deterministic() so the fold order is fixed");
  }
}

// ---------------------------------------------------------------------------
// perf-engine-hot-container — node-per-element containers in the engine
// ---------------------------------------------------------------------------
//
// Guarantee protected: the engine's per-job path stays allocation-free.
// The engine keeps its events in one flat heap (event_queue.hpp), each
// node's available items in a flat heap and Q_v in the node's dispatch
// index; a std::set or std::priority_queue declaration creeping back into
// sim/engine re-introduces a node allocation per insert on the path the
// allocs/job gates measure (CI's BM_DispatchWideTree gate and
// tests/sim_alloc_test). A deliberate exception would carry an explicit
// suppression with the reason the container choice is load-bearing.

void rule_perf_engine_hot_container(const FileCtx& ctx) {
  if (ctx.path.find("sim/engine") == std::string::npos) return;
  const auto& t = ctx.code;
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier ||
        (t[i].text != "set" && t[i].text != "priority_queue"))
      continue;
    if (!punct_at(t, i - 1, "::") || !ident_at(t, i - 2, "std") ||
        !punct_at(t, i + 1, "<"))
      continue;
    ctx.report("perf-engine-hot-container", Severity::kError, t[i].line,
               t[i].col,
               "std::" + t[i].text +
                   " in the engine allocates per element on the hot path; "
                   "use EventQueue / the pooled avail heaps, or suppress "
                   "with the reason this container is load-bearing");
  }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Suppression {
  std::string rule;
  std::string justification;
  int comment_line;
  // Inclusive line range the annotation covers: its own line (trailing
  // form) or the whole next statement (standalone form).
  int target_begin;
  int target_end;
  bool used = false;
};

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : rule_catalogue())
    if (id == r.id) return true;
  return false;
}

/// Parses every suppression annotation. Only a plain `//` comment whose
/// first word is the marker counts — doc text QUOTING the syntax (`///`
/// comments, mid-sentence mentions, nested `//` in examples) is prose, not
/// an annotation. Malformed annotations become lint-bad-suppression
/// findings immediately.
std::vector<Suppression> collect_suppressions(const FileCtx& ctx) {
  std::vector<Suppression> sups;
  const std::string marker = "treesched-lint:";
  for (const Token& c : ctx.comments) {
    if (!util::starts_with(c.text, "//")) continue;
    std::size_t p = 2;
    while (p < c.text.size() && c.text[p] == ' ') ++p;
    if (c.text.compare(p, marker.size(), marker) != 0) continue;
    p += marker.size();
    while (p < c.text.size() && c.text[p] == ' ') ++p;
    if (c.text.compare(p, 6, "allow(") != 0) {
      ctx.report("lint-bad-suppression", Severity::kError, c.line, c.col,
                 "unrecognized treesched-lint annotation; expected "
                 "`treesched-lint: allow(<rule-id>): <justification>`");
      continue;
    }
    p += 6;
    const std::size_t close = c.text.find(')', p);
    if (close == std::string::npos) {
      ctx.report("lint-bad-suppression", Severity::kError, c.line, c.col,
                 "unterminated allow(...) in treesched-lint annotation");
      continue;
    }
    const std::string rule = util::trim(c.text.substr(p, close - p));
    std::string just;
    std::size_t after = close + 1;
    if (after < c.text.size() && c.text[after] == ':')
      just = util::trim(c.text.substr(after + 1));
    if (!known_rule(rule)) {
      ctx.report("lint-bad-suppression", Severity::kError, c.line, c.col,
                 "allow() names unknown rule '" + rule + "'");
      continue;
    }
    if (just.empty()) {
      ctx.report("lint-bad-suppression", Severity::kError, c.line, c.col,
                 "suppression of '" + rule +
                     "' has no justification; write `allow(" + rule +
                     "): <why this is safe>`");
      continue;
    }
    // A trailing comment suppresses its own line; a comment alone on a line
    // suppresses the statement that follows it — through the line of its
    // terminating ';' or the '{' opening its body, so multi-line statements
    // (and justification text continued on further comment lines) work.
    bool trailing = false;
    for (const Token& code : ctx.code)
      if (code.line == c.line && code.col < c.col) {
        trailing = true;
        break;
      }
    int begin = c.line, end = c.line;
    if (!trailing) {
      begin = 0;
      for (const Token& code : ctx.code) {
        if (code.line <= c.line) continue;
        if (begin == 0) begin = code.line;
        end = code.line;
        if (util::is_punct(code, ";") || util::is_punct(code, "{")) break;
      }
      if (begin == 0) begin = end = c.line + 1;  // nothing follows
    }
    sups.push_back(Suppression{rule, just, c.line, begin, end});
  }
  return sups;
}

}  // namespace

const char* severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"det-wallclock", Severity::kError,
       "wall-clock / ambient entropy read outside util/ timing shims"},
      {"det-raw-rng", Severity::kError,
       "std <random> engine or distribution instead of util::Rng"},
      {"det-unordered-iter", Severity::kError,
       "hash- or address-ordered iteration in an output-emitting TU"},
      {"det-sketch-merge", Severity::kError,
       "order-sensitive sketch merge (absorb_unordered) outside stats/"},
      {"perf-engine-hot-container", Severity::kError,
       "std::set / std::priority_queue declaration in the sim/engine hot "
       "path"},
      {"inv-raw-id-cast", Severity::kError,
       "integral cast of NodeId/JobId/time value bypassing uidx()"},
      {"inv-fp-accum", Severity::kWarning,
       "naive floating-point accumulation loop in stats/ or sim/"},
      {"inv-metrics-audit-ref", Severity::kError,
       "serialized Metrics accessor without an audit: doc reference"},
      {"hyg-pragma-once", Severity::kError,
       "header missing #pragma once / include guard"},
      {"hyg-todo-ref", Severity::kWarning,
       "TODO comment without an issue reference"},
      {"hyg-assert-side-effect", Severity::kError,
       "side effect inside assert/TS_REQUIRE/TS_CHECK condition"},
      {"hyg-raw-fstream", Severity::kError,
       "std file stream in src/ or tools/ outside util/fs"},
      {"hyg-istringstream", Severity::kError,
       "std::istringstream in src/ or tools/ instead of util::Fields"},
      {"lint-bad-suppression", Severity::kError,
       "malformed, unknown, or justification-free allow() annotation"},
      {"lint-stale-suppression", Severity::kWarning,
       "allow() annotation that suppresses nothing"},
  };
  return kRules;
}

std::vector<Finding> lint_source(std::string_view source,
                                 const std::string& path) {
  const LexedFile lexed = util::lex(source, path);
  std::vector<Finding> findings;
  FileCtx ctx{path, {}, {}, {}, &findings};
  for (const Token& tok : lexed.tokens) {
    if (tok.kind == TokKind::kComment)
      ctx.comments.push_back(tok);
    else if (tok.kind == TokKind::kDirective)
      ctx.directives.push_back(tok);
    else
      ctx.code.push_back(tok);
  }

  rule_det_wallclock(ctx);
  rule_det_raw_rng(ctx);
  rule_det_unordered_iter(ctx);
  rule_det_sketch_merge(ctx);
  rule_perf_engine_hot_container(ctx);
  rule_inv_raw_id_cast(ctx);
  rule_inv_fp_accum(ctx);
  rule_inv_metrics_audit_ref(ctx);
  rule_hyg_pragma_once(ctx);
  rule_hyg_todo_ref(ctx);
  rule_hyg_assert_side_effect(ctx);
  rule_hyg_streams(ctx);

  std::vector<Suppression> sups = collect_suppressions(ctx);
  for (Finding& f : findings) {
    if (f.rule == "lint-bad-suppression") continue;
    for (Suppression& s : sups) {
      if (s.rule == f.rule && f.line >= s.target_begin &&
          f.line <= s.target_end) {
        f.suppressed = true;
        f.justification = s.justification;
        s.used = true;
      }
    }
  }
  for (const Suppression& s : sups)
    if (!s.used)
      ctx.report("lint-stale-suppression", Severity::kWarning, s.comment_line,
                 1,
                 "allow(" + s.rule +
                     ") suppresses nothing in its target statement; remove "
                     "it or move it next to the finding");

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              return a.rule < b.rule;
            });
  // Nested constructs can hit the same site twice (a `+=` sits in the body
  // of both an inner and an outer for); one site is one finding.
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.rule == b.rule && a.line == b.line &&
                                      a.col == b.col;
                             }),
                 findings.end());
  return findings;
}

}  // namespace treesched::lint
