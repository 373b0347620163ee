// Tree scanning and report rendering for treesched_lint.
//
// The JSON document ("treesched-lint-v1") is the CI artifact: findings are
// sorted by (file, line, col, rule) and files are visited in
// byte-lexicographic path order, so the bytes depend only on the tree's
// contents — the same discipline the analyzer enforces on the code it scans.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "treesched/lint/lint.hpp"
#include "treesched/util/fs.hpp"
#include "treesched/util/table.hpp"

namespace treesched::lint {

namespace fs = std::filesystem;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string read_file(const fs::path& p) {
  std::optional<std::string> bytes = util::read_file(p.string());
  if (!bytes) throw std::runtime_error("cannot read " + p.string());
  return std::move(*bytes);
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

}  // namespace

std::size_t Report::unsuppressed_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [](const Finding& f) { return !f.suppressed; }));
}

std::map<std::string, std::size_t> Report::by_rule() const {
  std::map<std::string, std::size_t> counts;
  for (const Finding& f : findings) ++counts[f.rule];
  return counts;
}

Report lint_tree(const std::string& root,
                 const std::vector<std::string>& dirs) {
  Report report;
  std::vector<std::string> rel_paths;
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;  // a tree without bench/ is fine
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !lintable(entry.path())) continue;
      rel_paths.push_back(
          fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  for (const std::string& rel : rel_paths) {
    const std::string source = read_file(fs::path(root) / rel);
    std::vector<Finding> fs_file = lint_source(source, rel);
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(fs_file.begin()),
                           std::make_move_iterator(fs_file.end()));
    ++report.files_scanned;
  }
  return report;
}

std::string report_table(const Report& report, bool show_suppressed) {
  std::ostringstream os;
  util::Table table({"severity", "rule", "location", "message"});
  std::size_t hidden = 0;
  for (const Finding& f : report.findings) {
    if (f.suppressed && !show_suppressed) {
      ++hidden;
      continue;
    }
    std::string sev = severity_name(f.severity);
    if (f.suppressed) sev += " (suppressed)";
    table.add(sev, f.rule,
              f.file + ":" + std::to_string(f.line) + ":" +
                  std::to_string(f.col),
              f.message);
  }
  if (table.row_count() > 0) os << table.str() << '\n';
  os << "treesched_lint: " << report.files_scanned << " files, "
     << report.findings.size() << " findings ("
     << report.unsuppressed_count() << " unsuppressed, "
     << report.suppressed_count() << " suppressed";
  if (hidden > 0) os << "; rerun with --show-suppressed to list them";
  os << ")\n";
  return os.str();
}

std::string report_json(const Report& report) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"treesched-lint-v1\",\n"
     << "  \"tool\": \"treesched_lint\",\n"
     << "  \"files_scanned\": " << report.files_scanned << ",\n";

  os << "  \"summary\": {\"total\": " << report.findings.size()
     << ", \"unsuppressed\": " << report.unsuppressed_count()
     << ", \"suppressed\": " << report.suppressed_count()
     << ", \"by_rule\": {";
  bool first = true;
  for (const auto& [rule, count] : report.by_rule()) {
    os << (first ? "" : ", ") << '"' << rule << "\": " << count;
    first = false;
  }
  os << "}},\n";

  os << "  \"findings\": [\n";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    os << "    {\"rule\": \"" << f.rule << "\", \"severity\": \""
       << severity_name(f.severity) << "\", \"file\": \""
       << json_escape(f.file) << "\", \"line\": " << f.line
       << ", \"col\": " << f.col << ", \"message\": \""
       << json_escape(f.message) << "\", \"suppressed\": "
       << (f.suppressed ? "true" : "false") << ", \"justification\": ";
    if (f.suppressed)
      os << '"' << json_escape(f.justification) << '"';
    else
      os << "null";
    os << "}" << (i + 1 < report.findings.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace treesched::lint
