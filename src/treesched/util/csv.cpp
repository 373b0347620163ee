#include "treesched/util/csv.hpp"

#include "treesched/util/assert.hpp"
#include "treesched/util/fs.hpp"

namespace treesched::util {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  TS_REQUIRE(!header_.empty(), "CSV header must be non-empty");
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  TS_REQUIRE(cells.size() == header_.size(),
             "CSV row width must match header");
  rows_.push_back(cells);
}

std::string CsvWriter::escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CsvWriter::str() const {
  std::ostringstream os;
  auto emit = [&os](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << escape(row[i]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void CsvWriter::write_file(const std::string& path) const {
  write_file_atomic(path, str());
}

}  // namespace treesched::util
