// Minimal CSV writer for experiment output.
//
// Benchmarks print human-readable tables to stdout and, when asked, also
// emit machine-readable CSV so results can be post-processed.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace treesched::util {

/// Accumulates rows and writes RFC-4180-ish CSV (fields containing commas,
/// quotes or newlines are quoted; embedded quotes doubled).
class CsvWriter {
 public:
  /// Sets the header row. Must be called before any add_row.
  explicit CsvWriter(std::vector<std::string> header);

  /// Appends a row; the cell count must match the header.
  void add_row(const std::vector<std::string>& cells);

  /// Convenience: formats arbitrary streamable values into a row.
  template <typename... Ts>
  void add(const Ts&... vals) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(vals));
    (cells.push_back(to_cell(vals)), ...);
    add_row(cells);
  }

  /// Serializes header + rows.
  std::string str() const;

  /// Writes the file atomically (util::write_file_atomic); throws
  /// std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  template <typename T>
  static std::string to_cell(const T& v) {
    std::ostringstream os;
    os << v;
    return os.str();
  }

  static std::string escape(const std::string& s);

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace treesched::util
