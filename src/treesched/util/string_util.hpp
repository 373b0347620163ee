// Small string helpers shared across modules.
#pragma once

#include <charconv>
#include <string>
#include <type_traits>
#include <vector>

namespace treesched::util {

/// Splits s on the given delimiter; consecutive delimiters yield empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strips leading/trailing ASCII whitespace.
std::string trim(const std::string& s);

/// Joins parts with the given separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// True if s starts with the given prefix.
bool starts_with(const std::string& s, const std::string& prefix);

/// Appends v in the bytes `os << std::setprecision(17) << v` writes (printf
/// "%.17g") — without a stream or an allocation per number.
void append_number(std::string& out, double v);

/// Appends an integer in decimal, the bytes `os << v` writes.
template <class Int,
          std::enable_if_t<std::is_integral_v<Int>, int> = 0>
void append_number(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace treesched::util
