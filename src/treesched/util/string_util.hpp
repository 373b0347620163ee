// Small string helpers shared across modules.
#pragma once

#include <charconv>
#include <cstdint>
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
///
/// Finite |v| in [1e-4, 2^53) — every time, size, speed and weight a run log
/// prints — takes an exact integer path. With |v| = m / 2^s (53-bit m,
/// s in [0, 66]) and x = floor(log10 2 * floor(log2 |v|)), the decimal
/// exponent is x or x + 1, so N = m * 10^(16 - x) (below 2^123, exact in
/// 128 bits) shifted right by s leaves 17 or 18 digits q with remainder r.
/// An 18th digit is dropped; the round to 17 digits is half-to-even on the
/// dropped digit and r (or on r against 2^(s-1)), exactly as printf rounds.
/// It never carries into 10^17: no double of the range lies within 5e-18
/// (relative) below a power of ten. The result is printed in the fixed form
/// "%g" uses for exponents in [-4, 17), without trailing zeros.
/// Every other value (zeros, subnormals, the rest of the range, inf, NaN)
/// goes to std::to_chars(..., general, 17).
void append_number(std::string& out, double v);

/// The most bytes append_number writes for one number (a double's sign, 17
/// digits, point and "e-308"; a 64-bit integer's 20 characters) — what a
/// caller reserves per number to format without regrowing.
inline constexpr std::size_t kMaxNumberChars = 24;

/// Appends an integer in decimal, the bytes `os << v` writes.
template <class Int,
          std::enable_if_t<std::is_integral_v<Int>, int> = 0>
void append_number(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// Appends v in decimal with leading zeros up to `width` digits, the bytes
/// `os << std::setw(width) << std::setfill('0') << v` writes.
inline void append_padded(std::string& out, std::uint64_t v, int width) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  const auto digits = static_cast<int>(r.ptr - buf);
  if (digits < width) out.append(static_cast<std::size_t>(width - digits), '0');
  out.append(buf, r.ptr);
}

}  // namespace treesched::util
