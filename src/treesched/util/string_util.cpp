#include "treesched/util/string_util.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstring>

namespace treesched::util {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

namespace {

__extension__ using u128 = unsigned __int128;

constexpr std::array<u128, 22> kPow10 = [] {
  std::array<u128, 22> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * 10;
  return p;
}();

constexpr std::uint64_t k10e8 = 100'000'000ULL;
constexpr std::uint64_t k10e17 = 100'000'000'000'000'000ULL;

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

/// Writes n < 10^8 as exactly 8 digits.
void write8(char* p, std::uint64_t n) {
  const std::uint64_t hi = n / 10000, lo = n % 10000;
  std::memcpy(p, kDigitPairs + 2 * (hi / 100), 2);
  std::memcpy(p + 2, kDigitPairs + 2 * (hi % 100), 2);
  std::memcpy(p + 4, kDigitPairs + 2 * (lo / 100), 2);
  std::memcpy(p + 6, kDigitPairs + 2 * (lo % 100), 2);
}

/// The "%.17g" bytes of a finite v with |v| in [1e-4, 2^53), written at p;
/// returns the end. See the header for why the digits are exact.
char* format_fixed17(char* p, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  if (bits >> 63) *p++ = '-';
  const int e2 = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const std::uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
  const int s = 52 - e2;  // |v| = m / 2^s, s in [0, 66]
  // floor(e2 * log10 2): |v| lies in [10^x, 10^(x+2)), so q below has 17 or
  // 18 digits.
  int x = (e2 * 78913) >> 18;
  const u128 n = m * kPow10[static_cast<std::size_t>(16 - x)];
  std::uint64_t q = static_cast<std::uint64_t>(n >> s);
  const u128 r = n - (static_cast<u128>(q) << s);
  bool up = false;
  if (q >= k10e17) {
    const std::uint64_t d = q % 10;
    q /= 10;
    ++x;
    up = d > 5 || (d == 5 && (r != 0 || (q & 1) != 0));
  } else if (s > 0) {
    const u128 half = static_cast<u128>(1) << (s - 1);
    up = r > half || (r == half && (q & 1) != 0);
  }
  // No carry into 10^17: that needs |v| within 5e-18 (relative) below a power
  // of ten, and the nearest double below each of 10^-3 .. 10^16 is at least
  // 8e-17 away.
  if (up) ++q;
  char digits[17];
  const std::uint64_t head = q / k10e8;  // 9 digits
  digits[0] = static_cast<char>('0' + head / k10e8);
  write8(digits + 1, head % k10e8);
  write8(digits + 9, q % k10e8);
  std::size_t len = sizeof digits;
  while (digits[len - 1] == '0') --len;
  if (x >= 0) {
    const std::size_t whole = static_cast<std::size_t>(x) + 1;
    if (len <= whole) return std::copy(digits, digits + whole, p);
    p = std::copy(digits, digits + whole, p);
    *p++ = '.';
    return std::copy(digits + whole, digits + len, p);
  }
  *p++ = '0';
  *p++ = '.';
  for (int z = -1; z > x; --z) *p++ = '0';
  return std::copy(digits, digits + len, p);
}

}  // namespace

void append_number(std::string& out, double v) {
  char buf[32];
  const double a = v < 0 ? -v : v;
  if (a >= 1e-4 && a < 0x1p53) {
    out.append(buf, format_fixed17(buf, v));
    return;
  }
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

}  // namespace treesched::util
