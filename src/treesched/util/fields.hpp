// The one token reader behind every text decoder of the on-disk formats.
//
// Run logs, segment manifests and files, snapshot envelopes and their
// manifest, the sweep journal, the guard log, traces and every serialized
// state component are records of whitespace-separated tokens. Fields is a
// std::string_view cursor over them with an istream-like sticky failure
// state, but strict where stream extraction is lax: a number is the whole
// token (parse_number), so "-1" in an unsigned field or "1.5x" fails instead
// of wrapping or stopping short, and done() lets a decoder reject a record
// with tokens left over. It never throws and allocates nothing.
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace treesched::util {

/// Parses all of `token` as a T with std::from_chars: a decimal integer, or
/// a double in any form from_chars reads ("nan" and "inf" included). False,
/// with `out` untouched, on an empty token, a '+' or a '-' an unsigned T
/// cannot take, characters after the number, or a value out of T's range.
template <class T>
bool parse_number(std::string_view token, T& out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool> &&
                !std::is_same_v<T, char>);
  T v{};
  const char* const end = token.data() + token.size();
  const std::from_chars_result r = std::from_chars(token.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end) return false;
  out = v;
  return true;
}

/// Cursor over the whitespace-separated tokens of `text`, which must
/// outlive it.
class Fields {
 public:
  explicit Fields(std::string_view text) : rest_(text) {}
  /// A temporary std::string would leave the cursor dangling.
  template <class S,
            std::enable_if_t<std::is_same_v<S, std::string>, int> = 0>
  Fields(S&&) = delete;

  /// False once a read found no token, a malformed one or a wrong tag;
  /// every later read then fails too and leaves its target untouched.
  explicit operator bool() const { return ok_; }

  /// True when no token is left.
  bool done() const { return peek().empty(); }

  /// The most tokens the bytes left can hold (each takes a character and
  /// all but the last a separator): a bound a decoder checks a serialized
  /// count against before it allocates for that many.
  std::size_t token_room() const { return (rest_.size() + 1) / 2; }

  /// The next token, consumed; empty (and a failure) when none is left.
  std::string_view next() {
    const std::string_view tok = ok_ ? peek() : std::string_view();
    if (tok.empty()) {
      ok_ = false;
      return {};
    }
    rest_.remove_prefix(
        static_cast<std::size_t>(tok.data() + tok.size() - rest_.data()));
    return tok;
  }

  /// Consumes the next token; anything but `tag` is a failure.
  Fields& expect(std::string_view tag) {
    if (next() != tag) ok_ = false;
    return *this;
  }

  /// Reads the next token into an integer or double (parse_number), a char
  /// (a one-character token), a std::string or a std::string_view (a view
  /// into the text).
  template <class T>
  Fields& operator>>(T& out) {
    const std::string_view tok = next();
    if (!ok_) return *this;
    if constexpr (std::is_same_v<T, std::string_view>)
      out = tok;
    else if constexpr (std::is_same_v<T, std::string>)
      out.assign(tok);
    else if constexpr (std::is_same_v<T, char>)
      ok_ = tok.size() == 1 && (out = tok[0], true);
    else
      ok_ = parse_number(tok, out);
    return *this;
  }

 private:
  /// The characters stream extraction skips in the "C" locale.
  static constexpr std::string_view kSpace = " \t\n\v\f\r";

  std::string_view peek() const {
    const std::size_t b = rest_.find_first_not_of(kSpace);
    if (b == std::string_view::npos) return {};
    return rest_.substr(b, rest_.find_first_of(kSpace, b) - b);
  }

  std::string_view rest_;
  bool ok_ = true;
};

/// Splits the next line off `bytes` as std::getline does: `line` is the
/// text up to the next '\n' or the end; false once `bytes` is empty.
inline bool next_line(std::string_view& bytes, std::string_view& line) {
  if (bytes.empty()) return false;
  const std::size_t nl = bytes.find('\n');
  line = bytes.substr(0, nl);
  bytes.remove_prefix(nl == std::string_view::npos ? bytes.size() : nl + 1);
  return true;
}

}  // namespace treesched::util
