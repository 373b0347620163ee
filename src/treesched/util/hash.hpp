// FNV-1a 64-bit hashing — the repo's one fingerprint function — and the
// self-checksum ("seal") line every serialized state component ends with.
//
// Run-log segment fingerprints, snapshot envelope checksums, sketch and
// accumulator seals, sweep-grid and run-spec identities all use the same
// primitive so a fingerprint printed by one tool can be recomputed by any
// other. FNV-1a is not cryptographic; it detects accidental corruption
// (torn writes, bit rot, truncation), which is the durability layer's
// threat model — an adversary with write access to the files can forge
// anything anyway.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "treesched/util/assert.hpp"
#include "treesched/util/fields.hpp"
#include "treesched/util/string_util.hpp"

namespace treesched::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a 64 over `bytes`, seeded with `h` so hashes can be chained.
inline std::uint64_t fnv1a_64(std::string_view bytes,
                              std::uint64_t h = kFnvOffsetBasis) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Seals the payload appended to `out` from offset `from` on: appends its
/// seal line "<tag> <fnv1a_64(payload)>\n".
inline void seal(std::string& out, std::size_t from, const char* tag) {
  const std::uint64_t fp = fnv1a_64(std::string_view(out).substr(from));
  out += tag;
  out += ' ';
  append_number(out, fp);
  out += '\n';
}

/// Reads the "<tag> <fnv>" seal line from `f` and checks it against
/// `payload` — the canonical re-serialization of what was just parsed. A
/// mutation that parses to the same values re-serializes identically and
/// passes (nothing was mis-loaded); anything else throws
/// std::invalid_argument prefixed with `what`.
inline void expect_seal(Fields& f, const char* tag, const std::string& payload,
                        const char* what) {
  TS_REQUIRE(f.expect(tag), std::string(what) + ": missing '" + tag +
                                "' checksum line (truncated or corrupt "
                                "state)");
  std::uint64_t fp = 0;
  TS_REQUIRE(f >> fp, std::string(what) + ": truncated checksum");
  TS_REQUIRE(fp == fnv1a_64(payload),
             std::string(what) + ": checksum mismatch (corrupt state)");
}

}  // namespace treesched::util
