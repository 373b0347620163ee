// Plain-text instance (trace) serialization.
//
// Format (line-oriented, '#' comments allowed):
//   tree <node_count>
//   node <id> <parent|-1> <root|router|machine>     (one per node)
//   model <identical|unrelated>
//   job <id> <release> <size> <weight> <source|-1> [<leaf_size>...]
//
// The format is self-contained so instances can be archived, diffed, and
// replayed as golden tests.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "treesched/core/instance.hpp"

namespace treesched::workload {

/// Serializes an instance.
void write_trace(std::ostream& os, const Instance& instance);
void write_trace_file(const std::string& path, const Instance& instance);

/// Parses an instance; throws std::invalid_argument on malformed input.
Instance read_trace(std::string_view bytes);
Instance read_trace_file(const std::string& path);

}  // namespace treesched::workload
