// scan-as: src/treesched/workload/trace_io.cpp
// The same writer through util/fs; mentioning std::ofstream in a comment or
// a string does not fire.
#include <string>

#include "treesched/util/fs.hpp"

void write_trace_file(const std::string& path, const std::string& text) {
  treesched::util::write_file_atomic(path, text);
}

const char* kNote = "no std::ofstream";
