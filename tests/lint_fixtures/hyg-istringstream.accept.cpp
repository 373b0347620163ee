// scan-as: src/treesched/workload/trace_io.cpp
// The same record through util::Fields: whole-token numbers and no
// leftovers. Mentioning std::istringstream in a comment or a string does not
// fire.
#include <cstdint>
#include <string>

#include "treesched/util/fields.hpp"

bool read_size(const std::string& line, std::uint64_t& id, double& size) {
  treesched::util::Fields f(line);
  return (f >> id >> size) && f.done();
}

const char* kNote = "no std::istringstream";
