// scan-as: src/treesched/workload/trace_io.cpp
// A record decoded by stream extraction: "-1" wraps into the unsigned id,
// "1.5x" reads as 1.5 and a trailing field is ignored.
#include <cstdint>
#include <sstream>
#include <string>

double read_size(const std::string& line, std::uint64_t& id) {
  std::istringstream is(line);
  double size = 0.0;
  is >> id >> size;
  return size;
}
