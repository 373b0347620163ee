// scan-as: src/treesched/workload/trace_io.cpp
// A trace writer on a raw stream: a kill mid-write leaves a torn file and
// no failpoint ever sees the bytes.
#include <fstream>
#include <string>

void write_trace_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
}
