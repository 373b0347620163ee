#include "treesched/util/mem.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace treesched::util {

namespace {

// Parses "<field>:   <kB> kB" out of /proc/self/status. Returns 0 when the
// file or the field is absent (non-Linux platforms).
std::uint64_t proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  if (!in) return 0;
  std::string line;
  const std::string want = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, want.size(), want) != 0) continue;
    std::istringstream ls(line.substr(want.size()));
    std::uint64_t kb = 0;
    ls >> kb;
    return kb;
  }
  return 0;
}

}  // namespace

std::uint64_t peak_rss_bytes() { return proc_status_kb("VmHWM") * 1024; }

std::uint64_t current_rss_bytes() {
  // /proc/self/statm is "<size> <resident> ..." in pages: the same counter
  // as VmRSS at a third of the cost of scanning /proc/self/status, which
  // matters because the resource governor samples it on the arrival path.
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace treesched::util
