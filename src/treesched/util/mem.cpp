#include "treesched/util/mem.hpp"

#include <unistd.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "treesched/util/fs.hpp"

namespace treesched::util {

std::uint64_t peak_rss_bytes() {
  // "VmHWM:   <kB> kB" in /proc/self/status; 0 when the file or the field
  // is absent (non-Linux platforms).
  constexpr char kField[] = "\nVmHWM:";
  const std::optional<std::string> status = read_file("/proc/self/status");
  const std::size_t at = status ? status->find(kField) : std::string::npos;
  if (at == std::string::npos) return 0;
  return std::strtoull(status->c_str() + at + sizeof kField - 1, nullptr, 10) *
         1024;
}

std::uint64_t current_rss_bytes() {
  // /proc/self/statm is "<size> <resident> ..." in pages: the same counter
  // as VmRSS at a third of the cost of scanning /proc/self/status, which
  // matters because the resource governor samples it on the arrival path.
  const std::optional<std::string> statm = read_file("/proc/self/statm");
  if (!statm) return 0;
  char* resident = nullptr;
  std::strtoull(statm->c_str(), &resident, 10);
  return std::strtoull(resident, nullptr, 10) *
         static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace treesched::util
