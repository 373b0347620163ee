#include "treesched/util/fs.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include "treesched/util/failpoint.hpp"

namespace treesched::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path +
                           "': " + std::strerror(errno));
}

/// fail(), after closing `fd` and unlinking `tmp` (nullable) without losing
/// the errno being reported.
[[noreturn]] void fail_closing(int fd, const char* tmp, const std::string& what,
                               const std::string& path) {
  const int saved = errno;
  ::close(fd);
  if (tmp != nullptr) ::unlink(tmp);
  errno = saved;
  fail(what, path);
}

/// `head` then `tail` (may be empty) in as many writev(2) calls as it
/// takes — one, unless the kernel writes short; false, with errno set, on an
/// error.
bool write_all(int fd, std::string_view head, std::string_view tail = {}) {
  ::iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                    {const_cast<char*>(tail.data()), tail.size()}};
  ::iovec* next = iov;
  int left = tail.empty() ? 1 : 2;
  while (left > 0) {
    const ::ssize_t n = ::writev(fd, next, left);
    if (n < 0 && errno != EINTR) return false;
    auto done = static_cast<std::size_t>(std::max<::ssize_t>(n, 0));
    for (; left > 0 && done >= next->iov_len; ++next, --left)
      done -= next->iov_len;
    if (left > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + done;
      next->iov_len -= done;
    }
  }
  return true;
}

/// A NUL-terminated path in a stack buffer. The durable writes run once per
/// segment, snapshot generation and manifest record, and a heap string for
/// a derived name was all they allocated besides the bytes they write.
class PathBuf {
 public:
  /// The concatenation of `parts`; false, with errno ENAMETOOLONG, when it
  /// does not fit in PATH_MAX bytes.
  bool assign(std::initializer_list<std::string_view> parts) {
    std::size_t len = 0;
    for (const std::string_view part : parts) {
      if (part.size() >= sizeof buf_ - len) {
        errno = ENAMETOOLONG;
        return false;
      }
      std::memcpy(buf_ + len, part.data(), part.size());
      len += part.size();
    }
    buf_[len] = '\0';
    return true;
  }
  const char* c_str() const { return buf_; }

 private:
  char buf_[PATH_MAX];
};

/// fsync the directory containing `path`, so the rename that just landed a
/// new directory entry survives power loss. rename(2) alone only orders the
/// entry in page cache; the metadata reaches disk when the DIRECTORY is
/// synced (fsync(2) NOTES).
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string_view parent =
      slash == std::string::npos ? std::string_view(".")
      : slash == 0               ? std::string_view("/")
                                 : std::string_view(path).substr(0, slash);
  PathBuf dir;
  if (!dir.assign({parent})) fail("cannot open parent directory of", path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) fail("cannot open parent directory of", path);
  if (::fsync(dfd) != 0)
    fail_closing(dfd, nullptr, "fsync failed for parent directory of", path);
  ::close(dfd);
}

enum class Seam { kWrite, kRead };

/// The one FailKind switch: evaluates `site` (nullable) and applies a hit to
/// `bytes` — torn-write (write seams) and short-read (read seams) keep the
/// first half, bit-flip inverts one bit. Returns the loud kind (enospc /
/// fsync-fail) a write seam must fail with at the matching stage; nullopt
/// on a miss, a silent fault, or a kind that has no meaning at the seam.
std::optional<FailKind> inject(const char* site, Seam seam,
                               std::string& bytes) {
  if (site == nullptr) return std::nullopt;
  const auto hit = failpoint_hit(site);
  if (!hit) return std::nullopt;
  switch (hit->kind) {
    case FailKind::kEnospc:
    case FailKind::kFsyncFail:
      if (seam == Seam::kWrite) return hit->kind;
      break;
    case FailKind::kTornWrite:
      if (seam == Seam::kWrite) bytes = apply_torn(bytes);
      break;
    case FailKind::kShortRead:
      if (seam == Seam::kRead) bytes = apply_torn(bytes);
      break;
    case FailKind::kBitFlip:
      bytes = apply_bit_flip(bytes);
      break;
  }
  return std::nullopt;
}

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content,
                       const char* failpoint_site) {
  // Disarmed failpoints evaluate nothing, so the copy is only paid when a
  // chaos run may corrupt it.
  const std::string* payload = &content;
  std::string corrupted;
  std::optional<FailKind> loud;
  if (failpoints_armed()) {
    corrupted = content;
    payload = &corrupted;
    loud = inject(failpoint_site, Seam::kWrite, corrupted);
    if (!loud) loud = inject("fs.atomic", Seam::kWrite, corrupted);
  }
  const bool inject_enospc = loud == FailKind::kEnospc;
  const bool inject_fsync_fail = loud == FailKind::kFsyncFail;

  // Same-directory temporary: rename() is only atomic within a filesystem,
  // and a pid suffix keeps concurrent writers off each other's temp file.
  char pid[24];
  const std::string_view pid_text(
      pid, static_cast<std::size_t>(
               std::to_chars(pid, pid + sizeof pid, ::getpid()).ptr - pid));
  PathBuf tmp_buf;
  if (!tmp_buf.assign({path, ".tmp.", pid_text}))
    fail("cannot create temporary file for", path);
  const char* const tmp = tmp_buf.c_str();
  const int fd = ::open(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot create temporary file", tmp);

  if (inject_enospc) {
    errno = ENOSPC;
    fail_closing(fd, tmp, "write failed for", tmp);
  }
  if (!write_all(fd, *payload))
    fail_closing(fd, tmp, "write failed for", tmp);
  if (inject_fsync_fail) errno = EIO;
  if (inject_fsync_fail || ::fsync(fd) != 0)
    fail_closing(fd, tmp, "fsync failed for", tmp);
  if (::close(fd) != 0) {
    ::unlink(tmp);
    fail("close failed for", tmp);
  }
  if (::rename(tmp, path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp);
    errno = saved;
    fail("cannot rename temporary over", path);
  }
  // The rename landed; now make the new directory entry durable. On failure
  // the target file is already the new content (visible, just not yet
  // guaranteed on disk), so there is no temporary left to clean up.
  fsync_parent_dir(path);
}

std::optional<std::string> read_file(const std::string& path,
                                     const char* failpoint_site) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  inject(failpoint_site, Seam::kRead, bytes);
  return bytes;
}

std::optional<LogLines> read_log(const std::string& path) {
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) return std::nullopt;
  LogLines out;
  std::size_t pos = 0;
  for (std::size_t number = 1; pos < bytes->size(); ++number) {
    const std::size_t nl = bytes->find('\n', pos);
    const bool torn = nl == std::string::npos ||
                      (nl > pos && (*bytes)[nl - 1] == kTornMarker);
    if (torn)
      ++out.torn;
    else
      out.lines.push_back({number, bytes->substr(pos, nl - pos)});
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return out;
}

void append_line_durable(const std::string& path, const std::string& line,
                         const char* failpoint_site) {
  if (line.find('\n') != std::string::npos ||
      line.find(kTornMarker) != std::string::npos)
    throw std::runtime_error("append_line_durable: record for '" + path +
                             "' contains a newline or the torn marker");
  // A torn record keeps the first half of "line\n", so it never carries the
  // newline: storage lied, and the next append must heal the tail.
  // Disarmed failpoints evaluate nothing, so the record is only copied when
  // a chaos run may corrupt it; otherwise line and newline go out as the
  // two halves of one writev(2).
  const bool armed = failpoints_armed();
  std::string record;
  std::optional<FailKind> loud;
  if (armed) {
    record.reserve(line.size() + 1);
    record.append(line).push_back('\n');
    loud = inject(failpoint_site, Seam::kWrite, record);
  }
  if (loud == FailKind::kEnospc) {
    errno = ENOSPC;
    fail("append failed for", path);
  }
  const bool inject_fsync_fail = loud == FailKind::kFsyncFail;

  // O_RDWR, not O_WRONLY: the tail-heal below preads the last byte, which a
  // write-only descriptor refuses.
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) fail("cannot open for append", path);

  // Heal a torn tail from a previous crash: if the file does not end in a
  // newline, the marker and a '\n' first close the torn record as a line
  // read_log drops, so the new record never concatenates onto it.
  struct ::stat st{};
  if (::fstat(fd, &st) != 0)
    fail_closing(fd, nullptr, "fstat failed for", path);
  static constexpr char kHealBytes[] = {kTornMarker, '\n'};
  constexpr std::string_view kHeal(kHealBytes, sizeof kHealBytes);
  char tail = '\n';
  if (st.st_size > 0 && ::pread(fd, &tail, 1, st.st_size - 1) == 1 &&
      tail != '\n' && !write_all(fd, kHeal))
    fail_closing(fd, nullptr, "append (tail heal) failed for", path);

  // One writev(2) for the whole record: concurrent O_APPEND appenders never
  // interleave mid-record, and a crash tears at most this final line.
  const bool written =
      armed ? write_all(fd, record) : write_all(fd, line, "\n");
  if (!written)
    fail_closing(fd, nullptr, "append failed for", path);
  if (inject_fsync_fail) errno = EIO;
  if (inject_fsync_fail || ::fsync(fd) != 0)
    fail_closing(fd, nullptr, "fsync failed for", path);
  if (::close(fd) != 0) fail("close failed for", path);
}

}  // namespace treesched::util
