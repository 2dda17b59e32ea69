#include "dbwipes/storage/durable_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace dbwipes {

uint64_t Fnv1a64(const char* data, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FrameChecksum(uint64_t lsn, uint64_t rid, uint8_t type,
                       std::string_view body) {
  char prefix[17];
  std::memcpy(prefix, &lsn, 8);
  std::memcpy(prefix + 8, &rid, 8);
  prefix[16] = static_cast<char>(type);
  return Fnv1a64(body.data(), body.size(), Fnv1a64(prefix, sizeof(prefix)));
}

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " failed for " + path + ": " +
                         std::strerror(errno));
}

Status WriteAll(int fd, std::string_view data, const std::string& path,
                const FaultInjector::Fault* fault) {
  size_t allowed = data.size();
  if (fault != nullptr && fault->short_write_limit > 0) {
    allowed = std::min(allowed, fault->short_write_limit);
  }
  size_t written = 0;
  while (written < allowed) {
    const ssize_t r = ::write(fd, data.data() + written, allowed - written);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write", path);
    }
    written += static_cast<size_t>(r);
  }
  if (fault != nullptr) {
    // The partial bytes are on disk; now the fault takes effect.
    if (fault->crash) ::_exit(kFaultCrashExit);
    if (!fault->status.ok()) return fault->status;
    if (allowed < data.size()) {
      return Status::IoError("short write injected at " + path);
    }
  }
  return Status::OK();
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) return ErrnoError("fsync", path);
  return Status::OK();
}

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("open", dir);
  const Status st = FsyncFd(fd, dir);
  ::close(fd);
  return st;
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoError("open", path);
  // One byte past the current size: a file that has not grown since
  // the fstat ends with a zero-byte read into the same buffer.
  struct stat st {};
  out->resize(::fstat(fd, &st) == 0 ? static_cast<size_t>(st.st_size) + 1
                                    : size_t{1} << 16);
  size_t size = 0;
  for (;;) {
    if (size == out->size()) out->resize(2 * size);
    const ssize_t r = ::read(fd, out->data() + size, out->size() - size);
    if (r < 0) {
      if (errno == EINTR) continue;
      const Status err = ErrnoError("read", path);
      ::close(fd);
      return err;
    }
    if (r == 0) break;
    size += static_cast<size_t>(r);
  }
  ::close(fd);
  out->resize(size);
  return Status::OK();
}

Status ReplaceFileDurably(const std::string& path, std::string_view bytes,
                          FaultInjector* faults,
                          const std::string& fault_prefix) {
  auto hit = [&](const char* step) {
    return faults == nullptr ? Status::OK() : faults->Hit(fault_prefix + step);
  };
  const std::string tmp = path + ".tmp";
  Status st = hit("/open");
  int fd = -1;
  if (st.ok()) {
    fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
      st = Status::IoError("cannot open '" + tmp + "' for writing: " +
                           std::strerror(errno));
    }
  }
  if (st.ok()) {
    FaultInjector::Fault fault;
    const bool fired =
        faults != nullptr && faults->HitIo(fault_prefix + "/write", &fault);
    st = WriteAll(fd, bytes, tmp, fired ? &fault : nullptr);
  }
  if (st.ok()) st = hit("/fsync");
  if (st.ok()) st = FsyncFd(fd, tmp);
  if (fd >= 0) ::close(fd);
  if (st.ok()) st = hit("/rename");
  if (st.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    st = ErrnoError("rename", tmp + " -> " + path);
  }
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  DBW_RETURN_NOT_OK(hit("/dirsync"));
  const size_t slash = path.find_last_of('/');
  return FsyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

}  // namespace dbwipes
