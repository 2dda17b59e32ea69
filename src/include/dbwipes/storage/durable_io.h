#ifndef DBWIPES_STORAGE_DURABLE_IO_H_
#define DBWIPES_STORAGE_DURABLE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/common/status.h"

// How bytes become durable and checksummed, decided once for the WAL,
// snapshots, replication and the Service.

namespace dbwipes {

/// FNV-1a-64 over `n` bytes, continuing from `h` (the offset basis by
/// default). Snapshot payloads and whole-snapshot transfers use it.
uint64_t Fnv1a64(const char* data, size_t n,
                 uint64_t h = 1469598103934665603ull);

/// The checksum a WAL record and a replication frame both carry:
/// FNV-1a-64 over lsn | rid | type | body. Because the maths is one
/// function, a frame that verifies on the wire is exactly a record that
/// will verify on the follower's disk.
uint64_t FrameChecksum(uint64_t lsn, uint64_t rid, uint8_t type,
                       std::string_view body);

/// IoError "<what> failed for <path>: <strerror(errno)>".
Status ErrnoError(const std::string& what, const std::string& path);

/// write(2) until done, honoring an injected short-write/error fault: at
/// most `fault->short_write_limit` bytes land before the fault's status
/// (or crash) applies — the generator for torn tails.
Status WriteAll(int fd, std::string_view data, const std::string& path,
                const FaultInjector::Fault* fault = nullptr);

/// fsync(2) of an open descriptor.
Status FsyncFd(int fd, const std::string& path);

/// Makes the entries of directory `dir` durable (a created, renamed or
/// unlinked name survives a power cut only once its directory is
/// fsynced).
Status FsyncDir(const std::string& dir);

/// Reads the whole file at `path` into `*out`, sized from fstat so the
/// image lands in one buffer.
Status ReadWholeFile(const std::string& path, std::string* out);

/// Atomically and durably replaces `path` with `bytes`: write a temp
/// sibling `<path>.tmp`, fsync it, rename it over `path`, fsync the
/// parent directory. The rename gives atomicity (readers and a
/// post-crash restart see the old file or the new one, never a prefix);
/// the two fsyncs give durability — without the file fsync the rename
/// can land before the data, and without the directory fsync the rename
/// itself can evaporate in a power cut. A failure before the rename
/// removes the temp file. When `faults` is set, each step first hits
/// `<fault_prefix>/open|write|fsync|rename|dirsync`.
Status ReplaceFileDurably(const std::string& path, std::string_view bytes,
                          FaultInjector* faults = nullptr,
                          const std::string& fault_prefix = "");

}  // namespace dbwipes

#endif  // DBWIPES_STORAGE_DURABLE_IO_H_
