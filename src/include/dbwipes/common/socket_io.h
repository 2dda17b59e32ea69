#ifndef DBWIPES_COMMON_SOCKET_IO_H_
#define DBWIPES_COMMON_SOCKET_IO_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "dbwipes/common/status.h"

// Blocking TCP socket helpers, shared by the observability listener
// and replication.

namespace dbwipes {

/// Opens a TCP listener on 127.0.0.1:`port` (0 picks an ephemeral
/// port) and stores its descriptor in `*fd` and the bound port in
/// `*bound_port`. Loopback-only by design: nothing the process serves
/// is reachable off-host unless an operator fronts it.
Status ListenLoopback(uint16_t port, int* fd, uint16_t* bound_port);

/// Bounds each send and each receive on `fd` to `ms` (SO_SNDTIMEO and
/// SO_RCVTIMEO).
void SetSocketTimeouts(int fd, double ms);

/// Sends all of `data`. MSG_NOSIGNAL: a peer that has gone away fails
/// the call with EPIPE instead of killing the process with SIGPIPE. A
/// send timeout surfaces as an IoError mentioning "timed out".
Status SendAll(int fd, std::string_view data);

/// Receives exactly `n` bytes into `data`; a peer close before that is
/// an IoError, and so is a receive timeout ("timed out").
Status RecvAll(int fd, char* data, size_t n);

}  // namespace dbwipes

#endif  // DBWIPES_COMMON_SOCKET_IO_H_
