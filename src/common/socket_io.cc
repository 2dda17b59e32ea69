#include "dbwipes/common/socket_io.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace dbwipes {

namespace {

Status SocketError(const std::string& what) {
  const int e = errno;
  if (e == EAGAIN || e == EWOULDBLOCK) {
    return Status::IoError(what + " timed out");
  }
  return Status::IoError(what + " failed: " + std::strerror(e));
}

}  // namespace

Status ListenLoopback(uint16_t port, int* fd, uint16_t* bound_port) {
  const int s = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s < 0) return SocketError("socket");
  const int one = 1;
  ::setsockopt(s, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  Status st = Status::OK();
  if (::bind(s, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    st = SocketError("bind to port " + std::to_string(port));
  } else if (::listen(s, 16) != 0) {
    st = SocketError("listen");
  } else if (::getsockname(s, reinterpret_cast<sockaddr*>(&addr), &len) !=
             0) {
    st = SocketError("getsockname");
  }
  if (!st.ok()) {
    ::close(s);
    return st;
  }
  *fd = s;
  *bound_port = ntohs(addr.sin_port);
  return Status::OK();
}

void SetSocketTimeouts(int fd, double ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Status SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t r =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return SocketError("send");
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, data + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return SocketError("recv");
    }
    if (r == 0) return Status::IoError("connection closed by peer");
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace dbwipes
