// Socket tests: the observability listener must survive a client that
// hangs up before its response is sent. Its send used to be a plain
// write(2): writing into the closed connection raised SIGPIPE, whose
// default action kills the whole process. The probe runs in a forked
// child, so that such a death fails this test instead of killing the
// test binary. Fork copies only the calling thread, so the child starts
// the listener thread itself; no test in this binary leaves a thread
// running, so every fork here is single-threaded.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <thread>

#include "dbwipes/common/http_listener.h"
#include "dbwipes/common/metrics.h"

namespace dbwipes {
namespace {

/// The child's body: a listener whose handler answers with an 8 MB body
/// only once the client has sent its request and closed its socket, so
/// the whole response goes to a peer that is gone. Returns the child's
/// exit code: 0 once the listener has finished serving that request.
int ServeClientThatHungUp() {
  MetricCounter* const served =
      MetricsRegistry::Global().GetCounter("http.requests");
  const uint64_t served_before = served->value();
  std::atomic<bool> client_gone{false};
  HttpListener listener;
  const Status st = listener.Start(/*port=*/0, [&](const std::string&) {
    while (!client_gone.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    HttpListener::Response r;
    r.body.assign(8u << 20, 'x');
    return r;
  });
  if (!st.ok()) return 2;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 3;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return 4;
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    return 5;
  }
  ::close(fd);
  client_gone.store(true);

  // The listener counts a request after its response is sent.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (served->value() == served_before) {
    if (std::chrono::steady_clock::now() > give_up) return 6;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener.Stop();
  return 0;
}

TEST(HttpListenerHangupTest, ClientGoneBeforeResponseDoesNotKillProcess) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork: " << std::strerror(errno);
  if (pid == 0) ::_exit(ServeClientThatHungUp());
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid) << std::strerror(errno);
  ASSERT_FALSE(WIFSIGNALED(wstatus))
      << "the listener process died of signal " << WTERMSIG(wstatus)
      << (WTERMSIG(wstatus) == SIGPIPE ? " (SIGPIPE)" : "");
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

}  // namespace
}  // namespace dbwipes
