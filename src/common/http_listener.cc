#include "dbwipes/common/http_listener.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/socket_io.h"
#include "dbwipes/common/trace.h"

namespace dbwipes {

namespace {

constexpr size_t kMaxRequestHead = 8u << 10;  // plenty for GET + headers

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

}  // namespace

HttpListener::~HttpListener() { Stop(); }

Status HttpListener::Start(uint16_t port, Handler handler) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running()) return Status::InvalidArgument("http listener already started");
  if (!handler) return Status::InvalidArgument("http listener needs a handler");

  // Observability endpoints stay host-local: /metrics is only
  // reachable from this machine.
  DBW_RETURN_NOT_OK(ListenLoopback(port, &listen_fd_, &port_));
  handler_ = std::move(handler);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&HttpListener::Loop, this);
  return Status::OK();
}

void HttpListener::Stop() {
  // lifecycle_mu_ serializes Stop against a concurrent Start, so a
  // rebind can never race the old accept loop's ownership of listen_fd_.
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpListener::Loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (r <= 0) continue;  // timeout or EINTR: re-check stopping_
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    ServeConnection(conn);
    ::close(conn);
  }
}

void HttpListener::ServeConnection(int fd) {
  static MetricCounter* const requests =
      MetricsRegistry::Global().GetCounter("http.requests");
  static MetricHistogram* const serve_ms =
      MetricsRegistry::Global().GetHistogram("http.serve_ms");

  // A slow/stuck client must not wedge the accept loop: bound each
  // read AND each send (a scraper that stops draining its socket would
  // otherwise block SendAll forever once the kernel buffer fills).
  SetSocketTimeouts(fd, 500.0);

  // Per-read timeouts alone still allow a slow-loris drip (one byte
  // every 400ms, forever); an overall deadline on assembling the
  // request line closes that hole.
  const double deadline_ms = MonotonicMillis() + 2000.0;
  std::string head;
  char buf[1024];
  while (head.find("\r\n") == std::string::npos &&
         head.size() < kMaxRequestHead) {
    if (MonotonicMillis() > deadline_ms) return;  // slow-loris client
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return;  // timeout, error, or close before a full line
    head.append(buf, static_cast<size_t>(r));
  }
  const size_t eol = head.find("\r\n");
  if (eol == std::string::npos) return;

  // Request line: METHOD SP PATH SP VERSION.
  const std::string line = head.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return;
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  const double start_ms = MonotonicMillis();
  Response response;
  if (method != "GET") {
    response.status = 405;
    response.body = "method not allowed\n";
  } else {
    response = handler_(path);
  }
  std::string out = "HTTP/1.0 " + std::to_string(response.status) + " " +
                    StatusText(response.status) +
                    "\r\nContent-Type: " + response.content_type +
                    "\r\nContent-Length: " + std::to_string(response.body.size()) +
                    "\r\nConnection: close\r\n\r\n" + response.body;
  // A client that went away fails the send; nothing to salvage.
  (void)SendAll(fd, out);
  requests->Increment();
  serve_ms->Observe(MonotonicMillis() - start_ms);
}

HttpListener::Handler MakeObservabilityHandler(std::function<bool()> ready) {
  return [ready = std::move(ready)](const std::string& path) {
    HttpListener::Response r;
    if (path == "/metrics") {
      // The version parameter marks Prometheus text exposition 0.0.4.
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = MetricsRegistry::Global().PrometheusText();
      return r;
    }
    if (path == "/healthz") {
      r.body = "ok\n";
      return r;
    }
    if (path == "/readyz") {
      if (ready == nullptr || ready()) {
        r.body = "ready\n";
      } else {
        r.status = 503;
        r.body = "not ready\n";
      }
      return r;
    }
    r.status = 404;
    r.body = "not found\n";
    return r;
  };
}

}  // namespace dbwipes
