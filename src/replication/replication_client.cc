#include "dbwipes/replication/replication.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/socket_io.h"
#include "dbwipes/storage/durable_io.h"

namespace dbwipes {

ReplicationClient::~ReplicationClient() { Stop(); }

Status ReplicationClient::Start(ReplicationClientOptions options,
                                Callbacks callbacks) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("replication client already started");
  }
  if (!callbacks.last_applied || !callbacks.epoch || !callbacks.apply ||
      !callbacks.install_snapshot) {
    return Status::InvalidArgument(
        "replication client needs last_applied/epoch/apply/install_snapshot "
        "callbacks");
  }
  options_ = std::move(options);
  callbacks_ = std::move(callbacks);
  stopping_.store(false, std::memory_order_release);
  fenced_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = Stats();
    stats_.running = true;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&ReplicationClient::Run, this);
  return Status::OK();
}

void ReplicationClient::Stop() {
  stopping_.store(true, std::memory_order_release);
  {
    // fd_ is only assigned/cleared under mu_, so this shutdown can
    // never hit a recycled descriptor.
    std::lock_guard<std::mutex> lock(mu_);
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.running = false;
}

ReplicationClient::Stats ReplicationClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.running = running_.load(std::memory_order_acquire);
  s.fenced = fenced_.load(std::memory_order_acquire);
  return s;
}

void ReplicationClient::SetError(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.last_error = what;
}

void ReplicationClient::Run() {
  static MetricCounter* const reconnects =
      MetricsRegistry::Global().GetCounter("repl.reconnects");
  BackoffSequence backoff(options_.reconnect);
  bool first_attempt = true;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!first_attempt) {
      reconnects->Increment();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.reconnects;
      }
      if (options_.reconnect.sleep_fn) {
        backoff.Backoff();
      } else {
        // Sleep in slices so Stop() is not held hostage by a backoff.
        double remaining_ms = backoff.NextMs();
        while (remaining_ms > 0.0 &&
               !stopping_.load(std::memory_order_acquire)) {
          const double slice = remaining_ms < 20.0 ? remaining_ms : 20.0;
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(slice));
          remaining_ms -= slice;
        }
      }
      if (stopping_.load(std::memory_order_acquire)) break;
    }
    first_attempt = false;
    if (!RunOnce()) break;
  }
}

bool ReplicationClient::RunOnce() {
  static MetricCounter* const applied_counter =
      MetricsRegistry::Global().GetCounter("repl.frames_applied");
  static MetricCounter* const corrupt_counter =
      MetricsRegistry::Global().GetCounter("repl.corrupt_frames");
  static MetricCounter* const installs_counter =
      MetricsRegistry::Global().GetCounter("repl.snapshot_installs");
  static MetricGauge* const lag_gauge =
      MetricsRegistry::Global().GetGauge("repl.apply_lag");

  if (options_.faults != nullptr) {
    const Status st = options_.faults->Hit("repl/connect");
    if (!st.ok()) {
      SetError("connect fault: " + st.ToString());
      return true;
    }
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    SetError("replicate-from host '" + options_.host +
             "' is not an IPv4 address");
    return false;  // no amount of retrying fixes a bad address
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    SetError(std::string("socket failed: ") + std::strerror(errno));
    return true;
  }
  SetSocketTimeouts(fd, options_.heartbeat_timeout_ms);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    SetError("connect to " + options_.host + ":" +
             std::to_string(options_.port) +
             " failed: " + std::strerror(errno));
    ::close(fd);
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd_.store(fd, std::memory_order_release);
    stats_.connected = true;
  }

  bool keep_running = true;
  do {  // single-pass scope; break = tear this connection down
    ReplMessage hello;
    hello.type = ReplMsgType::kHello;
    hello.a = kReplProtocolVersion;
    hello.b = callbacks_.epoch();
    hello.c = force_resync_.load(std::memory_order_acquire)
                  ? 0
                  : callbacks_.last_applied();
    if (Status st = WriteReplMessage(fd, hello); !st.ok()) {
      SetError("hello: " + st.ToString());
      break;
    }

    uint64_t snap_lsn = 0;
    uint64_t snap_total = 0;
    std::string snap_buffer;
    while (!stopping_.load(std::memory_order_acquire)) {
      ReplMessage in;
      if (Status st = ReadReplMessage(fd, &in); !st.ok()) {
        SetError(st.ToString());
        break;
      }
      if (in.type == ReplMsgType::kWelcome ||
          in.type == ReplMsgType::kHeartbeat) {
        const uint64_t peer_epoch = in.a;
        if (peer_epoch < callbacks_.epoch()) {
          // The primary is living in the past. Tell it so (fencing it)
          // and stop for good: this pairing can never be valid again.
          ReplMessage refuse;
          refuse.type = ReplMsgType::kRefuse;
          refuse.a = callbacks_.epoch();
          refuse.payload = "epoch fenced: source is at epoch " +
                           std::to_string(peer_epoch) +
                           " but this node has seen epoch " +
                           std::to_string(callbacks_.epoch());
          (void)WriteReplMessage(fd, refuse);  // already disconnecting
          fenced_.store(true, std::memory_order_release);
          SetError(refuse.payload);
          keep_running = false;
          break;
        }
        if (callbacks_.observe_epoch) callbacks_.observe_epoch(peer_epoch);
        std::lock_guard<std::mutex> lock(mu_);
        stats_.source_epoch = peer_epoch;
        if (in.type == ReplMsgType::kHeartbeat) {
          stats_.source_durable_lsn = in.b;
          const uint64_t applied = callbacks_.last_applied();
          lag_gauge->Set(
              static_cast<int64_t>(in.b > applied ? in.b - applied : 0));
        } else {
          force_resync_.store(false, std::memory_order_release);
        }
      } else if (in.type == ReplMsgType::kSnapshotMeta) {
        snap_lsn = in.a;
        snap_total = in.b;
        snap_buffer.clear();
        snap_buffer.reserve(snap_total);
      } else if (in.type == ReplMsgType::kSnapshotChunk) {
        snap_buffer.append(in.payload);
        if (snap_buffer.size() > snap_total) {
          SetError("snapshot transfer overran its declared size");
          break;
        }
      } else if (in.type == ReplMsgType::kSnapshotDone) {
        if (snap_buffer.size() != snap_total ||
            Fnv1a64(snap_buffer.data(), snap_buffer.size()) != in.a) {
          corrupt_counter->Increment();
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.corrupt_frames;
          }
          SetError("snapshot transfer failed its checksum");
          break;
        }
        if (Status st = callbacks_.install_snapshot(snap_buffer, snap_lsn);
            !st.ok()) {
          SetError("snapshot install: " + st.ToString());
          force_resync_.store(true, std::memory_order_release);
          break;
        }
        installs_counter->Increment();
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.snapshot_installs;
        }
        snap_buffer.clear();
        ReplMessage ack;
        ack.type = ReplMsgType::kAck;
        ack.a = callbacks_.last_applied();
        if (!WriteReplMessage(fd, ack).ok()) break;
      } else if (in.type == ReplMsgType::kFrame) {
        if (options_.faults != nullptr) {
          const Status st = options_.faults->Hit("repl/recv_frame");
          if (!st.ok()) {
            SetError("recv fault: " + st.ToString());
            break;
          }
        }
        const uint64_t want = FrameChecksum(
            in.a, in.b, WriteAheadLog::kRecordCommand, in.payload);
        if (want != in.c) {
          corrupt_counter->Increment();
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.corrupt_frames;
          }
          SetError("frame lsn " + std::to_string(in.a) +
                   " failed its checksum; reconnecting");
          break;
        }
        const uint64_t applied = callbacks_.last_applied();
        if (in.a <= applied) continue;  // duplicate after a reconnect
        if (in.a != applied + 1) {
          SetError("stream gap: got lsn " + std::to_string(in.a) +
                   " after " + std::to_string(applied) +
                   "; forcing snapshot resync");
          force_resync_.store(true, std::memory_order_release);
          break;
        }
        if (options_.faults != nullptr) {
          const Status st = options_.faults->Hit("repl/apply");
          if (!st.ok()) {
            SetError("apply fault: " + st.ToString());
            break;
          }
        }
        if (Status st = callbacks_.apply(in.a, in.b, in.payload); !st.ok()) {
          SetError("apply lsn " + std::to_string(in.a) + ": " +
                   st.ToString());
          force_resync_.store(true, std::memory_order_release);
          break;
        }
        applied_counter->Increment();
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.frames_applied;
        }
        ReplMessage ack;
        ack.type = ReplMsgType::kAck;
        ack.a = in.a;
        if (!WriteReplMessage(fd, ack).ok()) break;
      } else if (in.type == ReplMsgType::kRefuse) {
        // The primary saw OUR epoch as ahead of its own and refused the
        // stream — it is stale, we are not. Same terminal verdict.
        fenced_.store(true, std::memory_order_release);
        SetError("refused by source: " + in.payload);
        keep_running = false;
        break;
      } else {
        SetError("unexpected replication message type " +
                 std::to_string(static_cast<int>(in.type)));
        break;
      }
    }
  } while (false);

  {
    std::lock_guard<std::mutex> lock(mu_);
    fd_.store(-1, std::memory_order_release);
    stats_.connected = false;
  }
  ::close(fd);
  return keep_running && !stopping_.load(std::memory_order_acquire);
}

}  // namespace dbwipes
