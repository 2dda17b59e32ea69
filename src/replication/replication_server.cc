#include "dbwipes/replication/replication.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/socket_io.h"
#include "dbwipes/common/telemetry.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/storage/durable_io.h"

namespace dbwipes {

namespace {

constexpr size_t kSnapshotChunkBytes = 64u << 10;

/// Heartbeat cadence per follower connection.
constexpr double kHeartbeatIntervalMs = 100.0;

}  // namespace

ReplicationServer::~ReplicationServer() { Stop(); }

Status ReplicationServer::Start(ReplicationServerOptions options,
                                Source source) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("replication server already started");
  }
  if (source.wal == nullptr || !source.epoch || !source.snapshot) {
    return Status::InvalidArgument(
        "replication server needs a wal, an epoch source, and a snapshot "
        "source");
  }
  // Loopback-only, like the observability listener: replication is not
  // exposed off-host unless the operator fronts it themselves.
  DBW_RETURN_NOT_OK(ListenLoopback(options.port, &listen_fd_, &port_));
  options_ = options;
  source_ = std::move(source);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&ReplicationServer::AcceptLoop, this);
  return Status::OK();
}

void ReplicationServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

ReplicationServer::Stats ReplicationServer::stats() const {
  Stats s;
  s.running = running_.load(std::memory_order_acquire);
  s.port = port_;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t min_acked = 0;
  for (const auto& conn : conns_) {
    if (conn->done.load(std::memory_order_acquire)) continue;
    ++s.followers;
    const uint64_t acked = conn->acked_lsn.load(std::memory_order_acquire);
    if (s.followers == 1 || acked < min_acked) min_acked = acked;
  }
  s.min_acked_lsn = min_acked;
  s.frames_sent = frames_sent_;
  s.snapshots_sent = snapshots_sent_;
  s.epoch_refusals = epoch_refusals_;
  return s;
}

void ReplicationServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (r <= 0) continue;
    const int conn_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (conn_fd < 0) continue;
    {
      // Reap finished followers so a long-lived primary that sheds and
      // regains followers does not accumulate dead threads/fds.
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          if ((*it)->fd >= 0) ::close((*it)->fd);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = conn_fd;
      Conn* raw = conn.get();
      conn->thread =
          std::thread(&ReplicationServer::ServeFollower, this, raw);
      conns_.push_back(std::move(conn));
    }
  }
}

Result<uint64_t> ReplicationServer::ShipFrames(int fd, uint64_t last_sent) {
  if (source_.wal->durable_lsn() <= last_sent) return last_sent;
  size_t shipped = 0;
  uint64_t through = last_sent;
  const Status st = source_.wal->ReplayDurable(
      last_sent,
      [&](uint64_t lsn, uint64_t rid, uint8_t type,
          const std::string& body) -> Status {
        if (type != WriteAheadLog::kRecordCommand) return Status::OK();
        ReplMessage frame;
        frame.type = ReplMsgType::kFrame;
        frame.a = lsn;
        frame.b = rid;
        frame.c = FrameChecksum(lsn, rid, type, body);
        frame.payload = body;
        if (options_.faults != nullptr) {
          FaultInjector::Fault fault;
          if (options_.faults->HitIo("repl/send_frame", &fault)) {
            if (fault.crash) ::_exit(kFaultCrashExit);
            if (!fault.status.ok()) return fault.status;
          }
          if (options_.faults->HitIo("repl/corrupt_frame", &fault)) {
            // Damage the wire bytes AFTER checksumming — the follower's
            // verification, not luck, must catch this.
            if (!frame.payload.empty()) {
              frame.payload[0] = static_cast<char>(frame.payload[0] ^ 0x5a);
            } else {
              frame.c ^= 0x5a;
            }
          }
        }
        DBW_RETURN_NOT_OK(WriteReplMessage(fd, frame));
        ++shipped;
        return Status::OK();
      },
      &through);
  DBW_RETURN_NOT_OK(st);
  if (shipped > 0) {
    static MetricCounter* const frames =
        MetricsRegistry::Global().GetCounter("repl.frames_sent");
    frames->Increment(static_cast<int64_t>(shipped));
    std::lock_guard<std::mutex> lock(mu_);
    frames_sent_ += shipped;
  }
  return through;
}

void ReplicationServer::ServeFollower(Conn* conn) {
  static MetricGauge* const followers =
      MetricsRegistry::Global().GetGauge("repl.connected_followers");
  static MetricGauge* const lag =
      MetricsRegistry::Global().GetGauge("repl.follower_lag");
  static MetricCounter* const heartbeats =
      MetricsRegistry::Global().GetCounter("repl.heartbeats");

  const int fd = conn->fd;
  SetSocketTimeouts(fd, options_.recv_timeout_ms);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  bool counted = false;
  ReplMessage hello;
  do {  // single-pass scope; break = tear the connection down
    if (!ReadReplMessage(fd, &hello).ok()) break;
    if (hello.type != ReplMsgType::kHello ||
        hello.a != kReplProtocolVersion) {
      break;
    }
    if (options_.faults != nullptr &&
        !options_.faults->Hit("repl/handshake").ok()) {
      break;
    }
    const uint64_t my_epoch = source_.epoch();
    if (hello.b > my_epoch) {
      // The follower has lived in a newer epoch than we have: we are
      // the stale primary. Refuse the stream and fence ourselves.
      ReplMessage refuse;
      refuse.type = ReplMsgType::kRefuse;
      refuse.a = my_epoch;
      refuse.payload = "epoch fenced: peer speaks epoch " +
                       std::to_string(hello.b) +
                       " but this primary is at epoch " +
                       std::to_string(my_epoch);
      (void)WriteReplMessage(fd, refuse);  // already dropping the peer
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++epoch_refusals_;
      }
      MetricsRegistry::Global()
          .GetCounter("repl.epoch_refusals")
          ->Increment();
      if (source_.observe_epoch) source_.observe_epoch(hello.b);
      break;
    }

    uint64_t last_sent = hello.c;
    std::string snap_bytes;
    uint64_t snap_lsn = 0;
    bool need_snapshot = !source_.wal->CanReplayAfter(last_sent);
    if (need_snapshot) {
      // The checkpoint callback and the log race (a checkpoint can
      // truncate between the read and the tail): retry until the bytes
      // we got are still tailable from their LSN.
      bool have = false;
      for (int attempt = 0; attempt < 5 && !have; ++attempt) {
        auto got = source_.snapshot();
        if (!got.ok()) break;
        snap_bytes = std::move(got->first);
        snap_lsn = got->second;
        have = source_.wal->CanReplayAfter(snap_lsn);
      }
      if (!have) break;
    }

    ReplMessage welcome;
    welcome.type = ReplMsgType::kWelcome;
    welcome.a = my_epoch;
    welcome.b = need_snapshot ? snap_lsn : last_sent;
    welcome.c = need_snapshot ? 1 : 0;
    if (!WriteReplMessage(fd, welcome).ok()) break;

    if (need_snapshot) {
      ReplMessage meta;
      meta.type = ReplMsgType::kSnapshotMeta;
      meta.a = snap_lsn;
      meta.b = snap_bytes.size();
      if (!WriteReplMessage(fd, meta).ok()) break;
      bool sent_ok = true;
      for (size_t off = 0; off < snap_bytes.size();
           off += kSnapshotChunkBytes) {
        if (options_.faults != nullptr) {
          FaultInjector::Fault fault;
          if (options_.faults->HitIo("repl/snapshot_chunk", &fault)) {
            if (fault.crash) ::_exit(kFaultCrashExit);
            if (!fault.status.ok()) {
              sent_ok = false;
              break;
            }
          }
        }
        ReplMessage chunk;
        chunk.type = ReplMsgType::kSnapshotChunk;
        chunk.payload = snap_bytes.substr(off, kSnapshotChunkBytes);
        if (!WriteReplMessage(fd, chunk).ok()) {
          sent_ok = false;
          break;
        }
      }
      if (!sent_ok) break;
      ReplMessage done;
      done.type = ReplMsgType::kSnapshotDone;
      done.a = Fnv1a64(snap_bytes.data(), snap_bytes.size());
      if (!WriteReplMessage(fd, done).ok()) break;
      last_sent = snap_lsn;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++snapshots_sent_;
      }
      MetricsRegistry::Global()
          .GetCounter("repl.snapshots_sent")
          ->Increment();
    }

    conn->acked_lsn.store(last_sent, std::memory_order_release);
    counted = true;
    followers->Add(1);

    double last_heartbeat_ms = MonotonicMillis();
    while (!stopping_.load(std::memory_order_acquire)) {
      // Pace on the socket: wakes immediately for an ACK, otherwise
      // after a short slice to check for newly durable records.
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int r = ::poll(&pfd, 1, /*timeout_ms=*/2);
      if (r > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ReplMessage in;
        if (!ReadReplMessage(fd, &in).ok()) break;
        if (in.type == ReplMsgType::kAck) {
          conn->acked_lsn.store(in.a, std::memory_order_release);
          const uint64_t durable = source_.wal->durable_lsn();
          lag->Set(static_cast<int64_t>(durable > in.a ? durable - in.a
                                                       : 0));
        } else if (in.type == ReplMsgType::kRefuse) {
          // The follower told us our epoch is stale.
          if (source_.observe_epoch) source_.observe_epoch(in.a);
          break;
        }
      } else if (r > 0) {
        break;  // socket error
      }
      auto shipped = ShipFrames(fd, last_sent);
      if (!shipped.ok()) break;
      last_sent = *shipped;
      const double now_ms = MonotonicMillis();
      if (now_ms - last_heartbeat_ms >= kHeartbeatIntervalMs) {
        ReplMessage hb;
        hb.type = ReplMsgType::kHeartbeat;
        hb.a = source_.epoch();
        hb.b = source_.wal->durable_lsn();
        if (!WriteReplMessage(fd, hb).ok()) break;
        heartbeats->Increment();
        last_heartbeat_ms = now_ms;
      }
    }
  } while (false);

  if (counted) followers->Add(-1);
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

}  // namespace dbwipes
