// Primary/follower replication (DESIGN.md §5l): wire protocol framing,
// epoch persistence, live WAL streaming into a read-only follower,
// snapshot catch-up once the primary has truncated, follower restart
// resume, promote + epoch fencing in both directions, and the
// repl/* fault-site matrix (reconnect with backoff, corrupt-frame
// detection). The replica-correctness oracle throughout: a follower's
// `debug` ranking is byte-identical to the primary's.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/random.h"
#include "dbwipes/common/retry.h"
#include "dbwipes/core/service.h"
#include "dbwipes/replication/replication.h"
#include "dbwipes/storage/durable_io.h"

namespace dbwipes {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" +
                          std::to_string(::getpid()) + "_repl_" + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

std::shared_ptr<Database> MakeDb() {
  Rng rng(53);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 40; ++i) {
      const bool bad = g >= 2 && i < 8;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(bad ? "bad" : "fine"),
                                 Value(bad ? rng.Normal(100, 2)
                                           : rng.Normal(10, 2))}));
    }
  }
  auto db = std::make_shared<Database>();
  db->RegisterTable(t);
  return db;
}

bool IsOk(const std::string& response) {
  return response.compare(0, 11, "{\"ok\": true") == 0;
}

long long JsonInt(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = response.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << response;
  if (at == std::string::npos) return -1;
  return std::strtoll(response.c_str() + at + needle.size(), nullptr, 10);
}

bool JsonBool(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = response.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << response;
  return at != std::string::npos &&
         response.compare(at + needle.size(), 4, "true") == 0;
}

bool WaitUntil(const std::function<bool()>& pred, double timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(timeout_ms));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// The deterministic tail of a debug response (ranked predicates).
std::string RankedPredicates(const std::string& debug_response) {
  const size_t at = debug_response.find("\"predicates\":[");
  EXPECT_NE(at, std::string::npos) << debug_response.substr(0, 200);
  return at == std::string::npos ? debug_response : debug_response.substr(at);
}

ServiceOptions PrimaryOptions(const std::string& dir,
                              FaultInjector* faults = nullptr) {
  ServiceOptions options;
  options.wal.dir = dir;
  options.replication.listen_port = 0;  // ephemeral
  options.replication.faults = faults;
  return options;
}

ServiceOptions FollowerOptions(const std::string& wal_dir, int primary_port,
                               FaultInjector* faults = nullptr) {
  ServiceOptions options;
  options.wal.dir = wal_dir;  // may be empty: memory-only follower
  options.replication.follow = "127.0.0.1:" + std::to_string(primary_port);
  options.replication.heartbeat_timeout_ms = 500.0;
  options.replication.reconnect.initial_backoff_ms = 5.0;
  options.replication.reconnect.max_backoff_ms = 50.0;
  options.replication.faults = faults;
  return options;
}

int PrimaryPort(Service& primary) {
  const std::string status = primary.Execute("replication status");
  EXPECT_TRUE(JsonBool(status, "listening")) << status;
  return static_cast<int>(JsonInt(status, "port"));
}

uint64_t PrimaryDurableLsn(Service& primary) {
  return static_cast<uint64_t>(
      JsonInt(primary.Execute("wal status"), "durable_lsn"));
}

bool FollowerCaughtUp(Service& follower, uint64_t lsn) {
  return static_cast<uint64_t>(JsonInt(follower.Execute("replication status"),
                                       "last_applied_lsn")) >= lsn;
}

/// Identical session/query setup on the primary; the stream must carry
/// all of it to the follower.
void RunPrimaryWorkload(Service& primary, int appends) {
  ASSERT_TRUE(IsOk(
      primary.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  ASSERT_TRUE(IsOk(primary.Execute("select_range a 20 1e9")));
  ASSERT_TRUE(IsOk(primary.Execute("metric too_high 12")));
  ASSERT_TRUE(IsOk(primary.Execute("shards w 4")));
  for (int i = 0; i < appends; ++i) {
    ASSERT_TRUE(IsOk(primary.Execute(
        "append w 9 extra " + std::to_string(50.0 + i))));
  }
}

// --- Protocol ---

TEST(ReplicationProtocolTest, MessageRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  ReplMessage out;
  out.type = ReplMsgType::kFrame;
  out.a = 42;
  out.b = 7;
  out.payload = "append w 9 extra 50";
  out.c = FrameChecksum(out.a, out.b, WriteAheadLog::kRecordCommand,
                        out.payload);
  ASSERT_TRUE(WriteReplMessage(fds[0], out).ok());

  ReplMessage in;
  ASSERT_TRUE(ReadReplMessage(fds[1], &in).ok());
  EXPECT_EQ(in.type, ReplMsgType::kFrame);
  EXPECT_EQ(in.a, out.a);
  EXPECT_EQ(in.b, out.b);
  EXPECT_EQ(in.c, out.c);
  EXPECT_EQ(in.payload, out.payload);
  // The checksum binds header AND body: any flip breaks it.
  std::string damaged = in.payload;
  damaged[0] ^= 1;
  EXPECT_NE(FrameChecksum(in.a, in.b, WriteAheadLog::kRecordCommand, damaged),
            in.c);
  EXPECT_NE(FrameChecksum(in.a + 1, in.b, WriteAheadLog::kRecordCommand,
                          in.payload),
            in.c);

  // An empty-payload heartbeat round-trips too.
  ReplMessage hb;
  hb.type = ReplMsgType::kHeartbeat;
  hb.a = 3;
  hb.b = 99;
  ASSERT_TRUE(WriteReplMessage(fds[0], hb).ok());
  ASSERT_TRUE(ReadReplMessage(fds[1], &in).ok());
  EXPECT_EQ(in.type, ReplMsgType::kHeartbeat);
  EXPECT_EQ(in.b, 99u);

  // Peer close surfaces as a clean error, not a hang.
  ::close(fds[0]);
  EXPECT_FALSE(ReadReplMessage(fds[1], &in).ok());
  ::close(fds[1]);
}

TEST(ReplicationProtocolTest, EpochFilePersistsAndRejectsGarbage) {
  const std::string dir = TempDir("epoch");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);

  // Absent file: epoch 1, not an error (fresh node).
  auto epoch = LoadReplicationEpoch(dir);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 1u);

  ASSERT_TRUE(StoreReplicationEpoch(dir, 7).ok());
  epoch = LoadReplicationEpoch(dir);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 7u);

  // A malformed file must refuse to guess, not default to 1 (that
  // could resurrect a fenced primary at a stale epoch).
  FILE* f = std::fopen((dir + "/repl-epoch").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not an epoch\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadReplicationEpoch(dir).ok());
}

// --- End-to-end streaming ---

TEST(ReplicationTest, StreamsMutationsToFollowerWhichRejectsWrites) {
  Service primary(MakeDb(), PrimaryOptions(TempDir("stream_p")));
  const int port = PrimaryPort(primary);
  RunPrimaryWorkload(primary, 10);

  // Memory-only follower (no local WAL): applies the stream, serves
  // reads, rejects writes.
  Service follower(MakeDb(), FollowerOptions("", port));
  const uint64_t durable = PrimaryDurableLsn(primary);
  ASSERT_GT(durable, 0u);
  ASSERT_TRUE(WaitUntil([&] { return FollowerCaughtUp(follower, durable); }))
      << follower.Execute("replication status");

  // Reads work and agree with the primary, byte for byte.
  EXPECT_EQ(RankedPredicates(follower.Execute("debug")),
            RankedPredicates(primary.Execute("debug")));

  // Writes are rejected with the machine-readable retryable shape.
  const std::string rejected = follower.Execute("append w 9 extra 1.0");
  EXPECT_FALSE(IsOk(rejected));
  EXPECT_NE(rejected.find("\"reason\": \"not_primary\""), std::string::npos)
      << rejected;
  double retry_after_ms = 0.0;
  EXPECT_TRUE(ResponseRetryable(rejected, &retry_after_ms)) << rejected;
  EXPECT_GT(retry_after_ms, 0.0);
  EXPECT_FALSE(IsOk(follower.Execute("sql SELECT g FROM w GROUP BY g")));
  EXPECT_FALSE(IsOk(follower.Execute("wal on /tmp/nope")));
  // Reads and cancel stay allowed.
  EXPECT_TRUE(IsOk(follower.Execute("state")));
  EXPECT_TRUE(IsOk(follower.Execute("stats")));

  // New primary mutations keep flowing.
  ASSERT_TRUE(IsOk(primary.Execute("append w 9 extra 77.0")));
  const uint64_t durable2 = PrimaryDurableLsn(primary);
  EXPECT_TRUE(WaitUntil([&] { return FollowerCaughtUp(follower, durable2); }))
      << follower.Execute("replication status");

  // Lag/epoch/follower gauges surface in the shared registry (and thus
  // in Prometheus exposition and `history`).
  const std::string exposition = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(exposition.find("dbwipes_repl_connected_followers"),
            std::string::npos);
  EXPECT_NE(exposition.find("dbwipes_repl_epoch"), std::string::npos);
}

TEST(ReplicationTest, SnapshotCatchupAfterPrimaryTruncatedTheLog) {
  Service primary(MakeDb(), PrimaryOptions(TempDir("catchup_p")));
  const int port = PrimaryPort(primary);
  RunPrimaryWorkload(primary, 20);
  // Checkpoint + truncate: the pre-checkpoint records are gone from the
  // log, so a fresh follower cannot tail from zero.
  ASSERT_TRUE(IsOk(primary.Execute("wal checkpoint")));
  ASSERT_TRUE(IsOk(primary.Execute("append w 9 extra 99.0")));

  Service follower(MakeDb(), FollowerOptions(TempDir("catchup_f"), port));
  const uint64_t durable = PrimaryDurableLsn(primary);
  ASSERT_TRUE(WaitUntil([&] { return FollowerCaughtUp(follower, durable); }))
      << follower.Execute("replication status");

  const std::string status = follower.Execute("replication status");
  EXPECT_GE(JsonInt(status, "snapshot_installs"), 1) << status;
  EXPECT_EQ(RankedPredicates(follower.Execute("debug")),
            RankedPredicates(primary.Execute("debug")));
}

TEST(ReplicationTest, FollowerRestartResumesFromItsLocalLog) {
  Service primary(MakeDb(), PrimaryOptions(TempDir("resume_p")));
  const int port = PrimaryPort(primary);
  RunPrimaryWorkload(primary, 8);
  const std::string follower_dir = TempDir("resume_f");

  {
    Service follower(MakeDb(), FollowerOptions(follower_dir, port));
    const uint64_t durable = PrimaryDurableLsn(primary);
    ASSERT_TRUE(
        WaitUntil([&] { return FollowerCaughtUp(follower, durable); }));
  }  // follower "crashes" (destructor joins its threads)

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(IsOk(primary.Execute(
        "append w 9 extra " + std::to_string(200.0 + i))));
  }

  // Restart on the same dir: local WAL recovery seeds last_applied, the
  // stream resumes mid-log — no snapshot transfer needed.
  Service follower(MakeDb(), FollowerOptions(follower_dir, port));
  const uint64_t durable = PrimaryDurableLsn(primary);
  ASSERT_TRUE(WaitUntil([&] { return FollowerCaughtUp(follower, durable); }))
      << follower.Execute("replication status");
  const std::string status = follower.Execute("replication status");
  EXPECT_EQ(JsonInt(status, "snapshot_installs"), 0) << status;
  EXPECT_EQ(RankedPredicates(follower.Execute("debug")),
            RankedPredicates(primary.Execute("debug")));
}

// --- Promote + epoch fencing ---

TEST(ReplicationTest, PromoteMakesFollowerAPrimaryAndFencesTheOldOne) {
  const std::string a_dir = TempDir("fence_a");
  const std::string b_dir = TempDir("fence_b");
  Service a(MakeDb(), PrimaryOptions(a_dir));
  const int port = PrimaryPort(a);
  RunPrimaryWorkload(a, 6);

  Service b(MakeDb(), FollowerOptions(b_dir, port));
  const uint64_t durable = PrimaryDurableLsn(a);
  ASSERT_TRUE(WaitUntil([&] { return FollowerCaughtUp(b, durable); }));

  // Promote B: epoch bumps past everything it has seen, and B serves
  // writes again.
  const std::string promoted = b.Execute("promote");
  ASSERT_TRUE(IsOk(promoted)) << promoted;
  EXPECT_EQ(JsonInt(promoted, "epoch"), 2);
  EXPECT_TRUE(IsOk(b.Execute("append w 9 extra 300.0")));
  EXPECT_FALSE(IsOk(b.Execute("promote")));  // already a primary

  // B (epoch 2) dials the old primary A (epoch 1): A must refuse the
  // stream and fence itself.
  ASSERT_TRUE(IsOk(b.Execute("replicate from 127.0.0.1:" +
                             std::to_string(port))));
  ASSERT_TRUE(WaitUntil([&] {
    return JsonBool(a.Execute("replication status"), "fenced");
  })) << a.Execute("replication status");
  EXPECT_TRUE(WaitUntil([&] {
    return JsonBool(b.Execute("replication status"), "fenced_source");
  })) << b.Execute("replication status");
  EXPECT_GE(JsonInt(a.Execute("replication status"), "epoch_refusals"), 1);

  // The fenced stale primary: mutations rejected terminally, promotion
  // refused with an explicit epoch error.
  const std::string rejected = a.Execute("append w 9 extra 301.0");
  EXPECT_FALSE(IsOk(rejected));
  EXPECT_NE(rejected.find("\"reason\": \"fenced\""), std::string::npos)
      << rejected;
  EXPECT_EQ(rejected.find("\"retryable\""), std::string::npos) << rejected;
  const std::string promote_refused = a.Execute("promote");
  EXPECT_FALSE(IsOk(promote_refused));
  EXPECT_NE(promote_refused.find("epoch fenced"), std::string::npos)
      << promote_refused;
  EXPECT_NE(promote_refused.find("epoch 2"), std::string::npos)
      << promote_refused;

  // B's promoted epoch survives a restart (persisted before the
  // promotion was acknowledged).
  ASSERT_TRUE(IsOk(b.Execute("replicate stop")));
  {
    ServiceOptions options;
    options.wal.dir = b_dir;
    Service b2(MakeDb(), options);
    EXPECT_GE(JsonInt(b2.Execute("replication status"), "epoch"), 2);
  }
}

TEST(ReplicationTest, ReplicateCommandValidation) {
  Service service(MakeDb(), ServiceOptions{});
  // No WAL: cannot serve followers.
  EXPECT_FALSE(IsOk(service.Execute("replicate listen 0")));
  EXPECT_FALSE(IsOk(service.Execute("replicate from not-an-address")));
  EXPECT_FALSE(IsOk(service.Execute("replicate bogus")));
  EXPECT_FALSE(IsOk(service.Execute("replication bogus")));
  EXPECT_TRUE(IsOk(service.Execute("replication status")));
  EXPECT_TRUE(IsOk(service.Execute("replicate stop")));  // idempotent

  Service primary(MakeDb(), PrimaryOptions(TempDir("validate_p")));
  // Second listener refused; wal off refused while replication runs.
  EXPECT_FALSE(IsOk(primary.Execute("replicate listen 0")));
  const std::string wal_off = primary.Execute("wal off");
  EXPECT_FALSE(IsOk(wal_off));
  EXPECT_NE(wal_off.find("replicate stop"), std::string::npos) << wal_off;
}

// --- Fault matrix (reconnect, corruption, handshake adversity) ---

struct ReplFaultCase {
  const char* site;
  bool primary_side;  // arm on the primary's injector vs the follower's
  size_t count;       // fires this many times, then clears
};

class ReplicationFaultTest : public ::testing::TestWithParam<ReplFaultCase> {};

TEST_P(ReplicationFaultTest, StreamHealsAndConverges) {
  const ReplFaultCase fault_case = GetParam();
  FaultInjector primary_faults;
  FaultInjector follower_faults;

  std::string dir_name = std::string("fault_p_") + fault_case.site;
  for (char& c : dir_name) {
    if (c == '/') c = '_';
  }
  Service primary(MakeDb(), PrimaryOptions(TempDir(dir_name), &primary_faults));
  const int port = PrimaryPort(primary);
  RunPrimaryWorkload(primary, 6);
  // Force the snapshot path too, so repl/snapshot_chunk has traffic.
  ASSERT_TRUE(IsOk(primary.Execute("wal checkpoint")));
  ASSERT_TRUE(IsOk(primary.Execute("append w 9 extra 100.0")));

  FaultInjector::Fault fault;
  fault.status = Status::IoError(std::string("injected at ") +
                                 fault_case.site);
  fault.count = fault_case.count;
  (fault_case.primary_side ? primary_faults : follower_faults)
      .Arm(fault_case.site, fault);

  Service follower(MakeDb(), FollowerOptions("", port, &follower_faults));
  const uint64_t durable = PrimaryDurableLsn(primary);
  ASSERT_TRUE(WaitUntil([&] { return FollowerCaughtUp(follower, durable); }))
      << "site " << fault_case.site << ": "
      << follower.Execute("replication status");

  const std::string status = follower.Execute("replication status");
  EXPECT_EQ(RankedPredicates(follower.Execute("debug")),
            RankedPredicates(primary.Execute("debug")));
  // The armed site actually fired.
  EXPECT_GE((fault_case.primary_side ? primary_faults : follower_faults)
                .hits(fault_case.site),
            fault_case.count)
      << fault_case.site;
  if (std::string(fault_case.site) == "repl/corrupt_frame") {
    // Corruption was detected by checksum, not silently applied.
    EXPECT_GE(JsonInt(status, "corrupt_frames"), 1) << status;
  }
  if (!fault_case.primary_side ||
      std::string(fault_case.site) != "repl/connect") {
    // Every fault path tears the connection down; recovery goes
    // through reconnect-with-backoff.
    EXPECT_GE(JsonInt(status, "reconnects"), 1) << status;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllReplicationSites, ReplicationFaultTest,
    ::testing::Values(ReplFaultCase{"repl/connect", false, 2},
                      ReplFaultCase{"repl/handshake", true, 1},
                      ReplFaultCase{"repl/send_frame", true, 1},
                      ReplFaultCase{"repl/corrupt_frame", true, 1},
                      ReplFaultCase{"repl/snapshot_chunk", true, 1},
                      ReplFaultCase{"repl/recv_frame", false, 1},
                      ReplFaultCase{"repl/apply", false, 1}),
    [](const ::testing::TestParamInfo<ReplFaultCase>& info) {
      std::string name = info.param.site;
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      return name;
    });

TEST(ReplicationFaultSitesTest, RegistryListsExactlyTheCompiledSites) {
  const std::vector<std::string>& sites = AllReplicationFaultSites();
  EXPECT_EQ(sites.size(), 7u);
  for (const std::string& site : sites) {
    EXPECT_EQ(site.compare(0, 5, "repl/"), 0) << site;
  }
}

}  // namespace
}  // namespace dbwipes
