// Service-level WAL integration: restart recovery (snapshot + replay)
// must reproduce sessions, appended rows, and process settings; the
// `clean <i>` → `clean_where <pred>` rewrite must replay without a
// preceding debug; checkpoints must truncate the log; a WAL append
// failure must surface the durability-lost response while leaving the
// in-memory state applied. The restore oracle throughout is the same
// as snapshot_test's: a recovered session's `debug` reproduces the
// pre-crash ranking byte for byte.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dbwipes/common/random.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/service.h"
#include "dbwipes/core/session.h"
#include "dbwipes/core/snapshot.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

std::string TempWalDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" +
                          std::to_string(::getpid()) + "_" + name;
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

ServiceOptions WalOptionsAt(const std::string& dir) {
  ServiceOptions options;
  options.wal.dir = dir;
  return options;
}

/// Drops the per-request `"rid": N` field so two responses for the
/// same logical command compare equal.
std::string StripRid(std::string response) {
  const size_t pos = response.find(", \"rid\": ");
  if (pos == std::string::npos) return response;
  size_t end = pos + 9;
  while (end < response.size() && response[end] >= '0' && response[end] <= '9')
    ++end;
  return response.erase(pos, end - pos);
}

bool IsOk(const std::string& response) {
  return response.compare(0, 11, "{\"ok\": true") == 0;
}

/// Pulls `"key": <number>` out of a flat JSON response.
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

/// The deterministic tail of a debug response (ranked predicates);
/// excludes wall-clock timings.
std::string RankedPredicates(const std::string& debug_response) {
  const size_t at = debug_response.find("\"predicates\":[");
  EXPECT_NE(at, std::string::npos) << debug_response.substr(0, 200);
  return debug_response.substr(at);
}

TEST(WalServiceTest, RestartRecoversSessionsRowsAndSettings) {
  const std::string dir = TempWalDir("svc_restart");
  std::string ranking_before;
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    ASSERT_TRUE(IsOk(service.Execute(
        "sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
    ASSERT_TRUE(IsOk(service.Execute("clean_where v > 200")));
    ASSERT_TRUE(IsOk(service.Execute("select_range a 20 1e9")));
    ASSERT_TRUE(IsOk(service.Execute("metric too_high 12")));
    ASSERT_TRUE(IsOk(service.Execute(
        "@side sql SELECT g, sum(v) AS s FROM w GROUP BY g")));
    ASSERT_TRUE(IsOk(service.Execute("retry 5 12.5")));
    ASSERT_TRUE(IsOk(service.Execute("shards w 4")));
    ASSERT_TRUE(IsOk(service.Execute("append w 9 extra 42.0")));
    ASSERT_TRUE(IsOk(service.Execute("append w 9 extra 43.0")));
    ranking_before = RankedPredicates(service.Execute("debug"));
  }
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    const std::string status = service.Execute("wal status");
    ASSERT_TRUE(IsOk(status)) << status;
    EXPECT_TRUE(JsonBool(status, "enabled"));
    EXPECT_EQ(JsonInt(status, "replay_errors"), 0) << status;

    // Sessions and their full state came back...
    const std::string state = service.Execute("state");
    EXPECT_TRUE(JsonBool(state, "has_result")) << state;
    EXPECT_EQ(JsonInt(state, "num_applied_predicates"), 1) << state;
    EXPECT_TRUE(JsonBool(service.Execute("@side state"), "has_result"));
    // ...the appended rows survived (4*40 seed + 2 appends)...
    const std::string append = service.Execute("append w 9 extra 44.0");
    ASSERT_TRUE(IsOk(append)) << append;
    EXPECT_EQ(JsonInt(append, "rows"), 163) << append;
    // ...and the recovered world reproduces the ranking byte for byte.
    EXPECT_EQ(RankedPredicates(service.Execute("debug")), ranking_before);
  }
}

TEST(WalServiceTest, CleanByRankReplaysWithoutADebug) {
  const std::string dir = TempWalDir("svc_clean");
  std::string state_before;
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    ASSERT_TRUE(IsOk(service.Execute(
        "sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
    ASSERT_TRUE(IsOk(service.Execute("select_range a 20 1e9")));
    ASSERT_TRUE(IsOk(service.Execute("metric too_high 12")));
    ASSERT_TRUE(IsOk(service.Execute("debug")));
    // `clean 0` names a rank in that explanation — the log must carry
    // the RESOLVED predicate, because recovery never re-runs debug.
    ASSERT_TRUE(IsOk(service.Execute("clean 0")));
    state_before = service.Execute("result");
  }
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    const std::string state = service.Execute("state");
    EXPECT_EQ(JsonInt(state, "num_applied_predicates"), 1) << state;
    EXPECT_EQ(StripRid(service.Execute("result")), StripRid(state_before));
  }
}

// A failed cleaning command changes nothing. It is not logged, so the
// live session must already be what recovery rebuilds.
TEST(WalServiceTest, FailedCleanLeavesTheSessionAsRecoveryRebuildsIt) {
  const std::string dir = TempWalDir("svc_failed_clean");
  std::string state_before, result_before;
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    ASSERT_TRUE(IsOk(service.Execute(
        "sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
    ASSERT_TRUE(IsOk(service.Execute("clean_where tag = 'bad'")));
    EXPECT_FALSE(IsOk(service.Execute("clean_where nosuchcol = 1")));
    // Still one predicate, so the next clean and undo succeed.
    ASSERT_TRUE(IsOk(service.Execute("clean_where v > 200")));
    ASSERT_TRUE(IsOk(service.Execute("undo")));
    EXPECT_FALSE(IsOk(service.Execute("clean_where nosuchcol = 1")));
    state_before = StripRid(service.Execute("state"));
    result_before = StripRid(service.Execute("result"));
    EXPECT_EQ(JsonInt(state_before, "num_applied_predicates"), 1)
        << state_before;
  }
  Service service(MakeDb(), WalOptionsAt(dir));
  EXPECT_EQ(StripRid(service.Execute("state")), state_before);
  EXPECT_EQ(StripRid(service.Execute("result")), result_before);
}

// Randomized oracle for cleaning on a sharded table: random `clean`,
// `clean_where`, `undo`, `reset` and `append` steps through the
// Service. After each step, `result` equals a fresh session that runs
// `sql` and the same `clean_where`s, and the combined query executed
// from scratch — as of the last successful cleaning step (an append,
// like a failed command, leaves the shown result as it was). At the
// end, WAL recovery and snapshot save/load answer `state` and `result`
// byte for byte.
class CleaningSessionOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CleaningSessionOracle, MatchesAFreshSessionAndRecovers) {
  const std::string dir =
      TempWalDir("svc_clean_oracle_" + std::to_string(GetParam()));
  const std::string snap = dir + "_snap.dbw";
  const std::string sql =
      "SELECT g, avg(v) AS a, sum(v) AS s, count(*) AS n FROM w GROUP BY g";
  // `tag > 'c'` compiles to no clause kernel, so it always re-executes.
  const std::vector<std::string> pool = {
      "tag = 'bad'", "v > 50",   "g = 1",    "v < 8 AND g >= 2", "g IN (0, 3)",
      "tag > 'c'",   "v >= 9.5", "tag = 'fine' AND v > 11"};
  Rng rng(GetParam());
  std::string state, expected;
  {
    std::shared_ptr<Database> db = MakeDb();
    Service service(db, WalOptionsAt(dir));
    ASSERT_TRUE(IsOk(service.Execute("shards w 4")));
    ASSERT_TRUE(IsOk(service.Execute("sql " + sql)));

    std::vector<std::string> applied;  // the model
    auto fresh_result = [&]() {
      Session fresh(db);
      DBW_CHECK_OK(fresh.ExecuteSql(sql));
      AggregateQuery combined = *ParseQuery(sql);
      for (const std::string& text : applied) {
        const Predicate pred = *ParsePredicate(text);
        DBW_CHECK_OK(fresh.ApplyPredicateDirect(pred));
        combined = combined.WithCleaningPredicate(pred);
      }
      const std::string json = QueryResultToJson(fresh.result(), false);
      EXPECT_EQ(json, QueryResultToJson(*db->Execute(combined), false));
      return "{\"ok\": true, \"result\": " + json + "}";
    };
    expected = fresh_result();

    // Sends `cmd`; on success updates the model (`cleans` is the
    // predicate a clean applies). Then checks `result`.
    auto step = [&](const std::string& cmd, const std::string& cleans = "") {
      const std::string reply = service.Execute(cmd);
      if (IsOk(reply)) {
        if (!cleans.empty()) applied.push_back(cleans);
        if (cmd == "undo") applied.pop_back();
        if (cmd == "reset") applied.clear();
        if (!cmd.starts_with("append")) expected = fresh_result();
      } else {
        // Only these fail, and they leave the session unchanged.
        EXPECT_TRUE(cmd == "undo" || cmd == "clean 0") << cmd << ": " << reply;
      }
      EXPECT_EQ(StripRid(service.Execute("result")), expected)
          << cmd << " after " << applied.size() << " predicates";
    };

    for (int i = 0; i < 40; ++i) {
      switch (rng.UniformInt(6u)) {
        case 0:
        case 1: {
          const std::string& pred = pool[rng.UniformInt(pool.size())];
          step("clean_where " + pred, pred);
          break;
        }
        case 2: {
          // `clean 0` cleans by the top-ranked predicate of a debug. Once
          // the bad rows are gone the gesture may select nothing and the
          // debug find nothing; `clean 0` then fails.
          service.Execute("select_range a 20 1e9");
          service.Execute("metric too_high 12");
          const std::string debug = service.Execute("debug");
          const std::string key = "\"predicates\":[{\"predicate\":\"";
          const size_t at = debug.find(key);
          const std::string top =
              at == std::string::npos
                  ? ""
                  : debug.substr(at + key.size(),
                                 debug.find('"', at + key.size()) - at -
                                     key.size());
          step("clean 0", top);
          break;
        }
        case 3:
          step("undo");
          break;
        case 4:
          step(rng.Bernoulli(0.5) ? "reset" : "undo");
          break;
        default:
          step("append w " + std::to_string(rng.UniformInt(4u)) +
               (rng.Bernoulli(0.3) ? " bad 97.25" : " fine 10.75"));
          break;
      }
    }
    // A last clean makes the shown result current, so a snapshot (which
    // re-runs the session's cleaning against the final table) agrees.
    const std::string& last = pool[rng.UniformInt(pool.size())];
    step("clean_where " + last, last);
    state = StripRid(service.Execute("state"));
    EXPECT_EQ(JsonInt(state, "num_applied_predicates"),
              static_cast<long long>(applied.size()));
    ASSERT_TRUE(IsOk(service.Execute("snapshot save " + snap)));
  }

  Service recovered(MakeDb(), WalOptionsAt(dir));
  EXPECT_EQ(JsonInt(recovered.Execute("wal status"), "replay_errors"), 0);
  EXPECT_EQ(StripRid(recovered.Execute("state")), state);
  EXPECT_EQ(StripRid(recovered.Execute("result")), expected);

  Service restored(MakeDb());
  ASSERT_TRUE(IsOk(restored.Execute("snapshot load " + snap)));
  EXPECT_EQ(StripRid(restored.Execute("state")), state);
  EXPECT_EQ(StripRid(restored.Execute("result")), expected);
  std::remove(snap.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleaningSessionOracle,
                         ::testing::Values(3, 17, 29));

TEST(WalServiceTest, CheckpointTruncatesAndSkipsReplay) {
  const std::string dir = TempWalDir("svc_ckpt");
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    ASSERT_TRUE(IsOk(service.Execute(
        "sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
    ASSERT_TRUE(IsOk(service.Execute("shards w 4")));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(IsOk(service.Execute("append w 1 fine 10.0")));
    }
    const std::string before = service.Execute("wal status");
    ASSERT_GT(JsonInt(before, "wal_bytes"), 0) << before;

    const std::string ckpt = service.Execute("wal checkpoint");
    ASSERT_TRUE(IsOk(ckpt)) << ckpt;
    const std::string after = service.Execute("wal status");
    // Everything durable is now covered by the snapshot; the log is
    // one empty active segment.
    EXPECT_EQ(JsonInt(after, "snapshot_lsn"), JsonInt(after, "durable_lsn"));
    EXPECT_EQ(JsonInt(after, "segments"), 1) << after;
    EXPECT_EQ(JsonInt(after, "wal_bytes"), 0) << after;
  }
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    const std::string status = service.Execute("wal status");
    // Recovery came entirely from the snapshot — nothing to replay.
    EXPECT_EQ(JsonInt(status, "replayed"), 0) << status;
    EXPECT_EQ(JsonInt(status, "replay_errors"), 0) << status;
    const std::string append = service.Execute("append w 1 fine 10.0");
    ASSERT_TRUE(IsOk(append)) << append;
    EXPECT_EQ(JsonInt(append, "rows"), 171);  // 160 seed + 10 + this one
  }
}

TEST(WalServiceTest, AutoCheckpointFiresOnLogGrowth) {
  const std::string dir = TempWalDir("svc_autockpt");
  ServiceOptions options = WalOptionsAt(dir);
  options.wal.checkpoint_bytes = 512;  // tiny: a few appends trip it
  Service service(MakeDb(), options);
  ASSERT_TRUE(IsOk(service.Execute("shards w 4")));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(IsOk(service.Execute("append w 1 fine 10.0")));
  }
  const std::string status = service.Execute("wal status");
  EXPECT_GE(JsonInt(status, "checkpoints"), 1) << status;
  EXPECT_LT(JsonInt(status, "wal_bytes"), 2048) << status;
}

TEST(WalServiceTest, WalOnOffLifecycle) {
  const std::string dir = TempWalDir("svc_onoff");
  Service service(MakeDb());  // starts with the WAL off
  EXPECT_FALSE(JsonBool(service.Execute("wal status"), "enabled"));
  EXPECT_FALSE(IsOk(service.Execute("wal off")));  // already off

  ASSERT_TRUE(IsOk(service.Execute("wal on " + dir)));
  EXPECT_FALSE(IsOk(service.Execute("wal on " + dir)));  // already on
  ASSERT_TRUE(IsOk(service.Execute(
      "sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  // `wal off` seals the state into the snapshot before dropping the
  // log, so a later recovery from the same dir still sees everything.
  ASSERT_TRUE(IsOk(service.Execute("wal off")));
  EXPECT_FALSE(JsonBool(service.Execute("wal status"), "enabled"));

  Service recovered(MakeDb(), WalOptionsAt(dir));
  EXPECT_TRUE(JsonBool(recovered.Execute("state"), "has_result"));
  EXPECT_EQ(JsonInt(recovered.Execute("wal status"), "replay_errors"), 0);
}

TEST(WalServiceTest, UnknownSubcommandAndUsageErrors) {
  Service service(MakeDb());
  EXPECT_FALSE(IsOk(service.Execute("wal")));
  EXPECT_FALSE(IsOk(service.Execute("wal bogus")));
  EXPECT_FALSE(IsOk(service.Execute("wal on")));
  EXPECT_FALSE(IsOk(service.Execute("wal checkpoint")));  // off
}

TEST(WalServiceTest, WalAppendFailureReportsDurabilityLost) {
  const std::string dir = TempWalDir("svc_lost");
  FaultInjector faults;
  ServiceOptions options = WalOptionsAt(dir);
  options.wal.faults = &faults;
  Service service(MakeDb(), options);

  FaultInjector::Fault fault;
  fault.status = Status::IoError("injected EIO");
  fault.count = 1;
  faults.Arm("wal/write", fault);
  const std::string response =
      service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g");
  // The gray zone: applied in memory, not durable — and explicitly NOT
  // retryable (re-running would double-apply).
  EXPECT_FALSE(IsOk(response)) << response;
  EXPECT_NE(response.find("\"durability\": \"lost\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"applied\": true"), std::string::npos) << response;
  EXPECT_EQ(response.find("\"retryable\""), std::string::npos) << response;
  // Applied in memory:
  EXPECT_TRUE(JsonBool(service.Execute("state"), "has_result"));
}

TEST(WalServiceTest, SnapshotLoadCheckpointsUnderWal) {
  const std::string wal_dir = TempWalDir("svc_load");
  const std::string snap_path =
      ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_world.dbw";
  // Build a snapshot of a populated world with the WAL off.
  {
    Service service(MakeDb());
    ASSERT_TRUE(IsOk(service.Execute(
        "sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
    ASSERT_TRUE(IsOk(service.Execute("snapshot save " + snap_path)));
  }
  // Load it into a WAL-enabled service: the load must checkpoint so
  // the log base matches the new world...
  {
    Service service(MakeDb(), WalOptionsAt(wal_dir));
    ASSERT_TRUE(IsOk(service.Execute("snapshot load " + snap_path)));
    EXPECT_GE(JsonInt(service.Execute("wal status"), "checkpoints"), 1);
  }
  // ...and a restart recovers the LOADED world, not the constructor's.
  {
    Service service(MakeDb(), WalOptionsAt(wal_dir));
    EXPECT_TRUE(JsonBool(service.Execute("state"), "has_result"));
  }
  std::remove(snap_path.c_str());
}

TEST(WalServiceTest, RetrySettingsSurviveCheckpointTruncation) {
  const std::string dir = TempWalDir("svc_retry");
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    ASSERT_TRUE(IsOk(service.Execute("retry 7 33.5")));
    // The checkpoint truncates the logged `retry` record — the
    // snapshot itself must carry the knobs (v3 fields).
    ASSERT_TRUE(IsOk(service.Execute("wal checkpoint")));
  }
  {
    Service service(MakeDb(), WalOptionsAt(dir));
    ASSERT_EQ(JsonInt(service.Execute("wal status"), "replayed"), 0);
    // `retry off` echoes by resetting max_attempts to 1; to observe the
    // recovered value we snapshot the service state directly.
    ServiceSnapshot snapshot;
    const std::string probe =
        ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_probe.dbw";
    ASSERT_TRUE(IsOk(service.Execute("snapshot save " + probe)));
    auto read = ReadSnapshot(probe);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->retry_max_attempts, 7u);
    EXPECT_DOUBLE_EQ(read->retry_backoff_ms, 33.5);
    std::remove(probe.c_str());
  }
}

TEST(WalServiceTest, ConcurrentClientsShareGroupCommitFsyncs) {
  const std::string dir = TempWalDir("svc_group");
  FaultInjector faults;
  // Make each fsync visibly slow so commits queue up behind the
  // in-flight one; the service must stage under its ordering lock but
  // wait OUTSIDE it, or clients serialize and fsyncs/append stays 1.
  FaultInjector::Fault slow;
  slow.latency_ms = 2.0;
  slow.count = 0;  // every fsync
  faults.Arm("wal/fsync", slow);
  ServiceOptions options = WalOptionsAt(dir);
  options.wal.faults = &faults;
  Service service(MakeDb(), options);
  ASSERT_TRUE(IsOk(service.Execute("shards w 4")));

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 25;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service] {
      for (size_t i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(IsOk(service.Execute("append w 1 fine 10.0")));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const std::string status = service.Execute("wal status");
  const long long appends = JsonInt(status, "appends");
  const long long fsyncs = JsonInt(status, "fsyncs");
  EXPECT_GE(appends, static_cast<long long>(kThreads * kPerThread)) << status;
  EXPECT_LT(fsyncs, appends) << status;

  // And every acknowledged append survives a restart.
  Service recovered(MakeDb(), WalOptionsAt(dir));
  const std::string append = recovered.Execute("append w 1 fine 10.0");
  ASSERT_TRUE(IsOk(append)) << append;
  EXPECT_EQ(JsonInt(append, "rows"),
            static_cast<long long>(160 + kThreads * kPerThread + 1));
}

}  // namespace
}  // namespace dbwipes
