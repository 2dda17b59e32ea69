// Byte-pinning tests for every durable format: the snapshot file, the
// WAL segments, the replication epoch file and an encoded replication
// frame are built through the library from fixed inputs and compared
// with hex dumps under tests/golden/durable/. The round-trip tests
// elsewhere would pass a change to writer and reader together; these
// catch it, because files already on disk and peers already running
// hold the old bytes. The artifacts are built through the library, not
// through Service command lines, whose frames carry the process's
// request-id counter. Run with DBWIPES_UPDATE_GOLDEN=1 to re-record
// after an intended format change.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "dbwipes/core/snapshot.h"
#include "dbwipes/replication/replication.h"
#include "dbwipes/storage/wal.h"

#ifndef DBWIPES_GOLDEN_DIR
#define DBWIPES_GOLDEN_DIR "tests/golden"
#endif

namespace dbwipes {
namespace {

std::string TempDir(const std::string& name) {
  // PID-qualified so concurrently running test binaries (e.g. two
  // sanitizer presets of this suite) never share a directory.
  const std::string dir = ::testing::TempDir() + "/" +
                          std::to_string(::getpid()) + "_" + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// 16 bytes per line, each line led by its offset, so a failure names
/// the offset that drifted.
std::string HexDump(const std::string& bytes) {
  std::string out;
  char buf[24];
  for (size_t off = 0; off < bytes.size(); off += 16) {
    std::snprintf(buf, sizeof(buf), "%06zx", off);
    out += buf;
    for (size_t i = off; i < off + 16 && i < bytes.size(); ++i) {
      std::snprintf(buf, sizeof(buf), " %02x",
                    static_cast<unsigned char>(bytes[i]));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

/// Compares `bytes` with tests/golden/durable/<name>.hex, line by line.
void ExpectGoldenBytes(const std::string& name, const std::string& bytes) {
  const std::string path =
      std::string(DBWIPES_GOLDEN_DIR) + "/durable/" + name + ".hex";
  const std::string got = HexDump(bytes);
  if (std::getenv("DBWIPES_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << got;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with DBWIPES_UPDATE_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  std::istringstream want_lines(golden.str());
  std::istringstream got_lines(got);
  std::string want_line;
  std::string got_line;
  size_t line_no = 0;
  while (std::getline(want_lines, want_line)) {
    ++line_no;
    ASSERT_TRUE(std::getline(got_lines, got_line))
        << path << ":" << line_no << ": " << name << " is shorter";
    EXPECT_EQ(want_line, got_line) << path << ":" << line_no;
  }
  EXPECT_FALSE(std::getline(got_lines, got_line))
      << path << ": " << name << " has extra bytes from " << got_line;
}

/// Every section of the format and every cell kind: a NULL of each
/// type, a dictionary, a session with predicates, selections and a
/// metric, a shard layout, the checkpoint LSN and the retry knobs.
ServiceSnapshot FixedSnapshot() {
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  DBW_CHECK_OK(t->AppendRow({Value(int64_t{0}), Value("fine"), Value(10.5)}));
  DBW_CHECK_OK(t->AppendRow({Value(int64_t{1}), Value("bad"), Value(99.25)}));
  DBW_CHECK_OK(t->AppendRow({Value::Null(), Value("fine"), Value(-3.0)}));
  DBW_CHECK_OK(
      t->AppendRow({Value(int64_t{-7}), Value::Null(), Value::Null()}));

  ServiceSnapshot snap;
  snap.tables.emplace_back("w", t);

  ServiceSnapshot::SessionState s;
  s.name = "s1";
  s.settings.deadline_ms = 250.0;
  s.settings.profile_enabled = true;
  s.replay.original_sql = "SELECT g, sum(v) AS total FROM w GROUP BY g";
  s.replay.applied_predicates.push_back(
      Predicate({Clause::Make("tag", CompareOp::kEq, Value("bad")),
                 Clause::Make("v", CompareOp::kGt, Value(50.5))}));
  s.replay.applied_predicates.push_back(Predicate(
      {Clause::In("g", {Value(int64_t{1}), Value(int64_t{3})})}));
  s.replay.selected_groups = {1, 3};
  s.replay.selected_inputs = {0, 2};
  s.replay.has_metric = true;
  s.replay.metric_kind = "too_high";
  s.replay.metric_expected = 12.5;
  s.replay.agg_index = 0;
  snap.sessions.push_back(std::move(s));

  snap.shard_layouts.push_back({"w", {2, 2}});
  snap.wal_lsn = 42;
  snap.retry_max_attempts = 3;
  snap.retry_backoff_ms = 7.5;
  return snap;
}

constexpr const char* kBodies[] = {
    "sql SELECT g, sum(v) AS total FROM w GROUP BY g",
    "clean_where tag = 'bad'",
    "undo",
};
constexpr uint64_t kRids[] = {101, 102, 0};

TEST(DurableFormatTest, SnapshotFileBytes) {
  const std::string dir = TempDir("durable_snapshot");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string path = dir + "/snapshot.dbw";
  const Status st = WriteSnapshot(path, FixedSnapshot());
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectGoldenBytes("snapshot.dbw", ReadFile(path));
}

TEST(DurableFormatTest, WalSegmentBytes) {
  const std::string dir = TempDir("durable_wal");
  WalOptions options;
  options.dir = dir;
  auto wal = WriteAheadLog::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  // Two records in the first segment, then a sealed rotation so the
  // second segment's header carries a base LSN above 1.
  for (size_t i = 0; i < 2; ++i) {
    auto lsn = (*wal)->Append(WriteAheadLog::kRecordCommand, kBodies[i],
                              kRids[i]);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  }
  ASSERT_TRUE((*wal)->Rotate().ok());
  auto lsn = (*wal)->Append(WriteAheadLog::kRecordCommand, kBodies[2],
                            kRids[2]);
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  ASSERT_EQ(*lsn, 3u);
  ExpectGoldenBytes("wal-00000001.log", ReadFile(dir + "/wal-00000001.log"));
  ExpectGoldenBytes("wal-00000002.log", ReadFile(dir + "/wal-00000002.log"));
}

TEST(DurableFormatTest, ReplicationEpochFileBytes) {
  const std::string dir = TempDir("durable_epoch");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const Status st = StoreReplicationEpoch(dir, 7);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectGoldenBytes("repl-epoch", ReadFile(dir + "/repl-epoch"));
}

TEST(DurableFormatTest, ReplicationFrameBytes) {
  // The frame carries the checksum the WAL stored for the same record:
  // read it from the first record of a fresh log (its header is
  // [u32 body_len][u64 checksum] after the 16-byte segment header).
  const std::string dir = TempDir("durable_frame");
  WalOptions options;
  options.dir = dir;
  auto wal = WriteAheadLog::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(
      (*wal)->Append(WriteAheadLog::kRecordCommand, kBodies[0], kRids[0]).ok());
  const std::string segment = ReadFile(dir + "/wal-00000001.log");
  ASSERT_GE(segment.size(), 16u + 12u);
  uint64_t checksum = 0;
  std::memcpy(&checksum, segment.data() + 16 + 4, sizeof(checksum));

  ReplMessage frame;
  frame.type = ReplMsgType::kFrame;
  frame.a = 1;
  frame.b = kRids[0];
  frame.c = checksum;
  frame.payload = kBodies[0];
  ExpectGoldenBytes("frame", EncodeReplMessage(frame));
}

}  // namespace
}  // namespace dbwipes
