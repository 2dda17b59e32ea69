// WriteAheadLog unit tests: append/replay round-trip, reopen, the
// torn-tail matrix (truncation at every byte of the final frame plus
// bit flips must recover exactly the undamaged prefix), segment
// rotation and checkpoint truncation, and the failure paths — EIO on
// write, short writes, fsync failure — all of which must restore the
// log to its last durable state and keep LSNs contiguous. FAULTS
// label: the failure matrix runs under the sanitizer presets too.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/storage/wal.h"

namespace dbwipes {
namespace {

std::string TempWalDir(const std::string& name) {
  // PID-qualified so concurrently running test binaries (e.g. two
  // sanitizer presets of this suite) never share a directory.
  const std::string dir = ::testing::TempDir() + "/" +
                          std::to_string(::getpid()) + "_" + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::pair<uint64_t, std::string>> ReplayAll(
    const WriteAheadLog& wal, uint64_t after_lsn = 0) {
  std::vector<std::pair<uint64_t, std::string>> out;
  Status st = wal.ReplayDurable(
      after_lsn,
      [&](uint64_t lsn, uint64_t /*rid*/, uint8_t type,
          const std::string& body) {
        EXPECT_EQ(type, WriteAheadLog::kRecordCommand);
        out.emplace_back(lsn, body);
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string dir = TempWalDir("roundtrip");
  auto wal = WriteAheadLog::Open({.dir = dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  for (int i = 0; i < 20; ++i) {
    auto lsn = (*wal)->AppendCommand("cmd " + std::to_string(i));
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ((*wal)->durable_lsn(), 20u);
  EXPECT_EQ((*wal)->next_lsn(), 21u);

  auto records = ReplayAll(**wal);
  ASSERT_EQ(records.size(), 20u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].first, i + 1);
    EXPECT_EQ(records[i].second, "cmd " + std::to_string(i));
  }

  // Replay after an LSN skips exactly the prefix.
  auto tail = ReplayAll(**wal, 15);
  ASSERT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail.front().first, 16u);
}

TEST(WalTest, ReopenResumesLsnSequence) {
  const std::string dir = TempWalDir("reopen");
  {
    auto wal = WriteAheadLog::Open({.dir = dir});
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*wal)->AppendCommand("a " + std::to_string(i)).ok());
    }
  }
  auto wal = WriteAheadLog::Open({.dir = dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->durable_lsn(), 5u);
  auto lsn = (*wal)->AppendCommand("after reopen");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 6u);
  EXPECT_EQ(ReplayAll(**wal).size(), 6u);
}

TEST(WalTest, EmptyBodyAndLargeBodyRoundTrip) {
  const std::string dir = TempWalDir("bodies");
  auto wal = WriteAheadLog::Open({.dir = dir});
  ASSERT_TRUE(wal.ok());
  const std::string big(100000, 'x');
  ASSERT_TRUE((*wal)->AppendCommand("").ok());
  ASSERT_TRUE((*wal)->AppendCommand(big).ok());
  auto records = ReplayAll(**wal);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].second, "");
  EXPECT_EQ(records[1].second, big);
}

// A crash mid-write leaves a torn tail: for EVERY truncation point
// inside the final frame, reopen must recover exactly the records
// before it — never an error, never a phantom record.
TEST(WalTest, TornTailTruncationMatrix) {
  const std::string base = TempWalDir("torn");
  // Build a reference log once, copy the bytes.
  std::string segment_path;
  std::string full_bytes;
  size_t bytes_before_last = 0;
  {
    auto wal = WriteAheadLog::Open({.dir = base});
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*wal)->AppendCommand("record " + std::to_string(i)).ok());
    }
    segment_path = base + "/wal-00000001.log";
    std::string without_last = ReadFileBytes(segment_path);
    bytes_before_last = without_last.size();
    ASSERT_TRUE((*wal)->AppendCommand("the last record").ok());
    full_bytes = ReadFileBytes(segment_path);
  }
  ASSERT_GT(full_bytes.size(), bytes_before_last);

  for (size_t cut = bytes_before_last; cut < full_bytes.size(); ++cut) {
    WriteFileBytes(segment_path, full_bytes.substr(0, cut));
    auto wal = WriteAheadLog::Open({.dir = base});
    ASSERT_TRUE(wal.ok()) << "cut at " << cut << ": "
                          << wal.status().ToString();
    auto records = ReplayAll(**wal);
    ASSERT_EQ(records.size(), 4u) << "cut at " << cut;
    EXPECT_EQ((*wal)->durable_lsn(), 4u);
    // The log stays appendable after truncating the tear.
    auto lsn = (*wal)->AppendCommand("replacement");
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 5u);
  }
}

// A bit flip in the ACTIVE (last) segment is indistinguishable from a
// torn write — recover the prefix before it. The same damage in a
// SEALED segment is real corruption (its commits were acknowledged as
// durable) and must refuse to open rather than silently drop records.
TEST(WalTest, BitFlipInLastSegmentTruncatesSealedRefuses) {
  const std::string base = TempWalDir("bitflip");
  {
    auto wal = WriteAheadLog::Open({.dir = base});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendCommand("first record").ok());
    ASSERT_TRUE((*wal)->AppendCommand("second record").ok());
    ASSERT_TRUE((*wal)->Rotate().ok());
    ASSERT_TRUE((*wal)->AppendCommand("third record").ok());
  }
  const std::string sealed = base + "/wal-00000001.log";
  const std::string active = base + "/wal-00000002.log";
  const std::string sealed_bytes = ReadFileBytes(sealed);
  const std::string active_bytes = ReadFileBytes(active);

  {
    // Flip a byte inside the active segment's record body.
    std::string damaged = active_bytes;
    damaged[active_bytes.size() - 3] ^= 0x40;
    WriteFileBytes(active, damaged);
    auto wal = WriteAheadLog::Open({.dir = base});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(ReplayAll(**wal).size(), 2u);
    EXPECT_EQ((*wal)->durable_lsn(), 2u);
    WriteFileBytes(active, active_bytes);  // restore for the next case
  }
  {
    // The same flip in the SEALED segment: refuse.
    std::string damaged = sealed_bytes;
    damaged[sealed_bytes.size() - 3] ^= 0x40;
    WriteFileBytes(sealed, damaged);
    auto wal = WriteAheadLog::Open({.dir = base});
    EXPECT_FALSE(wal.ok());
  }
}

TEST(WalTest, RotationSplitsSegmentsAndReplayCrossesThem) {
  const std::string dir = TempWalDir("rotate");
  // Tiny segments force a roll every couple of records.
  auto wal = WriteAheadLog::Open({.dir = dir, .segment_bytes = 64});
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*wal)->AppendCommand("payload number " + std::to_string(i))
                    .ok());
  }
  EXPECT_GT((*wal)->num_segments(), 2u);
  auto records = ReplayAll(**wal);
  ASSERT_EQ(records.size(), 12u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].first, i + 1);  // contiguous across segments
  }

  // Reopen with multiple segments on disk.
  wal->reset();
  auto reopened = WriteAheadLog::Open({.dir = dir, .segment_bytes = 64});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->durable_lsn(), 12u);
  EXPECT_EQ(ReplayAll(**reopened).size(), 12u);
}

TEST(WalTest, TruncateThroughDropsOnlyCoveredClosedSegments) {
  const std::string dir = TempWalDir("truncate");
  auto wal = WriteAheadLog::Open({.dir = dir, .segment_bytes = 64});
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*wal)->AppendCommand("payload number " + std::to_string(i))
                    .ok());
  }
  const size_t before = (*wal)->num_segments();
  ASSERT_GT(before, 2u);

  // A checkpoint through LSN 4 may only drop segments whose records
  // are ALL <= 4; everything after must still replay.
  ASSERT_TRUE((*wal)->TruncateThrough(4).ok());
  auto records = ReplayAll(**wal, 4);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().first, 5u);
  EXPECT_EQ(records.back().first, 10u);

  // Rotate + truncate-everything retires all closed segments.
  ASSERT_TRUE((*wal)->Rotate().ok());
  ASSERT_TRUE((*wal)->TruncateThrough((*wal)->durable_lsn()).ok());
  EXPECT_EQ((*wal)->num_segments(), 1u);
  EXPECT_TRUE(ReplayAll(**wal, (*wal)->durable_lsn()).empty());

  // The dropped prefix is really gone from disk, and reopen is clean.
  wal->reset();
  auto reopened = WriteAheadLog::Open({.dir = dir, .segment_bytes = 64});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->durable_lsn(), 10u);
  auto lsn = (*reopened)->AppendCommand("post truncate");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 11u);
}

TEST(WalTest, MissingTailSegmentHeaderIsDiscarded) {
  const std::string dir = TempWalDir("stubtail");
  {
    auto wal = WriteAheadLog::Open({.dir = dir});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendCommand("kept").ok());
  }
  // A crash between segment creation and its header write leaves a
  // zero-length (or stub) file: discard it, keep the valid prefix.
  WriteFileBytes(dir + "/wal-00000002.log", "");
  auto wal = WriteAheadLog::Open({.dir = dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->durable_lsn(), 1u);
  EXPECT_EQ(ReplayAll(**wal).size(), 1u);
}

TEST(WalTest, OlderFormatVersionIsRefusedNotDeleted) {
  const std::string dir = TempWalDir("v1refuse");
  std::system(("mkdir -p '" + dir + "'").c_str());
  // A single-segment log written by the previous on-disk format: a
  // complete "DBWWAL1" header followed by records this reader cannot
  // parse. It is the LAST (only) segment, the position the
  // crash-during-creation cleanup targets — but it holds durable
  // commits, so Open must refuse, not silently delete it.
  std::string v1 = std::string("DBWWAL1", 7) + std::string(1, '\0');
  v1 += std::string(1, '\x01') + std::string(7, '\0');  // base lsn 1
  v1 += "opaque v1 record bytes";
  const std::string path = dir + "/wal-00000001.log";
  WriteFileBytes(path, v1);

  auto wal = WriteAheadLog::Open({.dir = dir});
  ASSERT_FALSE(wal.ok());
  EXPECT_NE(wal.status().ToString().find("unsupported"), std::string::npos)
      << wal.status().ToString();
  // The old log survives byte-for-byte for explicit migration.
  EXPECT_EQ(ReadFileBytes(path), v1);
}

// --- Failure paths (armed I/O faults) ---

TEST(WalFaultsTest, WriteErrorRestoresAndLsnsStayContiguous) {
  const std::string dir = TempWalDir("eio");
  FaultInjector faults;
  auto wal = WriteAheadLog::Open({.dir = dir, .faults = &faults});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendCommand("before").ok());

  faults.ArmError("wal/write", Status::IoError("injected EIO"));
  auto failed = (*wal)->AppendCommand("lost");
  ASSERT_FALSE(failed.ok());
  faults.Disarm("wal/write");
  EXPECT_EQ((*wal)->durable_lsn(), 1u);
  EXPECT_FALSE((*wal)->stats().poisoned);

  // The failed record's LSN is reused — no gap, no phantom.
  auto lsn = (*wal)->AppendCommand("after");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
  auto records = ReplayAll(**wal);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].second, "after");

  // And the on-disk file agrees after reopen.
  wal->reset();
  auto reopened = WriteAheadLog::Open({.dir = dir});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->durable_lsn(), 2u);
}

TEST(WalFaultsTest, ShortWriteIsTruncatedAwayNotReplayed) {
  const std::string dir = TempWalDir("shortwrite");
  FaultInjector faults;
  auto wal = WriteAheadLog::Open({.dir = dir, .faults = &faults});
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendCommand("durable one").ok());

  FaultInjector::Fault fault;
  fault.status = Status::IoError("disk full");
  fault.short_write_limit = 7;  // a few bytes of the frame land
  fault.count = 1;
  faults.Arm("wal/write", fault);
  ASSERT_FALSE((*wal)->AppendCommand("torn record").ok());

  // In-process restore truncated the partial frame...
  auto lsn = (*wal)->AppendCommand("durable two");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
  auto records = ReplayAll(**wal);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].second, "durable two");
}

TEST(WalFaultsTest, ShortWriteThenCrashLeavesRecoverableTear) {
  const std::string dir = TempWalDir("shortcrash");
  std::string segment_path = dir + "/wal-00000001.log";
  std::string durable_bytes;
  {
    FaultInjector faults;
    auto wal = WriteAheadLog::Open({.dir = dir, .faults = &faults});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendCommand("durable one").ok());
    durable_bytes = ReadFileBytes(segment_path);

    // Simulate the crash half only: let the partial frame land, fail
    // the append, then throw the WAL away WITHOUT its restore running
    // against disk state (reopen is what a real crash sees).
    FaultInjector::Fault fault;
    fault.status = Status::IoError("power cut");
    fault.short_write_limit = 9;
    fault.count = 1;
    faults.Arm("wal/write", fault);
    ASSERT_FALSE((*wal)->AppendCommand("torn record").ok());
  }
  // Re-create the torn state (restore may have cleaned it in-process):
  // durable prefix + garbage tail, exactly what the kill matrix makes.
  std::string torn = durable_bytes + std::string(9, '\xAB');
  WriteFileBytes(segment_path, torn);
  auto wal = WriteAheadLog::Open({.dir = dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  auto records = ReplayAll(**wal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "durable one");
}

TEST(WalFaultsTest, FsyncFailureFailsTheBatchButNotTheLog) {
  const std::string dir = TempWalDir("fsyncfail");
  FaultInjector faults;
  auto wal = WriteAheadLog::Open({.dir = dir, .faults = &faults});
  ASSERT_TRUE(wal.ok());

  FaultInjector::Fault fault;
  fault.status = Status::IoError("fsync: I/O error");
  fault.count = 1;
  faults.Arm("wal/fsync", fault);
  ASSERT_FALSE((*wal)->AppendCommand("not durable").ok());
  EXPECT_EQ((*wal)->durable_lsn(), 0u);
  EXPECT_FALSE((*wal)->stats().poisoned);

  auto lsn = (*wal)->AppendCommand("durable");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 1u);
  auto records = ReplayAll(**wal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "durable");
}

TEST(WalFaultsTest, OpenFaultSurfacesCleanly) {
  const std::string dir = TempWalDir("openfault");
  FaultInjector faults;
  faults.ArmError("wal/open", Status::IoError("mount is read-only"));
  auto wal = WriteAheadLog::Open({.dir = dir, .faults = &faults});
  EXPECT_FALSE(wal.ok());
}

// Concurrent appenders group-commit: with a slow fsync, N appends
// complete with far fewer than N fsyncs, and every LSN is unique,
// contiguous, and durable.
TEST(WalFaultsTest, GroupCommitBatchesConcurrentAppends) {
  const std::string dir = TempWalDir("groupcommit");
  FaultInjector faults;
  FaultInjector::Fault slow;
  slow.latency_ms = 2.0;  // widen the window so followers pile up
  faults.Arm("wal/fsync", slow);
  auto wal = WriteAheadLog::Open({.dir = dir, .faults = &faults});
  ASSERT_TRUE(wal.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = (*wal)->AppendCommand("t" + std::to_string(t) + " i" +
                                         std::to_string(i));
        if (!lsn.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  const WalStats stats = (*wal)->stats();
  EXPECT_EQ(stats.appends, static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.durable_lsn, static_cast<uint64_t>(kThreads * kPerThread));
  // The whole point of group commit: far fewer fsyncs than appends.
  EXPECT_LT(stats.fsyncs, stats.appends);

  auto records = ReplayAll(**wal);
  ASSERT_EQ(records.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].first, i + 1);
  }
}

}  // namespace
}  // namespace dbwipes
