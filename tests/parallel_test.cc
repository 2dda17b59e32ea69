// Tests for the chunked thread pool (common/parallel.h) and the
// Bitmap substrate of the ranking fast path. The parallel tests are
// the ones a ThreadSanitizer build (cmake --preset tsan) exercises for
// data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "dbwipes/common/bitmap.h"
#include "dbwipes/common/exec_context.h"
#include "dbwipes/common/parallel.h"

namespace dbwipes {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 10007;  // prime, to exercise ragged chunk boundaries
  std::vector<std::atomic<int>> hits(n);
  ParallelForEach(0, n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, DeterministicAcrossThreadCounts) {
  const size_t n = 5000;
  auto run = [&](size_t threads) {
    std::vector<double> out(n);
    ParallelOptions opts;
    opts.num_threads = threads;
    opts.min_items_for_threading = 1;
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            out[i] = std::sqrt(static_cast<double>(i)) * 3.25;
          }
        },
        opts);
    return out;
  };
  const std::vector<double> serial = run(1);
  for (size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), serial) << threads << " threads";
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ParallelForEach(5, 5, [](size_t) { FAIL() << "empty range ran"; });
  int hits = 0;
  // Below min_items_for_threading: runs serially on the caller.
  ParallelForEach(0, 3, [&](size_t) { ++hits; });
  EXPECT_EQ(hits, 3);
}

TEST(ParallelForTest, NestedCallsDegradeToSerialNotDeadlock) {
  const size_t n = 64;
  std::vector<std::atomic<int>> hits(n * n);
  ParallelOptions opts;
  opts.min_items_for_threading = 1;
  ParallelForEach(
      0, n,
      [&](size_t i) {
        ParallelForEach(
            0, n, [&](size_t j) { hits[i * n + j].fetch_add(1); }, opts);
      },
      opts);
  for (size_t k = 0; k < n * n; ++k) ASSERT_EQ(hits[k].load(), 1);
}

TEST(ParallelForTest, PoolIsReusableAcrossManyCalls) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    ParallelOptions opts;
    opts.min_items_for_threading = 1;
    ParallelForEach(0, 100, [&](size_t i) { sum.fetch_add(i); }, opts);
    ASSERT_EQ(sum.load(), 4950u);
  }
}

TEST(ParallelForStatusTest, ReturnsLowestFailingIndex) {
  ParallelOptions opts;
  opts.min_items_for_threading = 1;
  for (int round = 0; round < 20; ++round) {
    Status st = ParallelForStatus(
        10000,
        [](size_t i) {
          if (i == 137 || i == 9000) {
            return Status::InvalidArgument("fail at " + std::to_string(i));
          }
          return Status::OK();
        },
        opts);
    ASSERT_FALSE(st.ok());
    // Deterministic: always the lowest failing index, regardless of
    // which thread hit its failure first.
    ASSERT_NE(st.ToString().find("fail at 137"), std::string::npos)
        << st.ToString();
  }
}

TEST(ParallelForStatusTest, AllOkReturnsOk) {
  EXPECT_TRUE(
      ParallelForStatus(1000, [](size_t) { return Status::OK(); }).ok());
  EXPECT_TRUE(ParallelForStatus(0, [](size_t) {
                return Status::InvalidArgument("never called");
              }).ok());
}

TEST(DefaultParallelismTest, AtLeastOne) {
  EXPECT_GE(DefaultParallelism(), 1u);
}

// ---------- task failure ----------

TEST(ThreadPoolFailureTest, ThrowingChunkRethrowsOnCallerAndSkipsRest) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  const size_t num_chunks = 1000;
  try {
    pool.Run(num_chunks, [&](size_t chunk) {
      if (chunk == 0) throw std::runtime_error("chunk 0 exploded");
      executed.fetch_add(1);
      // Slow the survivors so unclaimed chunks still exist when the
      // failure lands; sleeping (not spinning) yields the core so the
      // chunk-0 thread gets scheduled promptly even on one CPU.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    FAIL() << "Run swallowed the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0 exploded");
  }
  // The failure cancelled unclaimed chunks: nowhere near all of them
  // ran (in-flight ones were allowed to finish).
  EXPECT_LT(executed.load(), num_chunks - 1);
}

TEST(ThreadPoolFailureTest, LowestChunkExceptionWins) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.Run(100, [](size_t chunk) {
        if (chunk == 7 || chunk == 50) {
          throw std::runtime_error("chunk " + std::to_string(chunk));
        }
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      // 50 may be skipped once 7 fails, but never the other way round:
      // the surfaced error is the lowest-index one that actually threw.
      EXPECT_STREQ(e.what(), "chunk 7");
    }
  }
}

TEST(ThreadPoolFailureTest, PoolStaysUsableAfterFailure) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(
        pool.Run(64, [](size_t chunk) {
          if (chunk % 2 == 0) throw std::runtime_error("boom");
        }),
        std::runtime_error);
    std::atomic<size_t> sum{0};
    pool.Run(100, [&](size_t chunk) { sum.fetch_add(chunk); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ParallelForStatusTest, ThrowingBodySurfacesAsRuntimeError) {
  ParallelOptions opts;
  opts.min_items_for_threading = 1;
  Status st = ParallelForStatus(
      500,
      [](size_t i) -> Status {
        if (i == 250) throw std::runtime_error("scoring blew up");
        return Status::OK();
      },
      opts);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kRuntimeError);
  EXPECT_NE(st.ToString().find("scoring blew up"), std::string::npos)
      << st.ToString();
}

// ---------- cooperative stop ----------

TEST(ParallelForTest, CancelledContextSkipsRemainingChunks) {
  CancellationSource source;
  ExecContext ctx;
  ctx.token = source.token();
  ParallelOptions opts;
  opts.min_items_for_threading = 1;
  opts.ctx = &ctx;
  std::atomic<size_t> ran{0};
  ParallelForEach(
      0, 2000,
      [&](size_t i) {
        if (i == 0) source.Cancel("stop");
        ran.fetch_add(1);
        // Outlast the cancel's propagation so chunks that start after
        // it reliably observe the trip (in-flight chunks finish).
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      },
      opts);
  // Wound down within a chunk or two of the cancel, instead of
  // visiting all 2000 items.
  EXPECT_LT(ran.load(), 2000u);
}

TEST(ParallelForTest, PreCancelledContextRunsNothing) {
  CancellationSource source;
  source.Cancel("already dead");
  ExecContext ctx;
  ctx.token = source.token();
  ParallelOptions opts;
  opts.min_items_for_threading = 1;
  opts.ctx = &ctx;
  ParallelForEach(0, 100, [](size_t) { FAIL() << "chunk ran"; }, opts);
}

TEST(ParallelForStatusTest, ReportsContextInterrupt) {
  CancellationSource source;
  ExecContext ctx;
  ctx.token = source.token();
  ParallelOptions opts;
  opts.min_items_for_threading = 1;
  opts.ctx = &ctx;
  Status st = ParallelForStatus(
      10000,
      [&](size_t) {
        source.Cancel("mid-run");
        return Status::OK();
      },
      opts);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

/// Waits up to five seconds for `flag`; true once it is set.
bool AwaitFlag(const std::atomic<bool>& flag) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load() && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
  return flag.load();
}

TEST(TryRunBesideTest, SideRunsOnAWorkerWhileMainRunsOnTheCaller) {
  ThreadPool pool(2);
  std::atomic<bool> side_started{false};
  std::thread::id side_thread, main_thread;
  bool main_saw_side = false;
  ASSERT_TRUE(pool.TryRunBeside(
      [&] {
        side_thread = std::this_thread::get_id();
        side_started = true;
      },
      [&] {
        main_thread = std::this_thread::get_id();
        // `side` started while `main` runs, so a worker took it.
        main_saw_side = AwaitFlag(side_started);
      }));
  EXPECT_TRUE(main_saw_side);
  EXPECT_EQ(main_thread, std::this_thread::get_id());
  EXPECT_NE(side_thread, std::this_thread::get_id());
  // A ParallelFor inside `main` runs inline instead of waiting for the
  // region it is in.
  std::atomic<int> items{0};
  ASSERT_TRUE(pool.TryRunBeside([] {}, [&] {
    ParallelForEach(0, 1000, [&](size_t) { ++items; });
  }));
  EXPECT_EQ(items.load(), 1000);
}

TEST(TryRunBesideTest, RefusesWithoutAFreeWorker) {
  std::atomic<int> ran{0};
  ThreadPool no_workers(1);
  EXPECT_FALSE(no_workers.TryRunBeside([&] { ++ran; }, [&] { ++ran; }));

  ThreadPool pool(2);
  // From inside a region of the same pool.
  bool inside = true;
  pool.Run(1, [&](size_t) {
    inside = pool.TryRunBeside([&] { ++ran; }, [&] { ++ran; });
  });
  EXPECT_FALSE(inside);
  // While another thread's region runs.
  std::atomic<bool> in_region{false}, release{false};
  std::thread other([&] {
    pool.Run(1, [&](size_t) {
      in_region = true;
      AwaitFlag(release);
    });
  });
  ASSERT_TRUE(AwaitFlag(in_region));
  EXPECT_FALSE(pool.TryRunBeside([&] { ++ran; }, [&] { ++ran; }));
  release = true;
  other.join();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(pool.TryRunBeside([&] { ++ran; }, [&] { ++ran; }));
  EXPECT_EQ(ran.load(), 2);
}

/// `side` holds its own slot: a Run started by another thread while it
/// runs finishes without waiting for it, and a second TryRunBeside is
/// refused instead of queueing.
TEST(TryRunBesideTest, RunDoesNotWaitForSide) {
  ThreadPool pool(3);
  std::atomic<bool> side_started{false}, release{false}, run_done{false};
  std::atomic<int> chunks{0};
  bool second = true, side_started_in_time = false;
  bool run_done_in_time = false;
  std::thread other;
  ASSERT_TRUE(pool.TryRunBeside(
      [&] {
        side_started = true;
        AwaitFlag(release);
      },
      [&] {
        side_started_in_time = AwaitFlag(side_started);
        other = std::thread([&] {
          second = pool.TryRunBeside([] {}, [] {});
          pool.Run(8, [&](size_t) { ++chunks; });
          run_done = true;
        });
        run_done_in_time = AwaitFlag(run_done);
        release = true;
      }));
  other.join();
  EXPECT_TRUE(side_started_in_time);
  EXPECT_FALSE(second);
  EXPECT_TRUE(run_done_in_time);
  EXPECT_EQ(chunks.load(), 8);
}

TEST(TryRunBesideTest, ExceptionsReachTheCallerAfterBothFinish) {
  ThreadPool pool(2);
  std::atomic<bool> side_done{false};
  EXPECT_THROW(pool.TryRunBeside([&] { side_done = true; },
                                 [] { throw std::runtime_error("main"); }),
               std::runtime_error);
  EXPECT_TRUE(side_done.load());
  try {
    pool.TryRunBeside([] { throw std::logic_error("side"); }, [] {});
    ADD_FAILURE() << "no exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "side");
  }
  bool ran = false;
  EXPECT_TRUE(pool.TryRunBeside([&] { ran = true; }, [] {}));
  EXPECT_TRUE(ran);
}

TEST(BitmapTest, SetTestCount) {
  Bitmap bm(130);
  EXPECT_EQ(bm.num_bits(), 130u);
  EXPECT_EQ(bm.CountOnes(), 0u);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(129);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(129));
  EXPECT_FALSE(bm.Test(1));
  EXPECT_FALSE(bm.Test(128));
  EXPECT_EQ(bm.CountOnes(), 4u);
}

TEST(BitmapTest, CountAnd) {
  Bitmap a(200), b(200);
  for (size_t i = 0; i < 200; i += 2) a.Set(i);
  for (size_t i = 0; i < 200; i += 3) b.Set(i);
  size_t expect = 0;
  for (size_t i = 0; i < 200; i += 6) ++expect;
  EXPECT_EQ(a.CountAnd(b), expect);
}

TEST(BitmapTest, EqualityAndHash) {
  Bitmap a(100), b(100), c(101);
  a.Set(7);
  a.Set(70);
  b.Set(7);
  b.Set(70);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_FALSE(a == c);  // different sizes differ even when all-zero
  b.Set(71);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.Hash(), b.Hash());  // not guaranteed, but catastrophic if
                                  // these trivially collide
}

TEST(BitmapTest, ForEachSetAscending) {
  Bitmap bm(300);
  const std::vector<size_t> want = {0, 1, 63, 64, 65, 127, 128, 255, 299};
  for (size_t i : want) bm.Set(i);
  std::vector<size_t> got;
  bm.ForEachSet([&](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace dbwipes
