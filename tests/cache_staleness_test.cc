// MatchEngine snapshot-staleness under a concurrent append-then-match
// workload. The engine's contract is epoch-style: bitmaps are valid for
// the table size at construction; any growth makes every subsequent
// call fail with the stale-cache error until the engine is rebuilt.
// This test drives an appender thread against matcher threads (table
// access serialized by a mutex, as the engine requires of its callers)
// and asserts each match observes exactly one epoch — the snapshot's
// bitmap or the stale error, never a torn in-between. The tsan preset
// runs this binary to certify the locking discipline.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/expr/match_kernels.h"

namespace dbwipes {
namespace {

/// v = row index, so the count of "v < cut" over a prefix universe is
/// exactly min(cut, universe size) — a closed-form oracle per epoch.
void AppendRows(Table* table, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    DBW_CHECK_OK(table->AppendRow(
        {Value(static_cast<double>(table->num_rows()))}));
  }
}

std::vector<RowId> AllRows(const Table& table) {
  std::vector<RowId> rows(table.num_rows());
  for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
  return rows;
}

TEST(CacheStalenessTest, GrowthInvalidatesEveryEntryPoint) {
  Table table(Schema{{"v", DataType::kDouble}}, "t");
  AppendRows(&table, 100);
  MatchEngine engine(table, AllRows(table));
  const Predicate pred({Clause::Make("v", CompareOp::kLt, Value(50.0))});
  ASSERT_TRUE(engine.Materialize({&pred}).ok());
  EXPECT_EQ(engine.MatchPrepared(pred)->CountOnes(), 50u);

  AppendRows(&table, 1);
  for (const Status& st : {engine.Materialize({&pred}),
                           engine.MatchPrepared(pred).status(),
                           engine.Match(pred).status(),
                           engine.ClauseBitmap(pred.clauses()[0]).status()}) {
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("stale"), std::string::npos)
        << st.ToString();
  }
}

TEST(CacheStalenessTest, ConcurrentAppendThenMaterializeSeesOneEpoch) {
  Table table(Schema{{"v", DataType::kDouble}}, "t");
  AppendRows(&table, 256);

  // Table and engines share one mutex: the engine documents that its
  // callers serialize cache mutation against table growth; what it
  // promises in return — and what this test checks from 4 threads —
  // is that a serialized caller can never read a half-updated cache:
  // each operation lands wholly before or wholly after each append.
  std::mutex mu;
  std::atomic<bool> stop{false};
  std::atomic<size_t> stale_hits{0}, epoch_hits{0}, failures{0};
  // Start handshake: appends begin only once the prober has built its
  // engine and each of the 3 matchers has finished one iteration, so
  // every thread sees the first epoch whatever the thread start order.
  std::atomic<int> ready{0};

  std::thread appender([&] {
    while (ready.load() < 4) std::this_thread::yield();
    for (int i = 0; i < 200 && !stop.load(); ++i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        AppendRows(&table, 8);
      }
      std::this_thread::yield();
    }
    stop.store(true);
  });

  std::vector<std::thread> matchers;
  for (int t = 0; t < 3; ++t) {
    matchers.emplace_back([&] {
      const Predicate pred(
          {Clause::Make("v", CompareOp::kLt, Value(100.0))});
      for (bool first = true; !stop.load(); first = false) {
        std::lock_guard<std::mutex> lock(mu);
        // Build a snapshot engine, then match; an append slips in
        // between only across iterations, so the count must equal the
        // *build-time* epoch exactly (never a blend of two sizes).
        MatchEngine engine(table, AllRows(table));
        const size_t built = engine.rows().size();
        auto bm = engine.Match(pred);
        if (!bm.ok()) {
          failures.fetch_add(1);
        } else if (bm->num_bits() != built ||
                   bm->CountOnes() != std::min<size_t>(built, 100)) {
          failures.fetch_add(1);
        } else {
          epoch_hits.fetch_add(1);
        }
        if (first) ready.fetch_add(1);
      }
    });
  }

  // One long-lived engine probing for staleness: every call after any
  // append must be the stale error, never a wrong-sized bitmap.
  std::thread stale_prober([&] {
    std::unique_lock<std::mutex> lock(mu);
    MatchEngine engine(table, AllRows(table));
    const size_t built = engine.rows().size();
    const Predicate pred(
        {Clause::Make("v", CompareOp::kLt, Value(100.0))});
    DBW_CHECK_OK(engine.Materialize({&pred}));
    lock.unlock();
    ready.fetch_add(1);
    auto probe = [&] {
      std::lock_guard<std::mutex> guard(mu);
      const size_t now = table.num_rows();
      auto bm = engine.Match(pred);
      if (now != built) {
        // Grown table: stale error is the only acceptable answer.
        if (bm.ok()) failures.fetch_add(1);
        if (bm.status().ToString().find("stale") != std::string::npos) {
          stale_hits.fetch_add(1);
        }
      } else if (!bm.ok() || bm->num_bits() != built) {
        failures.fetch_add(1);
      }
    };
    while (!stop.load()) {
      probe();
      std::this_thread::yield();
    }
    // The appender has finished, so the table has grown: this probe
    // must return the stale error.
    probe();
  });

  appender.join();
  for (std::thread& t : matchers) t.join();
  stale_prober.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(epoch_hits.load(), 0u);
  EXPECT_GT(stale_hits.load(), 0u) << "prober never saw the grown table";
}

TEST(CacheStalenessTest, InterruptedMaterializeLeavesNoTornCacheEntries) {
  // A Materialize wound down mid-scan (deadline) must roll its fresh
  // entries back: a later unrestricted Materialize then produces the
  // same bitmaps as a never-interrupted engine.
  Table table(Schema{{"v", DataType::kDouble}}, "t");
  AppendRows(&table, 5000);
  std::vector<const Predicate*> preds;
  std::vector<Predicate> storage;
  storage.reserve(64);
  for (int i = 0; i < 64; ++i) {
    storage.push_back(Predicate(
        {Clause::Make("v", CompareOp::kLt, Value(static_cast<double>(i)))}));
  }
  for (const Predicate& p : storage) preds.push_back(&p);

  MatchEngine interrupted(table, AllRows(table));
  ExecContext ctx;
  ctx.deadline = Deadline::After(-1.0);  // expires instantly
  ParallelOptions popts;
  popts.ctx = &ctx;
  Status st = interrupted.Materialize(preds, popts);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInterrupt()) << st.ToString();
  EXPECT_EQ(interrupted.num_cached_clauses(), 0u)
      << "interrupted scan left partially-filled bitmaps cached";

  // Same engine, no interruption: results match a clean engine's.
  ASSERT_TRUE(interrupted.Materialize(preds).ok());
  MatchEngine clean(table, AllRows(table));
  ASSERT_TRUE(clean.Materialize(preds).ok());
  for (const Predicate* p : preds) {
    auto a = interrupted.MatchPrepared(*p);
    auto b = clean.MatchPrepared(*p);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->CountOnes(), b->CountOnes());
  }
}

}  // namespace
}  // namespace dbwipes
