// Shard concurrency stress: appends racing shard-parallel explains and
// a cleaning session. The ShardSet's reader/writer lease is the whole
// locking story — an explain or a clean holds one read lease end to
// end, an append takes the writer side — so every reader must observe
// a single consistent world and every response must be well-formed,
// under the tsan preset too (the stress ctest label is what the tsan
// stage runs).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dbwipes/common/random.h"
#include "dbwipes/core/dbwipes.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/service.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {
namespace {

std::shared_ptr<Table> MakeTable(size_t rows) {
  Rng rng(17);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (size_t r = 0; r < rows; ++r) {
    const int64_t g = static_cast<int64_t>(r % 4);
    const bool bad = g >= 2 && rng.Bernoulli(0.2);
    DBW_CHECK_OK(t->AppendRow({Value(g), Value(bad ? "bad" : "fine"),
                               Value(bad ? rng.Normal(100, 2)
                                         : rng.Normal(10, 2))}));
  }
  return t;
}

TEST(ShardStressTest, ConcurrentAppendsAndExplains) {
  auto table = MakeTable(240);
  auto db = std::make_shared<Database>();
  db->RegisterTable(table);
  auto set = *ShardSet::Create(*table, 4);
  db->RegisterShardSet("w", set);
  DBWipes engine(db);

  // One result up front: its lineage stays valid as the table only
  // grows, so explains and appends can overlap freely.
  QueryResult result = *engine.Query("SELECT g, avg(v) AS a FROM w GROUP BY g");
  ExplanationRequest request;
  request.selected_groups = {2, 3};
  request.metric = TooHigh(15.0);

  std::atomic<bool> done{false};
  std::atomic<size_t> appended{0}, explained{0};
  // Start handshake: appends begin only once both explainers are inside
  // their loop, so every explainer runs at least one Explain whatever
  // the thread start order.
  std::atomic<int> explainers_in_loop{0};

  std::thread appender([&] {
    while (explainers_in_loop.load() < 2) std::this_thread::yield();
    Rng rng(99);
    for (int i = 0; i < 120; ++i) {
      const int64_t g = static_cast<int64_t>(i % 4);
      ASSERT_TRUE(set->Append({Value(g), Value("fine"),
                               Value(rng.Normal(10, 2))})
                      .ok());
      appended.fetch_add(1);
      std::this_thread::yield();
    }
    done.store(true);
  });

  std::vector<std::thread> explainers;
  for (int t = 0; t < 2; ++t) {
    explainers.emplace_back([&] {
      for (bool first = true; !done.load(); first = false) {
        if (first) explainers_in_loop.fetch_add(1);
        auto exp = engine.Explain(result, request);
        ASSERT_TRUE(exp.ok()) << exp.status().ToString();
        ASSERT_FALSE(exp->predicates.empty());
        explained.fetch_add(1);
      }
    });
  }

  appender.join();
  for (std::thread& t : explainers) t.join();
  EXPECT_EQ(appended.load(), 120u);
  EXPECT_GT(explained.load(), 0u);

  // The world is quiet again: a final explain still nails the anomaly,
  // and at most the tail shard went cold from the appends.
  Explanation final_exp = *engine.Explain(result, request);
  ASSERT_FALSE(final_exp.predicates.empty());
  EXPECT_NE(final_exp.predicates[0].predicate.ToString().find("tag = 'bad'"),
            std::string::npos)
      << final_exp.predicates[0].predicate.ToString();
  Explanation warm = *engine.Explain(result, request);
  ASSERT_EQ(warm.profile.shards.size(), 4u);
  for (const ExplainProfile::ShardLane& lane : warm.profile.shards) {
    EXPECT_EQ(lane.cache_misses, 0u) << "lane " << lane.shard_index;
  }
}

TEST(ShardStressTest, ServiceAppendStatsAndDebugConcurrently) {
  auto db = std::make_shared<Database>();
  db->RegisterTable(MakeTable(240));
  Service service(db);
  ASSERT_NE(service.Execute("shards w 4").find("\"ok\": true"),
            std::string::npos);
  for (const char* cmd : {"sql SELECT g, avg(v) AS a FROM w GROUP BY g",
                          "select_groups 2 3", "metric too_high 15"}) {
    ASSERT_NE(service.Execute(cmd).find("\"ok\": true"), std::string::npos)
        << cmd;
  }

  std::atomic<bool> done{false};
  std::thread appender([&] {
    for (int i = 0; i < 80; ++i) {
      const std::string out =
          service.Execute("append w " + std::to_string(i % 4) + " fine 10.5");
      ASSERT_NE(out.find("\"ok\": true"), std::string::npos) << out;
      std::this_thread::yield();
    }
    done.store(true);
  });
  std::thread stats_poller([&] {
    while (!done.load()) {
      const std::string out = service.Execute("stats");
      ASSERT_NE(out.find("\"ok\": true"), std::string::npos) << out;
      ASSERT_NE(out.find("\"w\": {\"count\": 4"), std::string::npos) << out;
      std::this_thread::yield();
    }
  });
  std::thread debugger([&] {
    while (!done.load()) {
      const std::string out = service.Execute("debug");
      ASSERT_NE(out.find("\"ok\": true"), std::string::npos) << out;
    }
  });

  appender.join();
  stats_poller.join();
  debugger.join();

  // All 80 appends landed in the tail shard.
  const std::string stats = service.Execute("stats");
  EXPECT_NE(stats.find("\"appends\": 80"), std::string::npos) << stats;
}

/// The `result` payload of a Service `result` reply.
std::string ResultPayload(const std::string& reply) {
  const std::string key = "\"result\": ";
  const size_t at = reply.find(key);
  if (at == std::string::npos) return reply;
  return reply.substr(at + key.size(), reply.size() - at - key.size() - 1);
}

// Cleaning beside appends: one session loops clean_where/undo/reset on
// a sharded table while two threads append. Each clean checks that its
// result is current and deletes from the lineage under one read lease,
// so every reply is ok; once the appenders stop, the shown result
// equals a fresh re-execution.
TEST(ShardStressTest, CleaningSessionBesideAppenders) {
  auto db = std::make_shared<Database>();
  db->RegisterTable(MakeTable(240));
  Service service(db);
  const std::string sql =
      "SELECT g, avg(v) AS a, count(*) AS n FROM w GROUP BY g";
  for (const std::string& cmd : {std::string("shards w 4"), "sql " + sql}) {
    ASSERT_NE(service.Execute(cmd).find("\"ok\": true"), std::string::npos)
        << cmd;
  }

  std::atomic<bool> cleaning{false};
  std::atomic<int> appenders_done{0};
  std::atomic<size_t> loops{0};
  std::vector<std::thread> appenders;
  for (int t = 0; t < 2; ++t) {
    appenders.emplace_back([&, t] {
      while (!cleaning.load()) std::this_thread::yield();
      for (int i = 0; i < 60; ++i) {
        const std::string out = service.Execute(
            "append w " + std::to_string((i + t) % 4) +
            (i % 5 == 0 ? " bad 101.5" : " fine 9.5"));
        ASSERT_NE(out.find("\"ok\": true"), std::string::npos) << out;
        std::this_thread::yield();
      }
      appenders_done.fetch_add(1);
    });
  }
  std::thread cleaner([&] {
    do {
      for (const char* cmd : {"clean_where tag = 'bad'", "clean_where v > 12",
                              "undo", "clean_where g = 1", "reset"}) {
        const std::string out = service.Execute(cmd);
        ASSERT_NE(out.find("\"ok\": true"), std::string::npos)
            << cmd << ": " << out;
      }
      loops.fetch_add(1);
      cleaning.store(true);
    } while (appenders_done.load() < 2);
  });
  for (std::thread& t : appenders) t.join();
  cleaner.join();
  EXPECT_GT(loops.load(), 0u);

  // The last `reset` may predate the last append; one more rebuilds.
  const AggregateQuery query = *ParseQuery(sql);
  const Predicate bad = *ParsePredicate("tag = 'bad'");
  ASSERT_NE(service.Execute("reset").find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(ResultPayload(service.Execute("result")),
            QueryResultToJson(*db->Execute(query), false));
  ASSERT_NE(service.Execute("clean_where tag = 'bad'").find("\"ok\": true"),
            std::string::npos);
  EXPECT_EQ(
      ResultPayload(service.Execute("result")),
      QueryResultToJson(*db->Execute(query.WithCleaningPredicate(bad)), false));
}

}  // namespace
}  // namespace dbwipes
