#include <gtest/gtest.h>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/random.h"
#include "dbwipes/core/service.h"

namespace dbwipes {
namespace {

std::shared_ptr<Database> MakeDb() {
  Rng rng(41);
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

bool IsOk(const std::string& json) {
  return json.find("\"ok\": true") != std::string::npos;
}

TEST(ServiceTest, FullProtocolFlow) {
  Service service(MakeDb());
  EXPECT_TRUE(IsOk(
      service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  // A malformed number is a usage error, not a silent default.
  EXPECT_FALSE(IsOk(service.Execute("select_groups 1 abc")));
  EXPECT_FALSE(IsOk(service.Execute("metric too_high 1 junk")));
  const std::string result = service.Execute("result");
  EXPECT_TRUE(IsOk(result));
  EXPECT_NE(result.find("\"columns\""), std::string::npos);

  const std::string selected = service.Execute("select_range a 20 1e9");
  EXPECT_TRUE(IsOk(selected));
  EXPECT_NE(selected.find("\"num_selected\": 2"), std::string::npos);

  EXPECT_TRUE(IsOk(service.Execute("inputs_where v > 50")));

  const std::string metrics = service.Execute("metrics");
  EXPECT_TRUE(IsOk(metrics));
  EXPECT_NE(metrics.find("values are too high"), std::string::npos);

  EXPECT_TRUE(IsOk(service.Execute("metric too_high 12")));

  const std::string debug = service.Execute("debug");
  EXPECT_TRUE(IsOk(debug));
  EXPECT_NE(debug.find("tag = 'bad'"), std::string::npos);
  EXPECT_NE(debug.find("\"explanation\""), std::string::npos);

  const std::string cleaned = service.Execute("clean 0");
  EXPECT_TRUE(IsOk(cleaned));
  EXPECT_NE(cleaned.find("NOT"), std::string::npos);

  const std::string state = service.Execute("state");
  EXPECT_NE(state.find("\"num_applied_predicates\": 1"), std::string::npos);

  EXPECT_TRUE(IsOk(service.Execute("undo")));
  EXPECT_TRUE(IsOk(service.Execute("clean_where tag = 'bad'")));
  EXPECT_TRUE(IsOk(service.Execute("reset")));
}

// The Figure 7 loop executes its query once: `clean` and `undo` work
// from the lineage the current result holds. A clean on a result that
// an append made stale re-executes.
TEST(ServiceTest, Figure7LoopExecutesTheQueryOnce) {
  Service service(MakeDb());
  ASSERT_TRUE(IsOk(service.Execute("shards w 2")));
  const MetricCounter* queries =
      MetricsRegistry::Global().GetCounter("sql.queries");
  for (int loop = 0; loop < 3; ++loop) {
    const uint64_t before = queries->value();
    for (const char* cmd :
         {"sql SELECT g, avg(v) AS a FROM w GROUP BY g",
          "select_range a 20 1e9", "inputs_where v > 50", "metric too_high 12",
          "debug", "clean 0", "result", "undo"}) {
      ASSERT_TRUE(IsOk(service.Execute(cmd))) << cmd;
    }
    EXPECT_EQ(queries->value() - before, 1u) << "loop " << loop;
  }

  ASSERT_TRUE(IsOk(service.Execute("append w 2 bad 99.5")));
  // Commands after the append, and the executions each one costs: the
  // stale result re-executes once, the re-executed one is current, and
  // the first undo re-runs the original query, whose result is stale
  // too.
  const std::pair<const char*, uint64_t> steps[] = {
      {"clean_where tag = 'bad'", 1}, {"clean_where v > 200", 0},
      {"undo", 1}, {"undo", 0}, {"reset", 0}};
  for (const auto& [cmd, executions] : steps) {
    const uint64_t before = queries->value();
    ASSERT_TRUE(IsOk(service.Execute(cmd))) << cmd;
    EXPECT_EQ(queries->value() - before, executions) << cmd;
  }
}

TEST(ServiceTest, ErrorsAreJsonNotCrashes) {
  Service service(MakeDb());
  for (const char* bad :
       {"", "bogus", "sql", "sql SELECT FROM nothing", "result",
        "select_range", "select_range a 1", "select_groups",
        "inputs_where v > 0", "metric", "metric nope 1", "debug",
        "clean", "clean 0", "clean_where", "clean_where a = 1 OR b = 2",
        "undo", "metrics", "retry 3 abc", "retry 3 1e999"}) {
    const std::string out = service.Execute(bad);
    EXPECT_NE(out.find("\"ok\": false"), std::string::npos) << bad;
    EXPECT_NE(out.find("\"error\""), std::string::npos) << bad;
  }
}

TEST(ServiceTest, MistypedRoutedCommandCreatesNoSession) {
  ServiceOptions options;
  options.sessions.max_sessions = 3;
  Service service(MakeDb(), options);
  for (const char* typo : {"@a bogus", "@b selec_range x 1 2", "@c bogus"}) {
    const std::string out = service.Execute(typo);
    EXPECT_NE(out.find("unknown command"), std::string::npos) << out;
  }
  const std::string sessions = service.Execute("session list");
  EXPECT_NE(sessions.find("\"main\""), std::string::npos) << sessions;
  for (const char* name : {"\"a\"", "\"b\"", "\"c\""}) {
    EXPECT_EQ(sessions.find(name), std::string::npos) << sessions;
  }
  EXPECT_TRUE(IsOk(
      service.Execute("@d sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
}

TEST(ServiceTest, SelectGroupsByIndex) {
  Service service(MakeDb());
  ASSERT_TRUE(IsOk(
      service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  const std::string out = service.Execute("select_groups 2 3");
  EXPECT_TRUE(IsOk(out));
  EXPECT_NE(out.find("\"num_selected\": 2"), std::string::npos);
  EXPECT_FALSE(IsOk(service.Execute("select_groups 99")));
}

TEST(ServiceTest, MetricKinds) {
  Service service(MakeDb());
  ASSERT_TRUE(IsOk(
      service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  ASSERT_TRUE(IsOk(service.Execute("select_groups 2")));
  for (const char* kind :
       {"too_high", "too_low", "not_equal", "total_above", "total_below"}) {
    EXPECT_TRUE(IsOk(service.Execute(std::string("metric ") + kind + " 5")))
        << kind;
  }
}

}  // namespace
}  // namespace dbwipes
