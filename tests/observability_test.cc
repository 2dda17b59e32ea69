// Observability-layer tests: the metrics registry's write/snapshot
// behavior, counter consistency across a real Explain (MatchEngine
// cache hits + misses == clause lookups), per-Explain profiles, and
// the tracer's Chrome trace_event export — including validity and
// strict per-thread nesting under forced-concurrent recording.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/random.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/service.h"
#include "dbwipes/viz/dashboard.h"

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

/// Minimal JSON validity check (same discipline as the robustness
/// tests): balanced braces/brackets outside strings, strings closed.
bool IsWellFormedJson(const std::string& s, char open = '{') {
  if (s.empty() || s[0] != open) return false;
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        if (i + 1 >= s.size()) return false;
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      stack.push_back(c);
    } else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      const char o = stack.back();
      stack.pop_back();
      if ((c == '}') != (o == '{')) return false;
      if (stack.empty()) {
        return s.find_first_not_of(" \t\r\n", i + 1) == std::string::npos;
      }
    }
  }
  return false;
}

/// Extracts the integer value of `"name": <digits>` from a metrics
/// snapshot / JSON document; -1 when absent.
int64_t JsonInt(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return -1;
  pos += key.size();
  while (pos < json.size() && (json[pos] == ' ')) ++pos;
  size_t end = pos;
  while (end < json.size() && (std::isdigit(json[end]) != 0)) ++end;
  if (end == pos) return -1;
  return std::stoll(json.substr(pos, end - pos));
}

// ---------- MetricsRegistry ----------

TEST(MetricsTest, CountersGaugesHistograms) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricCounter* c = reg.GetCounter("test.counter");
  MetricGauge* g = reg.GetGauge("test.gauge");
  MetricHistogram* h = reg.GetHistogram("test.hist");

  c->ResetForTest();
  g->Set(0);
  h->ResetForTest();

  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);

  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->value(), 4);

  h->Observe(0.05);   // 50us: lands in the <= 0.05ms bucket (index 5)
  h->Observe(3.0);    // <= 5ms
  h->Observe(1e9);    // overflow
  EXPECT_EQ(h->count(), 3u);
  EXPECT_GT(h->sum_ms(), 1e8);
  EXPECT_EQ(h->bucket(5), 1u);
  EXPECT_EQ(h->bucket(MetricHistogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(h->overflow(), 1u);

  // Same name returns the same instance (pointers are stable).
  EXPECT_EQ(reg.GetCounter("test.counter"), c);
}

TEST(MetricsTest, SnapshotJsonIsWellFormedAndCarriesValues) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.snapshot")->ResetForTest();
  reg.GetCounter("test.snapshot")->Increment(42);
  const std::string json = reg.SnapshotJson(/*pretty=*/false);
  EXPECT_TRUE(IsWellFormedJson(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(JsonInt(json, "test.snapshot"), 42);
}

TEST(MetricsTest, ResetForTestZeroesWithoutInvalidatingPointers) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  MetricCounter* c = reg.GetCounter("test.reset");
  c->Increment(9);
  reg.ResetForTest();
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  EXPECT_EQ(c->value(), 1u);
}

// ---------- Counter consistency over a real pipeline ----------

/// Drives a full debug through the Service and checks the `stats`
/// snapshot's cross-counter laws — the acceptance criterion that
/// MatchEngine hits + misses equals clause lookups, and that the
/// pipeline counters moved with the run.
TEST(ObservabilityTest, StatsCountersConsistentWithRun) {
  MetricsRegistry::Global().ResetForTest();
  Service service(MakeDb());
  ASSERT_NE(service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")
                .find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(service.Execute("select_range a 20 1e9").find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(service.Execute("inputs_where v > 50").find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(service.Execute("metric too_high 12").find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(service.Execute("debug").find("\"ok\": true"),
            std::string::npos);

  const std::string stats = service.Execute("stats");
  ASSERT_NE(stats.find("\"ok\": true"), std::string::npos);
  EXPECT_TRUE(IsWellFormedJson(stats)) << stats.substr(0, 300);

  const int64_t lookups = JsonInt(stats, "match.clause_lookups");
  const int64_t hits = JsonInt(stats, "match.cache_hits");
  const int64_t misses = JsonInt(stats, "match.cache_misses");
  ASSERT_GE(lookups, 0) << stats;
  ASSERT_GE(hits, 0);
  ASSERT_GE(misses, 0);
  EXPECT_EQ(hits + misses, lookups);
  EXPECT_GT(lookups, 0);

  EXPECT_EQ(JsonInt(stats, "explain.runs"), 1);
  // The merge stage re-ranks with its own PredicateRanker, so one
  // debug yields the main ranking run plus the merger's.
  EXPECT_GE(JsonInt(stats, "ranker.runs"), 1);
  EXPECT_GE(JsonInt(stats, "sql.queries"), 1);
  EXPECT_GE(JsonInt(stats, "service.commands"), 5);
  EXPECT_GT(JsonInt(stats, "enumerate.predicates"), 0);
  EXPECT_GT(JsonInt(stats, "ranker.predicates_scored"), 0);
}

// ---------- Per-Explain profile ----------

TEST(ObservabilityTest, ProfileAttachedAndInternallyConsistent) {
  Service service(MakeDb());
  service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g");
  service.Execute("select_range a 20 1e9");
  service.Execute("inputs_where v > 50");
  service.Execute("metric too_high 12");
  service.Execute("debug");

  const Explanation& exp = service.session().explanation();
  const ExplainProfile& p = exp.profile;
  EXPECT_GT(p.total_ms, 0.0);
  EXPECT_EQ(p.table_rows, 160u);
  EXPECT_GT(p.suspect_rows, 0u);
  EXPECT_GT(p.candidate_datasets, 0u);
  EXPECT_GT(p.predicates_enumerated, 0u);
  EXPECT_EQ(p.predicates_scored, exp.ranked_considered);
  // Complete run: every scoring block finished.
  EXPECT_FALSE(p.partial);
  EXPECT_EQ(p.scoring_blocks_done, p.scoring_blocks_total);
  EXPECT_EQ(p.block_ms.size(), p.scoring_blocks_total);
  // The cache law holds inside the profile too.
  EXPECT_EQ(p.cache_hits + p.cache_misses, p.clause_lookups);
  EXPECT_GT(p.clause_lookups, 0u);
  // The tier the run dispatched to.
  EXPECT_TRUE(p.simd_tier == "avx2" || p.simd_tier == "scalar")
      << p.simd_tier;
  // Stage clocks mirror the explanation's.
  EXPECT_DOUBLE_EQ(p.preprocess_ms, exp.preprocess_ms);
  EXPECT_DOUBLE_EQ(p.rank_ms, exp.rank_ms);

  const std::string json = ExplainProfileToJson(p, /*pretty=*/false);
  EXPECT_TRUE(IsWellFormedJson(json)) << json.substr(0, 300);
  EXPECT_NE(json.find("\"match_engine\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_pool\""), std::string::npos);
}

/// The keys of a flat JSON object with no string values, in order.
std::vector<std::string> KeysOf(const std::string& object) {
  std::vector<std::string> keys;
  size_t at = object.find('"');
  while (at != std::string::npos) {
    const size_t end = object.find('"', at + 1);
    if (end == std::string::npos) break;
    keys.push_back(object.substr(at + 1, end - at - 1));
    at = object.find('"', end + 1);
  }
  return keys;
}

/// The flat object that follows the first `"key"` in `json`.
std::string ObjectAfter(const std::string& json, const std::string& key) {
  const size_t open = json.find('{', json.find('"' + key + '"'));
  return json.substr(open, json.find('}', open) - open + 1);
}

/// The stage clocks are listed once: the profile's stage_ms, the slow
/// log's stages and the dashboard's rows follow kStageClocks in order,
/// and the dashboard's last row is the total.
TEST(ObservabilityTest, StageListsFollowStageClocks) {
  ServiceOptions options;
  options.telemetry.slow_ms = 0.0;  // every request is logged
  Service service(MakeDb(), options);
  service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g");
  service.Execute("select_range a 20 1e9");
  service.Execute("metric too_high 12");
  service.Execute("debug");
  ASSERT_TRUE(service.session().has_explanation());

  std::vector<std::string> names, slow_keys;
  for (const StageClock& clock : kStageClocks) {
    names.push_back(clock.name);
    slow_keys.push_back(std::string(clock.name) + "_ms");
  }
  const ExplainProfile& p = service.session().explanation().profile;
  EXPECT_EQ(KeysOf(ObjectAfter(ExplainProfileToJson(p, /*pretty=*/false),
                               "stage_ms")),
            names);
  // Only the debug's entry carries stages.
  EXPECT_EQ(KeysOf(ObjectAfter(service.Execute("slowlog"), "stages")),
            slow_keys);

  // The first word of each dashboard row under the header.
  std::istringstream panel(Dashboard(&service.session()).RenderProfile());
  std::string line;
  std::getline(panel, line);
  std::vector<std::string> rows;
  while (rows.size() < names.size() && std::getline(panel, line)) {
    std::istringstream words(line);
    rows.emplace_back();
    words >> rows.back();
  }
  EXPECT_EQ(rows, names);
}

TEST(ObservabilityTest, ProfileCommandTogglesDebugAttachment) {
  Service service(MakeDb());
  service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g");
  service.Execute("select_range a 20 1e9");
  service.Execute("inputs_where v > 50");
  service.Execute("metric too_high 12");

  // Off by default: no top-level profile field.
  std::string debug = service.Execute("debug");
  EXPECT_EQ(debug.find("\"profile\": {\"rid\""), std::string::npos);

  EXPECT_NE(service.Execute("profile on").find("\"ok\": true"),
            std::string::npos);
  debug = service.Execute("debug");
  EXPECT_NE(debug.find("\"profile\": {\"rid\""), std::string::npos)
      << debug.substr(0, 200);
  EXPECT_TRUE(IsWellFormedJson(debug));

  EXPECT_NE(service.Execute("profile off").find("\"ok\": true"),
            std::string::npos);
  debug = service.Execute("debug");
  EXPECT_EQ(debug.find("\"profile\": {\"rid\""), std::string::npos);
}

// ---------- Tracer ----------

/// One exported Chrome trace event, scraped from the JSON.
struct ScrapedEvent {
  std::string name;
  std::string ph;
  double ts = 0.0;
  double dur = 0.0;
  int64_t tid = -1;
};

std::vector<ScrapedEvent> ScrapeEvents(const std::string& json) {
  std::vector<ScrapedEvent> out;
  size_t pos = 0;
  while ((pos = json.find("{\"name\":", pos)) != std::string::npos) {
    const size_t end = json.find('}', pos);
    const std::string obj = json.substr(pos, end - pos + 1);
    ScrapedEvent e;
    size_t q = obj.find("\"name\":\"") + 8;
    e.name = obj.substr(q, obj.find('"', q) - q);
    q = obj.find("\"ph\":\"") + 6;
    e.ph = obj.substr(q, obj.find('"', q) - q);
    q = obj.find("\"ts\":");
    if (q != std::string::npos) e.ts = std::stod(obj.substr(q + 5));
    q = obj.find("\"dur\":");
    if (q != std::string::npos) e.dur = std::stod(obj.substr(q + 6));
    q = obj.find("\"tid\":");
    if (q != std::string::npos) e.tid = std::stoll(obj.substr(q + 6));
    out.push_back(std::move(e));
    pos = end;
  }
  return out;
}

/// Full pipeline with tracing on: the export is valid Chrome
/// trace_event JSON and contains a span for every backend stage.
TEST(ObservabilityTest, TraceCoversEveryPipelineStage) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  tracer.Clear();

  Service service(MakeDb());
  EXPECT_NE(service.Execute("trace on").find("\"ok\": true"),
            std::string::npos);
  service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g");
  service.Execute("select_range a 20 1e9");
  service.Execute("inputs_where v > 50");
  service.Execute("metric too_high 12");
  service.Execute("debug");
  EXPECT_NE(service.Execute("trace off").find("\"ok\": true"),
            std::string::npos);

  const std::string json = tracer.ExportJson();
  EXPECT_TRUE(IsWellFormedJson(json)) << json.substr(0, 300);
  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);

  for (const char* span : {
           "service/debug", "service/serialize", "session/debug",
           "pipeline/explain", "learn/snapshot",
           "pipeline/preprocess", "pipeline/enumerate",
           "pipeline/predicates", "pipeline/rank", "pipeline/merge",
           "merge/rerank", "enumerate/clean", "enumerate/kmeans",
           "enumerate/subgroups", "enumerate/datasets",
           "enumerate/predicates", "predicates/tree", "predicates/bounding",
           "scorer/create",
           "ranker/rank", "match/materialize", "sql/parse", "sql/execute",
           "sql/filter", "sql/group",
       }) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << "missing span: " << span;
  }
  tracer.Clear();
}

TEST(ObservabilityTest, TraceDumpWritesLoadableFile) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  tracer.Clear();

  Service service(MakeDb());
  service.Execute("trace on");
  service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g");
  service.Execute("trace off");
  const std::string path = ::testing::TempDir() + "dbw_trace_test.json";
  const std::string resp = service.Execute("trace " + path);
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos) << resp;

  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(IsWellFormedJson(contents)) << contents.substr(0, 300);
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("sql/parse"), std::string::npos);
  tracer.Clear();
}

/// Forced-concurrent recording: several threads emit nested spans at
/// once; the export must stay valid JSON and every thread's spans must
/// be strictly nested (Chrome/Perfetto reject overlapping siblings on
/// one track).
TEST(ObservabilityTest, ConcurrentSpansExportStrictlyNestedPerThread) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  tracer.Clear();
  tracer.SetEnabled(true);

  constexpr int kThreads = 4;
  constexpr int kOuter = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kOuter; ++i) {
        TraceSpan outer("test/outer");
        {
          TraceSpan mid("test/mid");
          { TraceSpan inner("test/inner"); }
          { TraceSpan inner2("test/inner"); }
        }
        { TraceSpan mid2("test/mid"); }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  tracer.SetEnabled(false);

  const std::string json = tracer.ExportJson();
  EXPECT_TRUE(IsWellFormedJson(json)) << json.substr(0, 300);
  std::vector<ScrapedEvent> events = ScrapeEvents(json);
  // 5 spans per outer iteration per thread.
  EXPECT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kOuter * 5);

  // Group by thread; within one thread intervals must nest or be
  // disjoint — never partially overlap.
  std::map<int64_t, std::vector<ScrapedEvent>> by_tid;
  for (const ScrapedEvent& e : events) {
    ASSERT_EQ(e.ph, "X");
    by_tid[e.tid].push_back(e);
  }
  EXPECT_EQ(by_tid.size(), static_cast<size_t>(kThreads));
  for (auto& [tid, evs] : by_tid) {
    for (size_t i = 0; i < evs.size(); ++i) {
      for (size_t j = i + 1; j < evs.size(); ++j) {
        const double a0 = evs[i].ts, a1 = evs[i].ts + evs[i].dur;
        const double b0 = evs[j].ts, b1 = evs[j].ts + evs[j].dur;
        const bool disjoint = a1 <= b0 || b1 <= a0;
        const bool nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
        EXPECT_TRUE(disjoint || nested)
            << "tid " << tid << ": spans [" << a0 << "," << a1 << ") and ["
            << b0 << "," << b1 << ") partially overlap";
      }
    }
  }
  tracer.Clear();
}

TEST(ObservabilityTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  tracer.Clear();
  {
    DBW_TRACE_SPAN("test/ghost");
    tracer.RecordInstant("test/ghost-instant");
  }
  EXPECT_EQ(tracer.num_events(), 0u);
}

// ---------- Service subcommand validation ----------

TEST(ObservabilityTest, UnknownSubcommandsFailWithOffendingToken) {
  Service service(MakeDb());
  const std::string bad = service.Execute("profile bogus");
  EXPECT_NE(bad.find("\"ok\": false"), std::string::npos) << bad;
  EXPECT_NE(bad.find("bogus"), std::string::npos) << bad;

  EXPECT_NE(service.Execute("profile").find("\"ok\": false"),
            std::string::npos);
  EXPECT_NE(service.Execute("trace").find("\"ok\": false"),
            std::string::npos);
}

}  // namespace
}  // namespace dbwipes
