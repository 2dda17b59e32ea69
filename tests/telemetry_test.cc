// End-to-end request telemetry tests (DESIGN.md §5k): request-id
// correlation across response / trace spans / profile / slow log / WAL
// frame, the TelemetryHistory ring, the `history` and `slowlog`
// commands, Prometheus text-format exposition (with a validity
// checker) and its HTTP listener, the watchdog's stall detection,
// golden-file schemas for ExplainProfileToJson and
// MetricsRegistry::SnapshotJson, and a torn-read regression: `stats`
// histogram snapshots must satisfy count == sum(buckets) under
// concurrent `wal checkpoint` + trace export.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dbwipes/common/http_listener.h"
#include "dbwipes/common/metrics.h"
#include "dbwipes/common/random.h"
#include "dbwipes/common/telemetry.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/service.h"
#include "dbwipes/storage/wal.h"

#ifndef DBWIPES_GOLDEN_DIR
#define DBWIPES_GOLDEN_DIR "tests/golden"
#endif

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

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" +
                          std::to_string(::getpid()) + "_" + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

bool IsOk(const std::string& response) {
  return response.compare(0, 11, "{\"ok\": true") == 0;
}

/// Extracts the integer value of `"name": <digits>` (spaces optional);
/// -1 when absent.
int64_t JsonInt(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return -1;
  pos += key.size();
  while (pos < json.size() && json[pos] == ' ') ++pos;
  size_t end = pos;
  while (end < json.size() && (std::isdigit(json[end]) != 0)) ++end;
  if (end == pos) return -1;
  return std::stoll(json.substr(pos, end - pos));
}

/// Every occurrence of `"rid": <n>` / `"rid":<n>` in `json`.
std::vector<uint64_t> AllRids(const std::string& json) {
  std::vector<uint64_t> out;
  const std::string key = "\"rid\":";
  size_t pos = 0;
  while ((pos = json.find(key, pos)) != std::string::npos) {
    pos += key.size();
    while (pos < json.size() && json[pos] == ' ') ++pos;
    size_t end = pos;
    while (end < json.size() && (std::isdigit(json[end]) != 0)) ++end;
    if (end > pos) out.push_back(std::stoull(json.substr(pos, end - pos)));
    pos = end;
  }
  return out;
}

/// Sorted unique key paths ("a.b.c", arrays as "name[]") of a JSON
/// document — the schema shape the golden files pin down.
std::vector<std::string> JsonKeyPaths(const std::string& json) {
  std::set<std::string> paths;
  std::vector<std::string> stack;
  std::string pending;
  bool have_pending = false;
  size_t i = 0;
  while (i < json.size()) {
    const char c = json[i];
    if (c == '"') {
      std::string s;
      ++i;
      while (i < json.size() && json[i] != '"') {
        if (json[i] == '\\' && i + 1 < json.size()) ++i;
        s += json[i];
        ++i;
      }
      ++i;  // closing quote
      const size_t j = json.find_first_not_of(" \t\r\n", i);
      if (j != std::string::npos && json[j] == ':') {
        std::string path;
        for (const std::string& part : stack) {
          if (!part.empty()) path += part + ".";
        }
        path += s;
        paths.insert(path);
        pending = s;
        have_pending = true;
        i = j + 1;
      } else {
        have_pending = false;
      }
      continue;
    }
    if (c == '{') {
      stack.push_back(have_pending ? pending : "");
      have_pending = false;
    } else if (c == '[') {
      stack.push_back(have_pending ? pending + "[]" : "[]");
      have_pending = false;
    } else if (c == '}' || c == ']') {
      if (!stack.empty()) stack.pop_back();
    } else if (!std::isspace(static_cast<unsigned char>(c)) && c != ',') {
      have_pending = false;
    }
    ++i;
  }
  return {paths.begin(), paths.end()};
}

/// Golden-file comparison with an update mode: run the suite with
/// DBWIPES_UPDATE_GOLDEN=1 to (re)write the files after an intentional
/// schema change.
void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(DBWIPES_GOLDEN_DIR) + "/" + name;
  if (std::getenv("DBWIPES_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with DBWIPES_UPDATE_GOLDEN=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual)
      << "schema drift vs " << path
      << " — if intentional, re-run with DBWIPES_UPDATE_GOLDEN=1";
}

/// Prometheus text-format 0.0.4 validity: every line is a `# TYPE` /
/// `# HELP` comment or `name[{labels}] value`; names match the
/// Prometheus charset; every sample belongs to a family announced by a
/// `# TYPE` line; histogram buckets are cumulative with a final +Inf
/// equal to `_count`.
bool IsValidPrometheusText(const std::string& text, std::string* why) {
  auto fail = [&](const std::string& message) {
    *why = message;
    return false;
  };
  auto valid_name = [](const std::string& n) {
    if (n.empty()) return false;
    for (size_t i = 0; i < n.size(); ++i) {
      const char c = n[i];
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                         c == '_' || c == ':';
      if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
    }
    return true;
  };

  std::set<std::string> typed_families;
  std::string histogram_family;
  uint64_t last_cumulative = 0;
  bool saw_inf = false;
  uint64_t inf_value = 0;

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) return fail("blank line");
    if (line[0] == '#') {
      std::istringstream in(line);
      std::string hash, kind, family, rest;
      in >> hash >> kind >> family;
      if (kind != "TYPE" && kind != "HELP") return fail("bad comment: " + line);
      if (kind == "TYPE") {
        if (!valid_name(family)) return fail("bad family name: " + line);
        std::string type;
        in >> type;
        if (type != "counter" && type != "gauge" && type != "histogram") {
          return fail("bad type: " + line);
        }
        typed_families.insert(family);
        if (type == "histogram") {
          histogram_family = family;
          last_cumulative = 0;
          saw_inf = false;
        }
      }
      continue;
    }
    // Sample line: name[{labels}] value
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) return fail("no value: " + line);
    const std::string value_text = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') {
      return fail("bad value: " + line);
    }
    std::string name_and_labels = line.substr(0, space);
    std::string labels;
    const size_t brace = name_and_labels.find('{');
    std::string name = name_and_labels;
    if (brace != std::string::npos) {
      if (name_and_labels.back() != '}') return fail("bad labels: " + line);
      labels = name_and_labels.substr(brace + 1,
                                      name_and_labels.size() - brace - 2);
      name = name_and_labels.substr(0, brace);
    }
    if (!valid_name(name)) return fail("bad metric name: " + line);
    // The family is the name minus a histogram/counter suffix.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::string(suffix).size();
      if (family.size() > len &&
          family.compare(family.size() - len, len, suffix) == 0 &&
          typed_families.count(family.substr(0, family.size() - len)) > 0) {
        family = family.substr(0, family.size() - len);
        break;
      }
    }
    if (typed_families.count(family) == 0) {
      return fail("sample without # TYPE: " + line);
    }
    // Histogram bucket law: cumulative counts, +Inf present == _count.
    if (family == histogram_family && name == family + "_bucket") {
      const uint64_t v = static_cast<uint64_t>(std::stod(value_text));
      if (labels.find("le=\"+Inf\"") != std::string::npos) {
        saw_inf = true;
        inf_value = v;
        if (v < last_cumulative) return fail("+Inf below cumulative: " + line);
      } else {
        if (v < last_cumulative) {
          return fail("non-cumulative bucket: " + line);
        }
        last_cumulative = v;
      }
    }
    if (family == histogram_family && name == family + "_count") {
      if (!saw_inf) return fail("histogram missing +Inf: " + family);
      if (static_cast<uint64_t>(std::stod(value_text)) != inf_value) {
        return fail("_count != +Inf bucket: " + family);
      }
    }
  }
  return true;
}

/// Blocking HTTP GET against localhost:`port`; whole response (status
/// line + headers + body) or "" on connect failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

// ---------- Request ids ----------

TEST(RequestIdTest, MonotonicAndScopedPerThread) {
  const uint64_t a = NextRequestId();
  const uint64_t b = NextRequestId();
  EXPECT_GT(b, a);
  EXPECT_GT(a, 0u);  // id 0 means "none" and is never assigned

  EXPECT_EQ(CurrentRequestId(), 0u);
  {
    RequestScope outer(a);
    EXPECT_EQ(CurrentRequestId(), a);
    {
      RequestScope inner(b);  // nests (WAL replay rebinds frame rids)
      EXPECT_EQ(CurrentRequestId(), b);
    }
    EXPECT_EQ(CurrentRequestId(), a);
  }
  EXPECT_EQ(CurrentRequestId(), 0u);

  // Other threads never see this thread's binding.
  RequestScope scope(a);
  uint64_t seen = 99;
  std::thread([&] { seen = CurrentRequestId(); }).join();
  EXPECT_EQ(seen, 0u);
}

// ---------- TelemetryHistory ----------

TEST(TelemetryHistoryTest, RingEvictsOldestAndQueriesWindow) {
  TelemetryHistory history(/*points_per_series=*/4);
  for (int i = 0; i < 10; ++i) {
    history.Record("m", /*t_ms=*/100.0 * i, /*value=*/i);
  }
  // Whole ring: the latest 4 samples, oldest first.
  const auto all = history.Query("m", /*window_ms=*/0.0, /*now_ms=*/900.0);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front().value, 6.0);
  EXPECT_EQ(all.back().value, 9.0);

  // Window cuts off by timestamp.
  const auto recent = history.Query("m", /*window_ms=*/150.0, /*now_ms=*/900.0);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent.front().value, 8.0);

  EXPECT_TRUE(history.Query("unknown", 0.0, 900.0).empty());
  EXPECT_EQ(history.Names(), std::vector<std::string>{"m"});
  // Memory is bounded by capacity, not by samples recorded.
  EXPECT_GT(history.MemoryBytes(), 0u);
  EXPECT_LT(history.MemoryBytes(), 4096u);
}

// ---------- Rid correlation ----------

/// The tentpole acceptance test: ONE request's rid is findable in its
/// JSON response, in >= 1 trace span per executed pipeline stage, in
/// the slow-log entry it produced, and in the WAL frame it wrote.
TEST(RidCorrelationTest, OneRidAcrossResponseSpansSlowLogAndWalFrame) {
  const std::string dir = TempDirFor("rid_e2e");
  uint64_t sql_rid = 0;
  {
    ServiceOptions options;
    options.wal.dir = dir;
    options.telemetry.slow_ms = 0.0;  // slow-log every request
    Service service(MakeDb(), options);

    Tracer::Global().SetEnabled(true);
    Tracer::Global().Clear();
    const std::string response =
        service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g");
    Tracer::Global().SetEnabled(false);
    ASSERT_TRUE(IsOk(response)) << response;

    const auto rids = AllRids(response);
    ASSERT_FALSE(rids.empty()) << response;
    sql_rid = rids[0];
    ASSERT_GT(sql_rid, 0u);

    // Trace spans: both sql stages carry the request's rid.
    const std::string trace = Tracer::Global().ExportJson();
    for (const char* stage : {"sql/parse", "sql/execute"}) {
      const size_t at = trace.find(stage);
      ASSERT_NE(at, std::string::npos) << stage;
      // The span's args (rid included) sit within the same event
      // object; search the surrounding event text.
      const size_t begin = trace.rfind('{', at);
      const size_t end = trace.find('}', at);
      ASSERT_NE(begin, std::string::npos);
      const std::string event = trace.substr(begin, end - begin + 1);
      EXPECT_NE(event.find("\"rid\":" + std::to_string(sql_rid)),
                std::string::npos)
          << stage << " missing rid: " << event;
    }

    // Slow log: threshold 0 logged the request, rid attached.
    const std::string slowlog = service.Execute("slowlog");
    ASSERT_TRUE(IsOk(slowlog)) << slowlog;
    EXPECT_NE(slowlog.find("\"rid\": " + std::to_string(sql_rid)),
              std::string::npos)
        << slowlog;
    EXPECT_NE(slowlog.find("\"cmd\": \"sql\""), std::string::npos) << slowlog;
  }

  // WAL frame: reopen the log and find the logged command's frame
  // carrying the same rid (checksummed frame metadata, so this
  // correlation survives a crash).
  auto wal = WriteAheadLog::Open({.dir = dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  bool found = false;
  Status st = (*wal)->ReplayDurable(
      0, [&](uint64_t, uint64_t rid, uint8_t, const std::string& body) {
        if (body.find("sql SELECT") != std::string::npos) {
          EXPECT_EQ(rid, sql_rid) << body;
          found = true;
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(found) << "sql command frame not found in WAL";
}

/// Property: for every protocol command, every rid-carrying trace span
/// recorded during the request matches the rid in its response.
TEST(RidCorrelationTest, EveryResponseRidMatchesItsTraceSpans) {
  Service service(MakeDb());
  const std::vector<std::string> commands = {
      "sql SELECT g, avg(v) AS a FROM w GROUP BY g",
      "select_range a 20 1e9",
      "inputs_where v > 50",
      "metric too_high 12",
      "debug",
      "clean 0",
      "undo",
      "result",
      "state",
      "stats",
  };
  for (const std::string& command : commands) {
    Tracer::Global().SetEnabled(true);
    Tracer::Global().Clear();
    const std::string response = service.Execute(command);
    Tracer::Global().SetEnabled(false);
    ASSERT_TRUE(IsOk(response)) << command << " -> " << response;

    const auto response_rids = AllRids(response);
    ASSERT_FALSE(response_rids.empty()) << command;
    const uint64_t rid = response_rids[0];
    // A debug response embeds the profile's rid too — every rid in the
    // response is the same one.
    for (uint64_t r : response_rids) EXPECT_EQ(r, rid) << command;

    for (uint64_t span_rid : AllRids(Tracer::Global().ExportJson())) {
      EXPECT_EQ(span_rid, rid) << command;
    }
  }
}

TEST(RidCorrelationTest, ProfileCarriesRidAndReplayRebindsFrameRids) {
  const std::string dir = TempDirFor("rid_replay");
  uint64_t clean_rid = 0;
  {
    ServiceOptions options;
    options.wal.dir = dir;
    Service service(MakeDb(), options);
    ASSERT_TRUE(IsOk(
        service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
    ASSERT_TRUE(IsOk(service.Execute("select_range a 20 1e9")));
    ASSERT_TRUE(IsOk(service.Execute("metric too_high 12")));
    ASSERT_TRUE(IsOk(service.Execute("profile on")));
    const std::string debug = service.Execute("debug");
    ASSERT_TRUE(IsOk(debug)) << debug;
    // Response rid == profile rid (the profile is part of the debug
    // response, so both rids came from the same request).
    const auto rids = AllRids(debug);
    ASSERT_GE(rids.size(), 2u) << debug.substr(0, 200);
    EXPECT_EQ(rids[0], rids[1]);

    const std::string cleaned = service.Execute("clean 0");
    ASSERT_TRUE(IsOk(cleaned)) << cleaned;
    clean_rid = AllRids(cleaned)[0];
  }
  {
    // Recovery replays the clean under its ORIGINAL rid: the replayed
    // frames keep their pre-crash ids (checked via the recovered
    // ranking applying cleanly + the WAL frames' rids surviving the
    // round trip).
    ServiceOptions options;
    options.wal.dir = dir;
    Service service(MakeDb(), options);
    const std::string status = service.Execute("wal status");
    EXPECT_EQ(JsonInt(status, "replay_errors"), 0) << status;
    const std::string state = service.Execute("state");
    EXPECT_EQ(JsonInt(state, "num_applied_predicates"), 1) << state;
  }
  // The clean survived checkpointing only if its frame (rid intact)
  // was still in the log at recovery; verify the recorded rid.
  auto wal = WriteAheadLog::Open({.dir = dir});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  size_t frames = 0;
  ASSERT_TRUE((*wal)
                  ->ReplayDurable(0,
                                  [&](uint64_t, uint64_t rid, uint8_t,
                                      const std::string& body) {
                                    ++frames;
                                    if (body.find("clean") !=
                                        std::string::npos) {
                                      EXPECT_EQ(rid, clean_rid) << body;
                                    }
                                    return Status::OK();
                                  })
                  .ok());
  (void)frames;  // may be 0 if a checkpoint truncated everything — the
                 // in-scope assertions above already covered that path
}

// ---------- history / slowlog commands ----------

TEST(TelemetryCommandsTest, HistoryCommandReturnsSampledSeries) {
  // A histogram the sampler must flatten into derived series. Observe
  // before the service exists so every sampler tick sees it (ticking
  // between construction and a later Observe would race the wait loop
  // below, which stops at the first service.commands point).
  MetricsRegistry::Global().GetHistogram("test.history_ms")->Observe(1.0);
  ServiceOptions options;
  options.telemetry.history_enabled = true;
  options.telemetry.sample_interval_ms = 5.0;
  Service service(MakeDb(), options);
  ASSERT_TRUE(IsOk(
      service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));

  // The sampler runs at 5ms cadence; wait (bounded) for points.
  std::string points;
  for (int i = 0; i < 400; ++i) {
    points = service.Execute("history service.commands 0");
    if (points.find("\"t_ms\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(IsOk(points)) << points;
  ASSERT_NE(points.find("\"t_ms\""), std::string::npos)
      << "sampler produced no points: " << points;

  const std::string listing = service.Execute("history");
  ASSERT_TRUE(IsOk(listing)) << listing;
  EXPECT_NE(listing.find("\"sampling\": true"), std::string::npos) << listing;
  EXPECT_NE(listing.find("service.commands"), std::string::npos) << listing;
  // Histograms are sampled as derived series. Ticks are recorded as
  // one atomic batch, so any tick that produced the service.commands
  // points above also recorded this series.
  EXPECT_NE(listing.find("test.history_ms.p99_ms"), std::string::npos)
      << listing;
  EXPECT_GT(JsonInt(listing, "memory_bytes"), 0) << listing;
}

TEST(TelemetryCommandsTest, SlowLogCapturesStagesAndShedReason) {
  ServiceOptions options;
  options.telemetry.slow_ms = 0.0;  // everything is "slow"
  Service service(MakeDb(), options);
  ASSERT_TRUE(IsOk(
      service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  ASSERT_TRUE(IsOk(service.Execute("select_range a 20 1e9")));
  ASSERT_TRUE(IsOk(service.Execute("metric too_high 12")));
  const std::string debug = service.Execute("debug");
  ASSERT_TRUE(IsOk(debug)) << debug;
  const uint64_t debug_rid = AllRids(debug)[0];

  const std::string slowlog = service.Execute("slowlog");
  ASSERT_TRUE(IsOk(slowlog)) << slowlog;
  // The debug entry carries its stage breakdown and cache hits.
  const size_t at = slowlog.find("\"rid\": " + std::to_string(debug_rid));
  ASSERT_NE(at, std::string::npos) << slowlog;
  const std::string entry = slowlog.substr(at, 400);
  EXPECT_NE(entry.find("\"stages\""), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"rank_ms\""), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"cache_hits\""), std::string::npos) << entry;

  // Slow requests also bump the alert counter.
  EXPECT_GT(JsonInt(service.Execute("stats"), "service.slow_requests"), 0);

  // The ring is bounded: its size never exceeds the configured cap.
  for (int i = 0; i < 200; ++i) service.Execute("ping");
  const std::string bounded = service.Execute("slowlog");
  size_t entries = 0;
  // Ring entries start `{"rid": ` — the response's own top-level rid
  // stamp does not match this pattern.
  for (size_t pos = 0;
       (pos = bounded.find("{\"rid\"", pos)) != std::string::npos; ++pos) {
    ++entries;
  }
  EXPECT_LE(entries, options.telemetry.slow_log_entries);
}

// ---------- Watchdog ----------

TEST(WatchdogTest, FlagsStalledRequests) {
  ServiceOptions options;
  options.telemetry.watchdog_enabled = true;
  options.telemetry.watchdog_interval_ms = 5.0;
  options.telemetry.stall_threshold_ms = 30.0;
  Service service(MakeDb(), options);

  // -1 = counter not yet registered (the watchdog's first scan may not
  // have run yet) — semantically zero.
  const int64_t before = std::max<int64_t>(
      0, JsonInt(service.Execute("stats"), "watchdog.stalled_requests"));
  // `ping 120` sleeps well past the 30ms stall threshold; the watchdog
  // (5ms cadence) must flag it while it is still running.
  std::thread slow([&] { service.Execute("ping 120"); });
  slow.join();
  const int64_t after =
      JsonInt(service.Execute("stats"), "watchdog.stalled_requests");
  EXPECT_GT(after, before);
  // The watchdog alerted ONCE for that request, not once per scan.
  EXPECT_LE(after, before + 1);
  EXPECT_GT(JsonInt(service.Execute("stats"), "watchdog.scans"), 0);
}

// ---------- Prometheus exposition + HTTP ----------

TEST(PrometheusTest, ExpositionTextIsValid) {
  Service service(MakeDb());
  ASSERT_TRUE(IsOk(
      service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  ASSERT_TRUE(IsOk(service.Execute("select_range a 20 1e9")));
  ASSERT_TRUE(IsOk(service.Execute("metric too_high 12")));
  ASSERT_TRUE(IsOk(service.Execute("debug")));

  MetricsRegistry::Global().GetGauge("test.prom_gauge")->Set(4);

  const std::string text = MetricsRegistry::Global().PrometheusText();
  std::string why;
  EXPECT_TRUE(IsValidPrometheusText(text, &why)) << why;
  // Spot-check the three metric kinds made it through with the
  // namespace prefix and sanitized names.
  EXPECT_NE(text.find("# TYPE dbwipes_service_commands_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dbwipes_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dbwipes_explain_total_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"}"), std::string::npos);
}

/// Each explain.* stage histogram, one per stage clock, is observed
/// once per Explain, so N debugs raise every count (and /metrics'
/// _count) by exactly N.
TEST(PrometheusTest, ExplainStageHistogramsCountEachDebugOnce) {
  Service service(MakeDb());
  ASSERT_TRUE(
      IsOk(service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  ASSERT_TRUE(IsOk(service.Execute("select_range a 20 1e9")));
  ASSERT_TRUE(IsOk(service.Execute("metric too_high 12")));
  std::vector<std::string> stages;
  for (const StageClock& clock : kStageClocks) {
    stages.push_back(std::string("explain.") + clock.name + "_ms");
  }
  std::vector<uint64_t> before;
  for (const std::string& name : stages) {
    before.push_back(MetricsRegistry::Global().GetHistogram(name)->count());
  }
  constexpr uint64_t kDebugs = 3;
  for (uint64_t i = 0; i < kDebugs; ++i) {
    ASSERT_TRUE(IsOk(service.Execute("debug")));
  }
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(
        MetricsRegistry::Global().GetHistogram(stages[i])->count() - before[i],
        kDebugs)
        << stages[i];
  }
}

TEST(HttpListenerTest, ServesMetricsHealthzReadyz) {
  std::atomic<bool> ready{false};
  HttpListener listener;
  Status st = listener.Start(
      /*port=*/0, MakeObservabilityHandler([&] { return ready.load(); }));
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_GT(listener.port(), 0);

  // Make sure at least one metric exists.
  MetricsRegistry::Global().GetCounter("test.http")->Increment();

  const std::string metrics = HttpGet(listener.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos)
      << metrics.substr(0, 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("dbwipes_test_http_total"), std::string::npos);
  // The served body is itself valid exposition text.
  const size_t body_at = metrics.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string why;
  EXPECT_TRUE(IsValidPrometheusText(metrics.substr(body_at + 4), &why)) << why;

  EXPECT_NE(HttpGet(listener.port(), "/healthz").find("HTTP/1.0 200"),
            std::string::npos);
  // readyz follows the readiness callback.
  EXPECT_NE(HttpGet(listener.port(), "/readyz").find("HTTP/1.0 503"),
            std::string::npos);
  ready.store(true);
  EXPECT_NE(HttpGet(listener.port(), "/readyz").find("HTTP/1.0 200"),
            std::string::npos);

  EXPECT_NE(HttpGet(listener.port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);
  listener.Stop();
  EXPECT_FALSE(listener.running());
}

// ---------- Golden schemas ----------

TEST(GoldenSchemaTest, ExplainProfileJsonKeyPaths) {
  // A profile with every optional section populated (shard lanes,
  // block timings), so the golden pins the COMPLETE schema.
  ExplainProfile profile;
  profile.rid = 7;
  profile.block_ms = {0.5, 0.25};
  profile.num_shards = 1;
  profile.shards.emplace_back();
  profile.has_deadline = true;
  const std::string json = ExplainProfileToJson(profile, /*pretty=*/false);
  std::string joined;
  for (const std::string& path : JsonKeyPaths(json)) joined += path + "\n";
  ExpectMatchesGolden("explain_profile_keys.txt", joined);
}

TEST(GoldenSchemaTest, MetricsSnapshotJsonShape) {
  // A LOCAL registry with fixed contents makes the whole document
  // deterministic, so the golden is the exact bytes — any accidental
  // format change (key order, number formatting, new fields) shows up
  // as a diff.
  MetricsRegistry registry;
  registry.GetCounter("alpha.count")->Increment(3);
  registry.GetGauge("beta.level")->Set(-2);
  MetricHistogram* h = registry.GetHistogram("gamma.ms");
  h->Observe(0.5);
  h->Observe(40.0);
  h->Observe(1e9);  // overflow
  ExpectMatchesGolden("metrics_snapshot.json",
                      registry.SnapshotJson(/*pretty=*/false) + "\n");
}

// ---------- Torn-read regression (satellite) ----------

/// Histogram snapshots must satisfy count == sum(buckets) even while
/// observations, WAL checkpoints (segment rotation), session eviction,
/// and trace export race the `stats` reader. Before count was derived
/// from the buckets, a torn read (count incremented, bucket not yet)
/// could violate the law.
TEST(TornReadTest, StatsHistogramLawHoldsUnderConcurrentCheckpointAndStats) {
  const std::string dir = TempDirFor("torn_stats");
  ServiceOptions options;
  options.wal.dir = dir;
  options.wal.segment_bytes = 1 << 12;  // force frequent rotation
  Service service(MakeDb(), options);
  ASSERT_TRUE(IsOk(
      service.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  ASSERT_TRUE(IsOk(service.Execute("select_range a 20 1e9")));
  ASSERT_TRUE(IsOk(service.Execute("metric too_high 12")));

  /// Verifies count == sum(buckets) for every histogram entry in a
  /// stats snapshot: "name": {"count": C, ..., "buckets": [b0, ...]}.
  auto check_histogram_law = [](const std::string& stats) {
    size_t pos = 0;
    while ((pos = stats.find("\"buckets\":", pos)) != std::string::npos) {
      const size_t open = stats.find('[', pos);
      const size_t close = stats.find(']', open);
      ASSERT_NE(close, std::string::npos);
      uint64_t sum = 0;
      std::istringstream in(stats.substr(open + 1, close - open - 1));
      std::string tok;
      while (std::getline(in, tok, ',')) sum += std::stoull(tok);
      // The count for this histogram appears before its buckets array
      // within the same object.
      const size_t obj = stats.rfind('{', pos);
      const int64_t count = JsonInt(stats.substr(obj, pos - obj), "count");
      ASSERT_GE(count, 0);
      EXPECT_EQ(static_cast<uint64_t>(count), sum)
          << stats.substr(obj, close - obj + 1);
      pos = close;
    }
  };

  std::atomic<bool> stop{false};
  Tracer::Global().SetEnabled(true);
  std::thread churn([&] {
    // Drive observations + segment rotation + eviction pressure.
    int i = 0;
    while (!stop.load()) {
      service.Execute("debug");
      service.Execute("wal checkpoint");
      service.Execute("@scratch" + std::to_string(i % 4) + " state");
      service.Execute("session evict 1e-6");
      ++i;
    }
  });
  std::thread tracer([&] {
    while (!stop.load()) {
      (void)Tracer::Global().ExportJson();
    }
  });

  for (int i = 0; i < 60; ++i) {
    const std::string stats = service.Execute("stats");
    ASSERT_TRUE(IsOk(stats));
    check_histogram_law(stats);
  }
  stop.store(true);
  churn.join();
  tracer.join();
  Tracer::Global().SetEnabled(false);

  // One final quiescent check.
  check_histogram_law(service.Execute("stats"));
}

}  // namespace
}  // namespace dbwipes
