// Golden transcript of the Service's line protocol: every command and
// subcommand with its usage and unknown-subcommand errors, `@session`
// routing, cleaning with literals of the other type, a failed clean, a
// follower's refusals, a WAL append failure, the slow log and Submit's
// rejections. Each request line is followed by its
// response, byte for byte except for the values that differ from run
// to run: request ids, values whose key ends in `_ms`, temp paths, the
// process-global `stats` metrics body and the debug profile (thread
// pool, SIMD tier, cache counters of this machine). Run with
// DBWIPES_UPDATE_GOLDEN=1 to re-record after an intended change.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/common/random.h"
#include "dbwipes/core/service.h"

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

/// One past the end of the JSON value (or string token) at `pos`.
size_t ValueEnd(const std::string& json, size_t pos) {
  if (json[pos] == '"') {
    ++pos;
    while (pos < json.size() && json[pos] != '"') {
      pos += json[pos] == '\\' ? 2 : 1;
    }
    return pos + 1;
  }
  if (json[pos] == '{' || json[pos] == '[') {
    int depth = 0;
    while (pos < json.size()) {
      const char c = json[pos];
      if (c == '"') {
        pos = ValueEnd(json, pos);
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      ++pos;
      if (depth == 0) break;
    }
    return pos;
  }
  while (pos < json.size() && json[pos] != ',' && json[pos] != '}' &&
         json[pos] != ']') {
    ++pos;
  }
  return pos;
}

bool Masked(const std::string& key, char value_start) {
  return key == "rid" || key == "stats" || key.ends_with("_ms") ||
         (key == "profile" && value_start == '{');
}

/// Replaces the value of every masked key with `~`, at any depth.
std::string Normalize(const std::string& json) {
  std::string out;
  size_t i = 0;
  while (i < json.size()) {
    if (json[i] != '"') {
      out += json[i++];
      continue;
    }
    const size_t end = ValueEnd(json, i);
    const std::string token = json.substr(i, end - i);
    out += token;
    i = end;
    size_t colon = i;
    while (colon < json.size() && json[colon] == ' ') ++colon;
    if (colon >= json.size() || json[colon] != ':') continue;
    size_t value = colon + 1;
    while (value < json.size() && json[value] == ' ') ++value;
    if (value >= json.size() ||
        !Masked(token.substr(1, token.size() - 2), json[value])) {
      continue;
    }
    out += json.substr(i, value - i) + "~";
    i = ValueEnd(json, value);
  }
  return out;
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// Request lines and their normalized responses, section by section.
/// Request lines may say `$TMP` for the scratch directory.
class Transcript {
 public:
  Transcript()
      : tmp_(::testing::TempDir() + "dbw_protocol_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(tmp_);
    std::filesystem::create_directories(tmp_);
  }
  ~Transcript() { std::filesystem::remove_all(tmp_); }

  const std::string& tmp() const { return tmp_; }

  void Section(const std::string& title) { text_ += "\n## " + title + "\n"; }

  void Run(Service& service, const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
      Record(line, service.Execute(ReplaceAll(line, "$TMP", tmp_)));
    }
  }

  void Record(const std::string& request, const std::string& response) {
    text_ += "> " + request + "\n" +
             Normalize(ReplaceAll(response, tmp_, "$TMP")) + "\n";
  }

  const std::string& text() const { return text_; }

 private:
  std::string tmp_;
  std::string text_;
};

ServiceOptions Quiet() {
  ServiceOptions options;
  options.telemetry.slow_ms = 1e12;  // no SLOWREQ lines, whatever the env
  return options;
}

const char* const kQuery = "sql SELECT g, avg(v) AS a FROM w GROUP BY g";

void Record(Transcript& t) {
  {
    Service s(MakeDb(), Quiet());
    t.Section("dispatch and routing");
    t.Run(s, {"", "   ", "bogus", "@", "@bad!name ping", "@s1", "ping",
              "@s1 ping", "ping 1", "ping abc"});

    t.Section("session commands on main");
    t.Run(s, {"result", "sql", "sql SELECT FROM nothing", kQuery, "result",
              "select_range", "select_range a 1", "select_range a x 2",
              "select_range nope 1 2", "select_groups", "select_groups 99",
              "select_groups x", "select_groups 1 abc", "select_groups 2 3",
              "select_range a 20 1e9", "inputs_where",
              "inputs_where nope > 1", "inputs_where v > 50", "metrics",
              "metrics 0", "metrics 7", "metrics abc", "metric",
              "metric nope 1", "metric too_high", "metric too_high x",
              "metric too_high 12 7",
              "metric too_high 1 junk", "metric too_high 12", "debug", "state",
              "set_deadline", "set_deadline abc", "set_deadline 50",
              "set_deadline 0", "profile", "profile bogus", "profile on",
              "profile off", "clean", "clean abc", "clean 99", "clean 0",
              "state", "undo", "undo", "clean_where",
              "clean_where a = 1 OR b = 2", "clean_where tag = 'bad'",
              "reset", "state", "cancel", "debug", "cancel", "state",
              // Literals of the other type, which every clause scan
              // answers by Clause::Matches' rule; then a failed clean
              // (an unknown column), which leaves the session unchanged.
              "clean_where tag > 'c'", "result", "undo",
              "clean_where tag = 5", "result", "undo",
              "clean_where v = 'x'", "result", "undo",
              "clean_where v IN ('a', 1)", "result", "undo",
              "clean_where nosuchcol = 1", "state"});

    t.Section("routed sessions");
    t.Run(s, {"@side state", "@side result",
              "@side sql SELECT tag, avg(v) AS a FROM w GROUP BY tag",
              "@side state", "@side cancel", "session list", "session",
              "session bogus", "session drop", "session drop main",
              "session drop nosuch", "session drop side", "session evict",
              "session evict abc", "session evict 0.001", "session list"});

    t.Section("process commands");
    t.Run(s, {"history", "history service.commands",
              "history service.commands 1000", "history service.commands abc",
              "slowlog", "trace", "trace on", "trace off",
              "trace $TMP/trace.json", "trace $TMP/nodir/trace.json",
              "retry", "retry zero", "retry 0", "retry 3x", "retry 3 -1",
              "retry 3 abc", "retry 3 1e999", "retry off", "retry 3 5",
              "retry 2", "shards", "shards w", "shards w abc", "shards w 0",
              "shards w 300", "shards nosuch 2", "append", "append nosuch 1",
              "append w 1 fine 2.5", "shards w 2", "append w 1 fine",
              "append w 1 fine 2.5 extra", "append w x fine 1",
              "append w 1.5 fine 1", "append w 1 fine x",
              "append w 1 fine 1e999", "append w null null null",
              "@side append w 3 fine 10.5", "stats"});

    t.Section("snapshots");
    t.Run(s, {"snapshot", "snapshot save", "snapshot bogus $TMP/x.dbw",
              "snapshot save $TMP/nodir/x.dbw", "snapshot save $TMP/snap.dbw",
              "snapshot load $TMP/nosuch.dbw", "snapshot load $TMP/snap.dbw",
              "state", "session list"});

    t.Section("write-ahead log");
    t.Run(s, {"wal", "wal bogus", "wal on", "wal status", "wal checkpoint",
              "wal off", "wal on $TMP/wal", "wal on $TMP/wal", "wal status",
              "append w 4 fine 1.5", "select_groups 1", "clean_where v > 200",
              "wal status", "wal checkpoint", "wal off", "wal status",
              "wal on $TMP/wal", "state", "wal off"});

    t.Section("replication on a primary");
    t.Run(s, {"replication", "replication bogus", "replication status",
              "replicate", "replicate bogus", "replicate listen",
              "replicate listen 70000", "replicate listen 0", "replicate from",
              "replicate from not-an-address", "replicate from 127.0.0.1:",
              "replicate stop", "promote"});
  }
  {
    ServiceOptions options = Quiet();
    options.wal.dir = t.tmp() + "/wal_crash";
    t.Section("recovery replays the log");
    {
      Service s(MakeDb(), options);
      t.Run(s, {kQuery, "select_range a 20 1e9", "metric too_high 12",
                "@side sql SELECT tag, avg(v) AS a FROM w GROUP BY tag",
                "@side select_groups 0", "@bad sql SELECT g FROM w GROUP BY g",
                "session drop bad", "debug", "clean 0", "retry 5 7",
                "shards w 2", "append w 5 fine 2.5", "set_deadline 40",
                "profile on"});
    }
    Service s(MakeDb(), options);
    t.Run(s, {"wal status", "state", "@side state", "session list", "stats",
              "debug"});
  }
  {
    ServiceOptions options = Quiet();
    options.sessions.max_sessions = 3;
    Service s(MakeDb(), options);
    t.Section("session limit 3: typos create no session");
    t.Run(s, {"@a bogus", "@b selec_range x 1 2", "session list", "@c bogus",
              std::string("@d ") + kQuery, "session list"});
  }
  {
    FaultInjector faults;
    ServiceOptions options = Quiet();
    options.wal.dir = t.tmp() + "/wal_lost";
    options.wal.faults = &faults;
    Service s(MakeDb(), options);
    FaultInjector::Fault fault;
    fault.status = Status::IoError("injected EIO");
    fault.count = 1;
    t.Section("wal append failure");
    faults.Arm("wal/write", fault);
    t.Run(s, {kQuery});
    faults.Arm("wal/write", fault);
    t.Run(s, {"retry 4", "state", "wal status"});
  }
  {
    ServiceOptions options = Quiet();
    options.telemetry.slow_ms = 0;
    options.telemetry.slow_log_entries = 2;
    Service s(MakeDb(), options);
    t.Section("slow log");
    t.Run(s, {kQuery, "select_range a 20 1e9", "metric too_high 12", "debug",
              "slowlog", "cancel", "debug", "slowlog"});
  }
  {
    ServiceOptions options = Quiet();
    options.telemetry.slow_ms = 0;
    options.telemetry.slow_log_entries = 1;
    options.replication.follow = "127.0.0.1:1";
    Service s(MakeDb(), options);
    t.Section("slow log on a follower");
    t.Run(s, {"append w 1 x 1.0", "slowlog"});
  }
  {
    ServiceOptions options = Quiet();
    options.replication.follow = "127.0.0.1:1";  // nothing listens there
    Service s(MakeDb(), options);
    t.Section("follower: mutations refused");
    t.Run(s, {kQuery, "@f sql SELECT g FROM w GROUP BY g",
              "select_range a 1 2", "select_groups 1", "inputs_where v > 1",
              "metric too_high 1", "clean 0", "clean_where v > 1", "undo",
              "reset", "set_deadline 5", "profile on", "profile bogus",
              "retry 2", "session drop x", "shards w 2", "append w 1 x 1.0",
              "snapshot load $TMP/snap.dbw", "wal on $TMP/fwal", "wal off"});
    t.Section("follower: reads served");
    t.Run(s, {"ping", "state", "result", "metrics", "debug", "cancel",
              "@f2 state", "history", "slowlog", "session list",
              "session bogus", "session evict 1e9", "wal status",
              "wal checkpoint", "wal bogus", "snapshot bogus $TMP/f.dbw",
              "snapshot save $TMP/f.dbw", "trace off"});
    t.Section("follower: stop, then promote");
    t.Run(s, {"replicate stop", "replication status", kQuery, "promote",
              "promote", kQuery, "replication status"});
  }
  {
    t.Section("submit");
    Service idle(MakeDb(), Quiet());
    t.Record("ping (Submit, no workers)", idle.Submit("ping").get());
    ServiceOptions options = Quiet();
    options.num_workers = 1;
    options.queue_capacity = 0;
    Service full(MakeDb(), options);
    ASSERT_TRUE(full.Start().ok());
    t.Record("ping (Submit, queue capacity 0)", full.Submit("ping").get());
    full.Stop();
    options.queue_capacity = 4;
    Service open(MakeDb(), options);
    ASSERT_TRUE(open.Start().ok());
    t.Record("ping (Submit)", open.Submit("ping").get());
    t.Record("bogus (Submit)", open.Submit("bogus").get());
    open.Stop();
    t.Record("ping (Submit, stopped)", open.Submit("ping").get());
  }
}

TEST(ServiceProtocolTest, TranscriptMatchesGolden) {
  Transcript t;
  Record(t);
  const std::string path =
      std::string(DBWIPES_GOLDEN_DIR) + "/service_protocol.txt";
  if (std::getenv("DBWIPES_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << t.text();
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with DBWIPES_UPDATE_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  // Line by line, so a failure names the request that drifted.
  std::istringstream want(golden.str());
  std::istringstream got(t.text());
  std::string want_line;
  std::string got_line;
  std::string request;
  size_t line_no = 0;
  while (std::getline(want, want_line)) {
    ++line_no;
    ASSERT_TRUE(std::getline(got, got_line))
        << path << ":" << line_no << ": transcript ends early";
    if (want_line.starts_with("> ")) request = want_line;
    EXPECT_EQ(want_line, got_line) << path << ":" << line_no << " after "
                                   << request;
  }
  EXPECT_FALSE(std::getline(got, got_line))
      << path << ": transcript has extra lines from " << got_line;
}

}  // namespace
}  // namespace dbwipes
