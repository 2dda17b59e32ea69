// Golden answers of `debug` on the demo's own gestures at benchmark
// size: the Figure 7 gesture on generated FEC tables (200,000
// donations, 1,200 reattributions) and the Figure 4 gesture on
// generated Intel tables (5-minute readings, two battery-death
// faults), with the default k-means clean and with the classifier
// clean, plus the exhaustive baseline's ranking on FEC. Each `debug`
// reply is compared byte for byte without its request id and profile,
// which hold counters and clocks of this run; each baseline predicate
// by its text, score bits and match count. Run with
// DBWIPES_UPDATE_GOLDEN=1 to re-record after an intended change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <bit>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dbwipes/core/baselines.h"
#include "dbwipes/core/dbwipes.h"
#include "dbwipes/core/service.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"

#ifndef DBWIPES_GOLDEN_DIR
#define DBWIPES_GOLDEN_DIR "tests/golden"
#endif

namespace dbwipes {
namespace {

constexpr char kFecQuery[] =
    "sql SELECT day, sum(amount) AS total FROM donations "
    "WHERE candidate = 'MCCAIN' GROUP BY day";
const std::vector<std::string> kFecGesture = {
    kFecQuery, "select_range total -1e18 -1", "inputs_where amount < 0",
    "metric too_low 0"};
const std::vector<std::string> kIntelGesture = {
    "sql SELECT window, avg(temp) AS avg_temp, stddev(temp) AS sd_temp "
    "FROM readings GROUP BY window",
    "select_range sd_temp 8 1e18", "inputs_where temp > 100",
    "metric too_high 2 1"};

std::shared_ptr<const Table> Fec(uint64_t seed) {
  FecOptions gen;
  gen.num_donations = 200000;
  gen.num_reattributions = 1200;
  gen.seed = seed;
  return GenerateFecDataset(gen)->table;
}

std::shared_ptr<const Table> Intel(int64_t days) {
  IntelOptions gen;
  gen.duration_days = days;
  gen.reading_interval_minutes = 5.0;
  gen.seed = 1;
  gen.faults = {{15, (days / 2) * 1440, 720, 122.0},
                {18, (days / 2 + 1) * 1440, 720, 110.0}};
  return GenerateIntelDataset(gen)->table;
}

/// The position of the `,`, `}` or `]` that follows the JSON value at
/// `pos`.
size_t ValueEnd(const std::string& json, size_t pos) {
  int depth = 0;
  for (; pos < json.size(); ++pos) {
    const char c = json[pos];
    if (c == '"') {
      for (++pos; json[pos] != '"'; pos += json[pos] == '\\' ? 2 : 1) {
      }
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth < 0) {
      return pos;
    } else if (c == ',' && depth == 0) {
      return pos;
    }
  }
  return pos;
}

/// `json` without the members named `key`, at any depth.
std::string DropKey(std::string json, const std::string& key) {
  const std::string name = "\"" + key + "\":";
  for (size_t at = json.find(name); at != std::string::npos;
       at = json.find(name, at)) {
    size_t end = ValueEnd(json, at + name.size());
    if (json[end] == ',') {
      end += json[end + 1] == ' ' ? 2 : 1;
    } else if (at >= 2 && json.compare(at - 2, 2, ", ") == 0) {
      at -= 2;
    } else if (at >= 1 && json[at - 1] == ',') {
      at -= 1;
    }
    json.erase(at, end - at);
  }
  return json;
}

/// The `debug` reply after `gesture`, without its rid and profile.
std::string Debug(std::shared_ptr<const Table> table,
                  const std::vector<std::string>& gesture,
                  const ExplainOptions& explain = {}) {
  auto db = std::make_shared<Database>();
  db->RegisterTable(std::move(table));
  ServiceOptions options;
  options.explain = explain;
  options.telemetry.slow_ms = 1e12;  // no SLOWREQ lines, whatever the env
  Service service(db, options);
  for (const std::string& line : gesture) {
    const std::string reply = service.Execute(line);
    EXPECT_NE(reply.find("\"ok\": true"), std::string::npos)
        << line << " -> " << reply;
  }
  return DropKey(DropKey(service.Execute("debug"), "rid"), "profile");
}

/// The exhaustive baseline's ranking after the FEC gesture: each
/// predicate's text, score bits and match count.
std::string Exhaustive(std::shared_ptr<const Table> table) {
  auto db = std::make_shared<Database>();
  db->RegisterTable(table);
  Service service(db);
  for (const std::string& line : kFecGesture) service.Execute(line);
  const Session& session = service.session();
  const QueryResult& result = session.result();
  const ErrorMetricPtr metric = TooLow(0.0);
  auto pre = Preprocessor::Run(*table, result, session.selected_groups(),
                               *metric);
  auto view = FeatureView::Create(
      *table, DefaultExplainColumns(*table, result.query, 0));
  if (!pre.ok() || !view.ok()) return "setup failed";
  size_t evaluated = 0;
  auto ranked = ExhaustivePredicateSearch(
      *table, result, session.selected_groups(), *metric, 0, *view, *pre, {},
      &evaluated);
  if (!ranked.ok()) return ranked.status().ToString();
  std::string out = std::to_string(evaluated) + " evaluated\n";
  for (const RankedPredicate& rp : *ranked) {
    char bits[17];
    std::snprintf(bits, sizeof(bits), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(rp.score)));
    out += rp.predicate.ToString() + " | " + bits + " | " +
           std::to_string(rp.matched_in_suspects) + "\n";
  }
  return out;
}

std::string Record() {
  ExplainOptions classifier;
  classifier.enumerator.clean_method = CleanMethod::kClassifier;
  std::string text;
  auto section = [&](const std::string& title, const std::string& body) {
    text += "## " + title + "\n" + body + (body.ends_with('\n') ? "" : "\n");
  };
  for (uint64_t seed : {1, 7, 42, 931}) {
    const std::shared_ptr<const Table> fec = Fec(seed);
    const std::string name = "fec seed " + std::to_string(seed);
    section(name, Debug(fec, kFecGesture));
    if (seed == 1 || seed == 7) {
      section(name + ", classifier clean", Debug(fec, kFecGesture, classifier));
      section(name + ", exhaustive baseline", Exhaustive(fec));
    }
  }
  const std::shared_ptr<const Table> intel3 = Intel(3);
  section("intel 3 days", Debug(intel3, kIntelGesture));
  section("intel 3 days, classifier clean",
          Debug(intel3, kIntelGesture, classifier));
  section("intel 7 days", Debug(Intel(7), kIntelGesture));
  return text;
}

TEST(AnswerGoldenTest, DebugAnswersMatchGolden) {
  const std::string got = Record();
  const std::string path = std::string(DBWIPES_GOLDEN_DIR) + "/answers.txt";
  if (std::getenv("DBWIPES_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << got;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with DBWIPES_UPDATE_GOLDEN=1 to create)";
  // Line by line, so a failure names the case that drifted.
  std::istringstream want(std::string(std::istreambuf_iterator<char>(in), {}));
  std::istringstream have(got);
  std::string want_line, have_line, section;
  while (std::getline(want, want_line)) {
    ASSERT_TRUE(std::getline(have, have_line)) << "answers end early";
    if (want_line.starts_with("## ")) section = want_line;
    EXPECT_EQ(want_line, have_line) << "in " << section;
  }
  EXPECT_FALSE(std::getline(have, have_line))
      << "extra answer lines from " << have_line;
}

}  // namespace
}  // namespace dbwipes
