#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "dbwipes/core/evaluation.h"
#include "dbwipes/expr/parser.h"

namespace perfbench {

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  // Nearest rank: the smallest sample with at least p% at or below it.
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::min(std::max<size_t>(rank, 1), xs.size()) - 1];
}

Tail TailOf(std::vector<double> xs) {
  Tail tail;
  tail.n = xs.size();
  if (xs.empty()) return tail;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (n * (1.0 - p / 100.0) < 10.0) continue;
    // Nearest rank: the smallest sample with at least p% at or below it.
    const size_t rank =
        static_cast<size_t>(std::ceil(p / 100.0 * n)) - 1;
    tail.value = xs[std::min(rank, xs.size() - 1)];
    char label[16];
    std::snprintf(label, sizeof(label), "p%g", p);
    tail.label = label;
    return tail;
  }
  tail.value = xs.back();
  tail.label = "max";
  return tail;
}

bool Run::Check(bool ok, const std::string& what) {
  if (!ok) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Run::Metric(const std::string& name, double value,
                 const std::string& unit, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  std::printf("metric %s = %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
              detail.empty() ? "" : "  ", detail.c_str());
  metrics_[name] = {value, unit};
}

void Run::Latency(const std::string& base,
                  const std::vector<double>& samples_ms) {
  const Tail tail = TailOf(samples_ms);
  const std::string n = "n=" + std::to_string(samples_ms.size());
  Metric(base + ".p10", Percentile(samples_ms, 10.0), "ms", n);
  Metric(base + ".p50", Median(samples_ms), "ms", n);
  Metric(base + ".tail", tail.value, "ms",
         tail.label + ", n=" + std::to_string(tail.n));
}

namespace {

// The metric names BENCHMARK.json declares, in its order.
const std::vector<std::string> kEndToEnd = {"setup_s", "peak_rss_mb",
                                            "op_ms.p10"};
const std::vector<std::string> kPerLayer = {
    "query.execute_sql_ms",      "query.rows_per_group",
    "query.clean_ms",            "preprocess.run_ms",
    "preprocess.suspect_rows",   "enumerate.clean_dprime_ms",
    "enumerate.datasets_ms",     "enumerate.candidates",
    "predicates.enumerate_ms",   "predicates.count",
    "rank.rank_anytime_ms",      "rank.materialize_ms",
    "rank.score_ms",             "rank.cache_hit_ratio",
    "merge.merge_and_rerank_ms", "export.explanation_json_ms",
    "export.response_bytes",     "service.ping_ms",
    "service.unaccounted_ms",    "shard.append_us",
    "wal.append_command_us",     "wal.fsyncs_per_append",
    "wal.bytes_per_append",      "trace.overhead_us"};

}  // namespace

int Run::Finish() {
  const size_t attempted = attempted_.load();
  const size_t failed = std::min(failed_.load(), attempted);
  Metric("error_rate",
         attempted == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted),
         "ratio",
         std::to_string(failed) + " failed / " + std::to_string(attempted) +
             " attempted");

  const std::vector<std::string>& declared = args_.trace ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<size_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool complete = true;
  for (size_t i = 0; i < declared.size(); ++i) {
    auto it = metrics_.find(declared[i]);
    if (it == metrics_.end() || !std::isfinite(it->second.first)) {
      std::fprintf(stderr, "metric %s was not produced\n",
                   declared[i].c_str());
      complete = false;
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.first);
    if (i > 0) json += ", ";
    json += "\"" + declared[i] + "\": {\"value\": " + value +
            ", \"unit\": \"" + it->second.second + "\"}";
  }
  json += "}}";
  if (!complete) return 1;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

std::string Exec(dbwipes::Service& service, Run& run, const std::string& line,
                 bool* ok) {
  std::string response = service.Execute(line);
  const bool good = IsOk(response);
  run.Op(good);
  if (!good) {
    std::fprintf(stderr, "FAILED %s -> %.300s\n", line.c_str(),
                 response.c_str());
  }
  if (ok != nullptr) *ok = good;
  return response;
}

bool IsOk(const std::string& response) {
  return response.compare(0, 11, "{\"ok\": true") == 0;
}

std::string StripRid(const std::string& response) {
  const std::string key = ", \"rid\": ";
  const size_t at = response.find(key);
  if (at == std::string::npos) return response;
  size_t end = at + key.size();
  while (end < response.size() && std::isdigit(response[end])) ++end;
  return response.substr(0, at) + response.substr(end);
}

namespace {

// End of the JSON value starting at `pos` (one past its last byte).
size_t ValueEnd(const std::string& json, size_t pos) {
  if (pos >= json.size()) return pos;
  if (json[pos] == '"') {
    for (size_t i = pos + 1; i < json.size(); ++i) {
      if (json[i] == '\\') {
        ++i;
      } else if (json[i] == '"') {
        return i + 1;
      }
    }
    return json.size();
  }
  if (json[pos] == '[' || json[pos] == '{') {
    int depth = 0;
    for (size_t i = pos; i < json.size(); ++i) {
      const char c = json[i];
      if (c == '"') {
        i = ValueEnd(json, i) - 1;
      } else if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}') {
        if (--depth == 0) return i + 1;
      }
    }
    return json.size();
  }
  size_t i = pos;
  while (i < json.size() && json[i] != ',' && json[i] != ']' &&
         json[i] != '}') {
    ++i;
  }
  return i;
}

size_t SkipSpace(const std::string& json, size_t pos) {
  while (pos < json.size() && std::isspace(static_cast<unsigned char>(json[pos]))) {
    ++pos;
  }
  return pos;
}

}  // namespace

std::string FindValue(const std::string& json, const std::string& key,
                      char open) {
  const std::string needle = "\"" + key + "\":";
  for (size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    const size_t start = SkipSpace(json, at + needle.size());
    if (start >= json.size()) break;
    if (open != 0 && json[start] != open) continue;
    return json.substr(start, ValueEnd(json, start) - start);
  }
  return "";
}

std::vector<std::string> ArrayElements(const std::string& array) {
  std::vector<std::string> out;
  if (array.size() < 2 || array.front() != '[') return out;
  size_t pos = SkipSpace(array, 1);
  while (pos < array.size() && array[pos] != ']') {
    const size_t end = ValueEnd(array, pos);
    out.push_back(array.substr(pos, end - pos));
    pos = SkipSpace(array, end);
    if (pos < array.size() && array[pos] == ',') pos = SkipSpace(array, pos + 1);
  }
  return out;
}

std::string Unquote(const std::string& literal) {
  std::string out;
  if (literal.size() < 2 || literal.front() != '"') return literal;
  for (size_t i = 1; i + 1 < literal.size(); ++i) {
    char c = literal[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    c = literal[++i];
    switch (c) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        const unsigned code =
            static_cast<unsigned>(std::strtoul(literal.substr(i + 1, 4).c_str(),
                                               nullptr, 16));
        out += static_cast<char>(code);  // the service escapes only controls
        i += 4;
        break;
      }
      default: out += c;
    }
  }
  return out;
}

std::vector<std::string> PredicateTexts(const std::string& debug_response) {
  std::vector<std::string> out;
  for (const std::string& p :
       ArrayElements(FindValue(debug_response, "predicates", '['))) {
    out.push_back(Unquote(FindValue(p, "predicate")));
  }
  return out;
}

double AnswerF1(const dbwipes::LabeledDataset& data,
                const std::string& predicate_text) {
  auto predicate = dbwipes::ParsePredicate(predicate_text);
  if (!predicate.ok()) return 0.0;
  auto quality =
      dbwipes::ScorePredicate(*data.table, *predicate, data.AllAnomalousRows());
  return quality.ok() ? quality->f1 : 0.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name, int parent, uint64_t rid) {
  spans_.push_back(Span{name, NowNs(), 0, parent, rid});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

void Tracer::SetRid(int span, uint64_t rid) {
  spans_[static_cast<size_t>(span)].rid = rid;
}

std::vector<double> Tracer::SelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    }
  }
  return self;
}

double Tracer::MedianSelfMs(const std::string& name) const {
  const std::vector<double> self = SelfMs();
  std::vector<double> xs;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) xs.push_back(self[i]);
  }
  return xs.empty() ? std::nan("") : Median(xs);
}

double Tracer::RecordingCostUs(size_t n) {
  Tracer scratch;
  scratch.spans_.reserve(n);
  const auto start = Clock::now();
  for (size_t i = 0; i < n; ++i) scratch.End(scratch.Begin("calibrate", -1, i));
  return MsSince(start) * 1000.0 / static_cast<double>(n);
}

dbwipes::Status Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return dbwipes::Status::IoError("cannot write " + path);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"rid\": %llu}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.rid),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  const bool ok = std::fclose(f) == 0;
  return ok ? dbwipes::Status::OK()
            : dbwipes::Status::IoError("cannot close " + path);
}

}  // namespace perfbench
