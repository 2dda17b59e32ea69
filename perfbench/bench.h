#ifndef DBWIPES_PERFBENCH_BENCH_H_
#define DBWIPES_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dbwipes/core/error_metric.h"
#include "dbwipes/core/service.h"
#include "dbwipes/datagen/labeled_dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short runs, for the benchmark's own test.
  bool smoke = false;
  /// Directory the run may write into (WAL dirs, the span dump).
  std::string scratch = ".bench_build/run";
};

// --- Samples ---

double Median(std::vector<double> xs);
/// Nearest-rank p-th percentile (0 < p <= 100); 0 for no samples.
double Percentile(std::vector<double> xs, double p);

/// The highest of p99.9, p99, p90 and p50 with at least ten samples
/// beyond it; with fewer than 20 samples none qualifies and the maximum
/// is reported instead (label "max").
struct Tail {
  double value = 0.0;
  std::string label;  // "p99.9", "p99", "p90", "p50" or "max"
  size_t n = 0;
};
Tail TailOf(std::vector<double> xs);

// --- Run accounting and output ---

/// Counts operations and failures, and collects the metrics a run
/// prints: every metric goes to the human report (one `metric` line
/// each); the ones BENCHMARK.json declares also go to the final JSON.
class Run {
 public:
  explicit Run(const Args& args) : args_(args) {}

  const Args& args() const { return args_; }

  /// One attempted operation; `ok` false counts it failed.
  void Op(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A correctness check on an operation already counted; a failure is
  /// charged to the error rate and printed to stderr.
  bool Check(bool ok, const std::string& what);

  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  /// The 10th percentile, median and tail of `samples_ms` as
  /// `<base>.p10`, `<base>.p50` and `<base>.tail`.
  void Latency(const std::string& base, const std::vector<double>& samples_ms);

  /// Prints the error rate and the final JSON line. Returns the exit
  /// code: 0 when every declared metric was produced.
  int Finish();

 private:
  const Args& args_;
  std::atomic<size_t> attempted_{0};
  std::atomic<size_t> failed_{0};
  std::mutex mu_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Sends one command line, counts it, and reports whether it answered
/// {"ok": true}. A failed response is printed to stderr.
std::string Exec(dbwipes::Service& service, Run& run, const std::string& line,
                 bool* ok = nullptr);

// --- Minimal JSON reading for the service's own response format ---

bool IsOk(const std::string& response);
/// The response without its `"rid": N` member (rids differ per request).
std::string StripRid(const std::string& response);
/// Raw text of the first value under `"key":` whose first character is
/// `open` ('[' or '{'), or of any value when `open` is 0; "" when absent.
std::string FindValue(const std::string& json, const std::string& key,
                      char open = 0);
/// Top-level elements of a JSON array's raw text.
std::vector<std::string> ArrayElements(const std::string& array);
/// Decodes a JSON string literal (with its quotes).
std::string Unquote(const std::string& literal);

/// The ranked predicate texts of a `debug` response, best first.
std::vector<std::string> PredicateTexts(const std::string& debug_response);

/// F1 of `predicate_text` against the generator's ground truth.
double AnswerF1(const dbwipes::LabeledDataset& data,
                const std::string& predicate_text);

/// Process peak resident set size in MB.
double PeakRssMb();

// --- Tracing: spans recorded from the benchmark's own code ---

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  uint64_t rid = 0;
};

/// Monotonic clock reading in nanoseconds, the span time base.
int64_t NowNs();

/// Keeps spans in memory; written out once at the end of the run.
/// Not thread-safe: other threads record into their own vectors and
/// Add() the spans after joining.
class Tracer {
 public:
  /// Opens a span and returns its index; pair with End().
  int Begin(const std::string& name, int parent, uint64_t rid);
  void End(int span);
  /// For a span whose request id is only known once it has ended.
  void SetRid(int span, uint64_t rid);
  void Add(Span span) { spans_.push_back(std::move(span)); }

  const std::vector<Span>& spans() const { return spans_; }
  /// Per-span self time in ms: duration minus the time its children cover.
  std::vector<double> SelfMs() const;
  /// Median self time of every span named `name`.
  double MedianSelfMs(const std::string& name) const;
  /// Mean per-span recording cost in microseconds, measured by
  /// recording `n` empty spans into a scratch tracer.
  static double RecordingCostUs(size_t n);
  dbwipes::Status WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// --- Workloads ---

/// One set-up instance of a workload: the generated data, the catalog
/// and the Service the clients talk to.
struct World {
  dbwipes::LabeledDataset data;
  std::shared_ptr<dbwipes::Database> db;
  std::unique_ptr<dbwipes::Service> service;
  std::string wal_dir;       // ingest_fec only
  std::string first_result;  // the first `result`, without its rid
};

/// The state a session holds when it receives `debug`: the replay
/// rebuilds the same request from it.
struct DebugSpec {
  std::string session;  // "" = the implicit main session
  std::string sql;
  dbwipes::ErrorMetricPtr metric;
  size_t agg_index = 0;
};

/// The traced run (layers.cc): alternates Service `debug` calls with a
/// replay of the same pipeline through each layer's public functions,
/// checks that both rank identically, times the query, service, shard
/// and WAL layers, and reports every per-layer metric.
void MeasureLayers(World& world, const DebugSpec& spec, double budget_ms,
                   Run& run);

}  // namespace perfbench

#endif  // DBWIPES_PERFBENCH_BENCH_H_
