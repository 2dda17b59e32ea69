// End-to-end benchmark of the DBWipes Service: three seeded, closed-loop
// workloads driven through Service::Execute command lines exactly as
// the paper's frontend sends them. See METRICS.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//   perfbench_e2e --workload <debug_intel|clean_fec|ingest_fec>
//                 --seed <n> --seconds <s> --trace <0|1> [--smoke]
//                 [--scratch <dir>]
//
// Prints one `env` line, one `metric` line per measured metric, and as
// its last line the JSON result object.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <thread>

#include "bench.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/expr/fused_kernels.h"

namespace perfbench {
namespace {

using dbwipes::Database;
using dbwipes::Service;

constexpr char kIntelQuery[] =
    "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS sd_temp "
    "FROM readings GROUP BY window";
constexpr char kFecQuery[] =
    "SELECT day, sum(amount) AS total FROM donations "
    "WHERE candidate = 'MCCAIN' GROUP BY day";
// The Figure 4 and Figure 7 gestures after the query: brush, select D',
// pick the error metric.
const char* const kIntelGesture[] = {"select_range sd_temp 8 1e18",
                                     "inputs_where temp > 100",
                                     "metric too_high 2 1"};
const char* const kFecGesture[] = {"select_range total -1e18 -1",
                                   "inputs_where amount < 0",
                                   "metric too_low 0"};
constexpr char kReattributionMemo[] = "REATTRIBUTION TO SPOUSE";
constexpr char kFecAnswer[] = "memo = 'REATTRIBUTION TO SPOUSE'";

constexpr size_t kMinIterations = 3;
constexpr double kMinF1 = 0.95;

dbwipes::LabeledDataset Generate(const Args& args) {
  if (args.workload == "debug_intel") {
    // bench_fig4's 7-day, 5-minute row (~106k readings) with its two
    // battery-death faults.
    dbwipes::IntelOptions gen;
    gen.duration_days = args.smoke ? 4 : 7;
    gen.reading_interval_minutes = args.smoke ? 30.0 : 5.0;
    gen.seed = args.seed;
    gen.faults = {{15, (gen.duration_days / 2) * 1440, 720, 122.0},
                  {18, (gen.duration_days / 2 + 1) * 1440, 720, 110.0}};
    return *dbwipes::GenerateIntelDataset(gen);
  }
  // bench_fig7's largest row.
  dbwipes::FecOptions gen;
  gen.num_donations = args.smoke ? 20000 : 200000;
  gen.num_reattributions = args.smoke ? 150 : 1200;
  gen.seed = args.seed;
  return *dbwipes::GenerateFecDataset(gen);
}

/// The Service's default options, except that ingest_fec never
/// checkpoints the WAL automatically. Its 200,000 appends would pass the
/// 8 MB threshold two or three times, and the snapshot buffers, overlapping
/// a dashboard scan or not, moved peak memory by up to 10% between runs.
/// The fsync policy stays the default.
dbwipes::ServiceOptions ServiceOptionsFor(const Args& args) {
  dbwipes::ServiceOptions options;
  if (args.workload == "ingest_fec") options.wal.checkpoint_bytes = 0;
  return options;
}

/// Generates the data, registers it, and brings the Service to the
/// point where the timed loop starts.
World SetUp(const Args& args, Run& run) {
  World w;
  w.data = Generate(args);
  w.db = std::make_shared<Database>();
  w.db->RegisterTable(w.data.table);
  w.service = std::make_unique<Service>(w.db, ServiceOptionsFor(args));
  Service& s = *w.service;
  if (args.workload == "debug_intel") {
    Exec(s, run, std::string("sql ") + kIntelQuery);
    for (const char* line : kIntelGesture) Exec(s, run, line);
  } else if (args.workload == "clean_fec") {
    Exec(s, run, std::string("sql ") + kFecQuery);
    w.first_result = StripRid(Exec(s, run, "result"));
  } else {
    w.wal_dir = args.scratch + "/wal";
    std::filesystem::remove_all(w.wal_dir);
    Exec(s, run, "shards donations 8");
    Exec(s, run, "wal on " + w.wal_dir);
    Exec(s, run, std::string("@dash sql ") + kFecQuery);
    w.first_result = StripRid(Exec(s, run, "@dash result"));
  }
  return w;
}

bool TimeLeft(Clock::time_point start, double budget_ms, size_t done) {
  return MsSince(start) < budget_ms || done < kMinIterations;
}

/// Per-day MCCAIN totals of the generated FEC table, leaving out rows
/// whose memo is `drop_memo`. Amounts are whole dollars, so the sums are
/// exact in any order.
std::map<int64_t, double> McCainTotals(const dbwipes::Table& table,
                                       const std::string& drop_memo = "") {
  std::map<int64_t, double> totals;
  for (dbwipes::RowId r = 0; r < table.num_rows(); ++r) {
    if (table.column(0).GetString(r) != "MCCAIN") continue;
    if (!drop_memo.empty() && table.column(6).GetString(r) == drop_memo) {
      continue;
    }
    totals[table.column(5).GetInt64(r)] += table.column(4).GetDouble(r);
  }
  return totals;
}

/// Whether a `result` response of the FEC query holds exactly `expected`.
bool TotalsMatch(const std::string& result_response,
                 const std::map<int64_t, double>& expected) {
  const std::vector<std::string> rows =
      ArrayElements(FindValue(result_response, "rows", '['));
  if (rows.size() != expected.size()) return false;
  for (const std::string& row : rows) {
    const std::vector<std::string> cells = ArrayElements(row);
    if (cells.size() < 2) return false;
    auto it = expected.find(std::strtoll(cells[0].c_str(), nullptr, 10));
    if (it == expected.end() ||
        std::strtod(cells[1].c_str(), nullptr) != it->second) {
      return false;
    }
  }
  return true;
}

// --- debug_intel: the Figure 4 gesture once, then `debug` repeated ---

void RunDebugIntel(World& w, Run& run) {
  std::vector<double> debug_ms;
  std::string top1;
  double f1 = 0.0;
  const auto start = Clock::now();
  while (TimeLeft(start, run.args().seconds * 1000.0, debug_ms.size())) {
    const auto t0 = Clock::now();
    bool ok = false;
    const std::string response = Exec(*w.service, run, "debug", &ok);
    debug_ms.push_back(MsSince(t0));
    if (!ok) continue;
    run.Check(FindValue(response, "partial") == "false",
              "debug_intel: partial response");
    const std::vector<std::string> predicates = PredicateTexts(response);
    if (!run.Check(!predicates.empty(), "debug_intel: no predicates")) continue;
    if (top1.empty()) {
      top1 = predicates[0];
      f1 = AnswerF1(w.data, top1);
    } else {
      run.Check(predicates[0] == top1,
                "debug_intel: top-1 changed to " + predicates[0]);
    }
  }
  const double elapsed_s = MsSince(start) / 1000.0;
  run.Check(f1 >= kMinF1, "debug_intel: answer_f1 " + std::to_string(f1) +
                              " < 0.95 for " + top1);
  run.Latency("debug_ms", debug_ms);
  run.Latency("op_ms", debug_ms);
  run.Metric("ops_per_s", static_cast<double>(debug_ms.size()) / elapsed_s,
             "1/s", "debug calls");
  run.Metric("answer_f1", f1, "ratio", top1);
}

// --- clean_fec: the Figure 7 clean-as-you-query loop, repeated ---

void RunCleanFec(World& w, Run& run) {
  Service& s = *w.service;
  std::vector<double> loop_ms, debug_ms, clean_ms;
  std::string top1;
  double f1 = 0.0;
  // What `clean 0` must leave: the spike days lose exactly their
  // reattribution rows. (Their totals are not always >= 0: a day whose
  // only MCCAIN row is a refund stays negative.)
  const std::map<int64_t, double> cleaned_totals =
      McCainTotals(*w.data.table, kReattributionMemo);
  const auto start = Clock::now();
  while (TimeLeft(start, run.args().seconds * 1000.0, loop_ms.size())) {
    const auto loop_start = Clock::now();
    Exec(s, run, std::string("sql ") + kFecQuery);
    for (const char* line : kFecGesture) Exec(s, run, line);
    auto t0 = Clock::now();
    const std::string debug = Exec(s, run, "debug");
    debug_ms.push_back(MsSince(t0));
    t0 = Clock::now();
    Exec(s, run, "clean 0");
    clean_ms.push_back(MsSince(t0));
    const std::string cleaned = Exec(s, run, "result");
    Exec(s, run, "undo");
    loop_ms.push_back(MsSince(loop_start));

    // Checks, outside the timed loop.
    const std::vector<std::string> predicates = PredicateTexts(debug);
    const std::string first = predicates.empty() ? "" : predicates[0];
    run.Check(first == kFecAnswer, "clean_fec: top-1 is '" + first + "'");
    if (top1.empty() && !first.empty()) {
      top1 = first;
      f1 = AnswerF1(w.data, top1);
    }
    run.Check(TotalsMatch(cleaned, cleaned_totals),
              "clean_fec: totals after clean 0 differ from the totals "
              "without the reattribution rows");
    run.Check(StripRid(Exec(s, run, "result")) == w.first_result,
              "clean_fec: result after undo differs from the first result");
  }
  const double elapsed_s = MsSince(start) / 1000.0;
  run.Check(f1 >= kMinF1, "clean_fec: answer_f1 " + std::to_string(f1));
  run.Latency("loop_ms", loop_ms);
  run.Latency("debug_ms", debug_ms);
  run.Metric("clean_ms.p50", Median(clean_ms), "ms",
             "n=" + std::to_string(clean_ms.size()));
  run.Latency("op_ms", loop_ms);
  run.Metric("ops_per_s", static_cast<double>(loop_ms.size()) / elapsed_s,
             "1/s", "Figure 7 loops");
  run.Metric("answer_f1", f1, "ratio", top1);
}

// --- ingest_fec: two appenders and one dashboard on a sharded, WAL-on
// table ---

/// Row templates for `append`: generated rows whose strings are single
/// tokens (the command line is whitespace-separated).
struct RowTemplate {
  std::vector<std::string> tokens;  // candidate state city occupation
  int64_t day = 0;
  std::string memo;
  bool mccain = false;
};

std::vector<RowTemplate> Templates(const dbwipes::Table& table) {
  std::vector<RowTemplate> out;
  for (dbwipes::RowId r = 0; r < table.num_rows() && out.size() < 4096; ++r) {
    RowTemplate t;
    bool usable = true;
    for (size_t c : {0, 1, 2, 3, 6}) {
      const dbwipes::Column& col = table.column(c);
      const std::string v = col.IsNull(r) ? "" : col.GetString(r);
      if (v.empty() || v.find(' ') != std::string::npos || v == "null") {
        usable = false;
        break;
      }
      if (c == 6) {
        t.memo = v;
      } else {
        t.tokens.push_back(v);
      }
    }
    if (!usable) continue;
    t.day = table.column(5).GetInt64(r);
    t.mccain = t.tokens[0] == "MCCAIN";
    out.push_back(std::move(t));
  }
  return out;
}

struct Acked {
  int64_t day = 0;
  double amount = 0.0;
  bool mccain = false;
};

/// Rows of the sharded donations table according to `stats`.
size_t ShardedRows(Service& s, Run& run) {
  const std::string stats = Exec(s, run, "stats");
  size_t rows = 0;
  for (const std::string& n : ArrayElements(
           FindValue(FindValue(stats, "donations", '{'), "rows", '['))) {
    rows += std::strtoull(n.c_str(), nullptr, 10);
  }
  return rows;
}

/// The dashboard refreshes ten times a second: it pauses this long after
/// each `sql` + `result`. Back to back, its scans would hold the shard
/// read lease nearly all the time, and the appenders would measure only
/// the gaps between scans.
constexpr double kDashboardThinkMs = 100.0;

/// The appenders stop after this many appends (or when the run's time
/// is up), so every run adds about the same rows and holds about the same
/// memory. At about 7,500 appends a second they take about 27 seconds:
/// the host's slow phases last seconds to minutes, and over a shorter span
/// one of them could cover most of a run and move its 10th percentile.
constexpr int64_t kIngestAppends = 200000;
constexpr int64_t kSmokeIngestAppends = 2000;

/// Returns the row count the table must have afterwards.
size_t RunIngest(World& w, Run& run, double budget_ms) {
  Service& s = *w.service;
  const size_t initial_rows = w.data.table->num_rows();
  const std::vector<RowTemplate> templates = Templates(*w.data.table);
  if (!run.Check(!templates.empty(), "ingest_fec: no row templates")) {
    return initial_rows;
  }

  constexpr int kAppenders = 2;
  std::atomic<int64_t> appends_left{run.args().smoke ? kSmokeIngestAppends
                                                     : kIngestAppends};
  std::atomic<bool> stop_dashboard{false};
  std::vector<std::vector<double>> append_ms(kAppenders);
  std::vector<std::vector<Acked>> acked(kAppenders);
  std::vector<double> refresh_ms;
  const auto start = Clock::now();
  std::vector<std::thread> appenders;
  for (int i = 0; i < kAppenders; ++i) {
    appenders.emplace_back([&, i]() {
      std::mt19937_64 rng(run.args().seed * 1000003 + static_cast<uint64_t>(i));
      while (appends_left.fetch_sub(1) > 0 && MsSince(start) < budget_ms) {
        const RowTemplate& t = templates[rng() % templates.size()];
        const int64_t amount = 1 + static_cast<int64_t>(rng() % 2000);
        std::string line = "append donations";
        for (const std::string& token : t.tokens) line += " " + token;
        line += " " + std::to_string(amount) + " " + std::to_string(t.day) +
                " " + t.memo;
        const auto t0 = Clock::now();
        bool ok = false;
        Exec(s, run, line, &ok);
        append_ms[i].push_back(MsSince(t0));
        if (ok) acked[i].push_back({t.day, static_cast<double>(amount), t.mccain});
      }
    });
  }
  std::thread dashboard([&]() {
    while (!stop_dashboard.load(std::memory_order_relaxed)) {
      const auto t0 = Clock::now();
      Exec(s, run, std::string("@dash sql ") + kFecQuery);
      Exec(s, run, "@dash result");
      refresh_ms.push_back(MsSince(t0));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(kDashboardThinkMs));
    }
  });
  for (std::thread& t : appenders) t.join();
  const double elapsed_s = MsSince(start) / 1000.0;
  stop_dashboard.store(true);
  dashboard.join();

  std::vector<double> all_append_ms;
  std::vector<Acked> all_acked;
  for (int i = 0; i < kAppenders; ++i) {
    all_append_ms.insert(all_append_ms.end(), append_ms[i].begin(),
                         append_ms[i].end());
    all_acked.insert(all_acked.end(), acked[i].begin(), acked[i].end());
  }

  // The dashboard agrees with the benchmark's own arithmetic, and the
  // table holds exactly the acknowledged rows.
  Exec(s, run, std::string("@dash sql ") + kFecQuery);
  const std::string final_result = StripRid(Exec(s, run, "@dash result"));
  std::map<int64_t, double> expected = McCainTotals(*w.data.table);
  for (const Acked& a : all_acked) {
    if (a.mccain) expected[a.day] += a.amount;
  }
  run.Check(TotalsMatch(final_result, expected),
            "ingest_fec: dashboard totals differ from the expected sums");
  run.Check(ShardedRows(s, run) == initial_rows + all_acked.size(),
            "ingest_fec: row count is not initial + acknowledged appends");
  const std::string wal = Exec(s, run, "wal status");
  const double wal_appends = std::strtod(FindValue(wal, "appends").c_str(), nullptr);
  const double wal_fsyncs = std::strtod(FindValue(wal, "fsyncs").c_str(), nullptr);

  run.Metric("append_per_s", static_cast<double>(all_acked.size()) / elapsed_s,
             "1/s", std::to_string(all_acked.size()) + " acknowledged");
  run.Latency("append_ms", all_append_ms);
  run.Latency("refresh_ms", refresh_ms);
  run.Metric("service_wal.fsyncs_per_append",
             wal_appends > 0 ? wal_fsyncs / wal_appends : 0.0, "ratio",
             FindValue(wal, "fsyncs") + " fsyncs / " +
                 FindValue(wal, "appends") + " appends");
  run.Latency("op_ms", all_append_ms);
  run.Metric("ops_per_s", static_cast<double>(all_acked.size()) / elapsed_s,
             "1/s", "acknowledged appends");
  w.first_result = final_result;
  return initial_rows + all_acked.size();
}

/// After the timed part: a fresh Service recovering from the same WAL
/// dir must hold exactly the acknowledged rows and answer the dashboard
/// query identically.
void CheckDurability(World& w, Run& run, size_t expected_rows) {
  w.service.reset();
  dbwipes::ServiceOptions options = ServiceOptionsFor(run.args());
  options.wal.dir = w.wal_dir;
  Service fresh(std::make_shared<Database>(), options);
  run.Check(FindValue(Exec(fresh, run, "wal status"), "enabled") == "true",
            "ingest_fec: recovery did not re-enable the WAL");
  run.Check(ShardedRows(fresh, run) == expected_rows,
            "ingest_fec: recovered row count differs");
  Exec(fresh, run, std::string("@dash sql ") + kFecQuery);
  run.Check(StripRid(Exec(fresh, run, "@dash result")) == w.first_result,
            "ingest_fec: recovered dashboard answer differs");
}

// --- Environment ---

#if defined(__clang__)
constexpr char kCompiler[] = "clang " __clang_version__;
#else
constexpr char kCompiler[] = "gcc " __VERSION__;
#endif

void PrintEnvironment(const Args& args, const World& w) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(std::thread::hardware_concurrency());
  const char* threads = std::getenv("DBWIPES_THREADS");
  const char* simd_env = std::getenv("DBWIPES_SIMD");
  bool sanitizer = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitizer = true;
#endif
  bool optimized = false;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  optimized = true;
#endif
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %s, \"nproc\": %d, \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"compiler\": \"%s\", \"simd_tier\": \"%s\", "
      "\"DBWIPES_SIMD\": \"%s\", \"DBWIPES_THREADS\": \"%s\", "
      "\"rows\": %zu, \"anomalous_rows\": %zu, \"debug_or_sanitizer\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.smoke ? "true" : "false", nproc,
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, kCompiler,
      dbwipes::SimdTierName(dbwipes::ResolveSimdTier()),
      simd_env != nullptr ? simd_env : "unset",
      threads != nullptr ? threads : "unset", w.data.table->num_rows(),
      w.data.AllAnomalousRows().size(),
      sanitizer || !optimized ? "true" : "false");
  if (sanitizer || !optimized) {
    std::fprintf(stderr,
                 "WARNING: unoptimized or sanitizer build; these numbers are "
                 "not comparable with an optimized build\n");
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return args->workload == "debug_intel" || args->workload == "clean_fec" ||
         args->workload == "ingest_fec";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || args.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload "
                 "<debug_intel|clean_fec|ingest_fec> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] [--scratch <dir>]\n");
    return 2;
  }
  std::filesystem::create_directories(args.scratch);
  Run run(args);

  // Set up kSetups times and report the median; the last world is the
  // one measured. Each earlier world is torn down first, so peak memory
  // is that of one world. The count is fixed rather than timed, so every
  // run leaves the allocator with the same history and peak memory does
  // not follow the machine's speed.
  constexpr size_t kSetups = 9;
  const size_t setups = args.smoke || args.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  World world;
  while (setup_s.size() < setups) {
    world = World();
    const auto t0 = Clock::now();
    world = SetUp(args, run);
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  PrintEnvironment(args, world);
  run.Metric("setup_s", Median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()));

  const double budget_ms = args.seconds * 1000.0;
  if (!args.trace) {
    if (args.workload == "debug_intel") {
      RunDebugIntel(world, run);
    } else if (args.workload == "clean_fec") {
      RunCleanFec(world, run);
    } else {
      CheckDurability(world, run, RunIngest(world, run, budget_ms));
    }
  } else {
    DebugSpec spec;
    if (args.workload == "debug_intel") {
      spec.sql = kIntelQuery;
      spec.metric = dbwipes::TooHigh(2.0);
      spec.agg_index = 1;
      MeasureLayers(world, spec, budget_ms, run);
    } else {
      spec.sql = kFecQuery;
      spec.metric = dbwipes::TooLow(0.0);
      if (args.workload == "clean_fec") {
        for (const char* line : kFecGesture) Exec(*world.service, run, line);
        MeasureLayers(world, spec, budget_ms, run);
      } else {
        // Half the budget ingests, half replays the debug pipeline on the
        // grown, sharded table.
        const size_t rows = RunIngest(world, run, budget_ms / 2);
        spec.session = "dbg";
        Exec(*world.service, run, std::string("@dbg sql ") + kFecQuery);
        for (const char* line : kFecGesture) {
          Exec(*world.service, run, std::string("@dbg ") + line);
        }
        MeasureLayers(world, spec, budget_ms / 2, run);
        CheckDurability(world, run, rows);
      }
    }
  }
  if (world.service != nullptr) world.service.reset();
  if (!world.wal_dir.empty()) std::filesystem::remove_all(world.wal_dir);
  run.Metric("peak_rss_mb", PeakRssMb(), "MB");
  return run.Finish();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
