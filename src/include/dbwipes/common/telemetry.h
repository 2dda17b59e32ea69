#ifndef DBWIPES_COMMON_TELEMETRY_H_
#define DBWIPES_COMMON_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dbwipes {

/// \brief Request-identity plumbing: one monotonically-assigned id per
/// externally-visible request, stamped into every trace span, log
/// line, ExplainProfile, WAL frame, and JSON response, so a single
/// grep for `rid` correlates one request end-to-end across the whole
/// process (and across a crash, via the WAL frame).
///
/// The id rides in a thread-local: the Service assigns it at its entry
/// points (Execute/Submit) and scopes it with RequestScope, so every
/// layer below — tracer, logger, profile, WAL — picks it up without
/// threading a context parameter through a dozen signatures. Work
/// handed to pool threads does not inherit it (the per-stage spans the
/// correlation story needs are recorded on the request thread), except
/// the subgroup search the Dataset Enumerator runs beside the D' clean,
/// which binds the request's id for its `enumerate/subgroups` span.
/// Id 0 means "no request in scope" and is never assigned.

/// Next process-wide request id (first call returns 1).
uint64_t NextRequestId();

/// The request id bound to the calling thread, or 0 outside a request.
uint64_t CurrentRequestId();

/// \brief RAII binding of a request id to the calling thread. Nests:
/// the previous binding is restored on destruction (WAL replay runs
/// commands under their original frame's rid inside the recovery
/// request's scope).
class RequestScope {
 public:
  explicit RequestScope(uint64_t rid);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t prev_;
};

/// \brief Fixed-size time series of sampled metric values — the "when
/// did p99 start climbing" store behind the Service `history` command.
///
/// One ring per series name, each holding the latest `points_per_series`
/// (t_ms, value) samples; memory is therefore bounded at
/// series_count * points_per_series * sizeof(Point) regardless of
/// uptime. Writes come from one sampler thread at a fixed cadence
/// (~10 Hz) and reads from occasional `history` commands, so a single
/// short-critical-section mutex is cheap: the hot request path never
/// touches this class at all.
class TelemetryHistory {
 public:
  struct Point {
    double t_ms = 0.0;  // MonotonicMillis timestamp of the sample
    double value = 0.0;
  };

  explicit TelemetryHistory(size_t points_per_series = 600);

  /// Appends one sample, evicting the oldest when the ring is full.
  /// Creates the series on first use.
  void Record(const std::string& series, double t_ms, double value);

  /// Appends one sample per (series, value) pair under a single lock
  /// acquisition, so a reader never observes a half-written sampler
  /// tick (some series advanced, others not yet) — and a tick costs
  /// one lock round-trip instead of one per series.
  void RecordBatch(double t_ms,
                   const std::vector<std::pair<std::string, double>>& samples);

  /// Registered series names, sorted.
  std::vector<std::string> Names() const;

  /// Samples with t_ms >= now_ms - window_ms, oldest first. window_ms
  /// <= 0 returns the whole ring. Unknown series -> empty.
  std::vector<Point> Query(const std::string& series, double window_ms,
                           double now_ms) const;

  size_t points_per_series() const { return capacity_; }

  /// Upper bound on resident bytes: ring storage is preallocated at
  /// series creation, so this is also the steady-state footprint.
  size_t MemoryBytes() const;

 private:
  struct Ring {
    std::vector<Point> points;  // capacity_ slots, preallocated
    size_t next = 0;            // slot the next sample lands in
    size_t size = 0;            // valid samples (<= capacity_)
  };

  Ring* FindOrCreateLocked(const std::string& series);
  void RecordLocked(const std::string& series, double t_ms, double value);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Ring>>> series_;
};

/// \brief WAL fsync stall probe: the commit leader publishes the
/// monotonic-ms timestamp when it enters fsync and clears it when the
/// fsync returns; the Service watchdog reads it to flag an fsync stuck
/// past its threshold (disk gone away, saturated device). 0 = no fsync
/// in flight. Only ever one commit-leader fsync runs at a time, so a
/// single process-wide slot suffices.
void SetFsyncInFlight(double start_ms);
void ClearFsyncInFlight();
double FsyncInFlightSinceMs();

}  // namespace dbwipes

#endif  // DBWIPES_COMMON_TELEMETRY_H_
