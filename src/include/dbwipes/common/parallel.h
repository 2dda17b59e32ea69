#ifndef DBWIPES_COMMON_PARALLEL_H_
#define DBWIPES_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "dbwipes/common/status.h"

namespace dbwipes {
class ExecContext;
}

namespace dbwipes {

/// Worker-thread count used when a caller asks for "auto" parallelism:
/// the hardware concurrency, overridable (e.g. for tests or container
/// limits) via the DBWIPES_THREADS environment variable. Always >= 1.
size_t DefaultParallelism();

/// \brief A lazily started, process-wide pool of worker threads that
/// executes chunked index ranges.
///
/// The pool exists so that hot ranking paths can fan out hundreds of
/// independent predicate evaluations without paying thread start-up
/// cost per call. One parallel region runs at a time (calls are
/// serialized internally), and beside it at most one TryRunBeside
/// function; a ParallelFor issued from inside a worker runs inline on
/// that worker, so nested use degrades to serial instead of
/// deadlocking.
class ThreadPool {
 public:
  /// The shared pool, sized to DefaultParallelism() workers on first
  /// use.
  static ThreadPool& Global();

  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// \brief Monotonic utilization counters, readable at any time.
  ///
  /// `busy_ms` sums wall time spent inside chunk bodies across every
  /// thread, so per-chunk utilization over an interval is
  /// delta(busy_ms) / (interval_ms * (num_threads + 1)). `peak_queue_
  /// depth` is the largest number of chunks ever queued by one region
  /// (the pool drains regions one at a time, so this is the high-water
  /// queue depth). Snapshots are relaxed-atomic reads; deltas between
  /// two snapshots around a pipeline run give that run's share.
  struct StatsSnapshot {
    uint64_t regions = 0;        // Run() invocations with work
    uint64_t chunks = 0;         // chunk bodies executed
    double busy_ms = 0.0;        // wall time inside chunk bodies
    uint64_t peak_queue_depth = 0;
  };
  StatsSnapshot stats() const;

  /// Runs fn(chunk) for every chunk in [0, num_chunks), distributing
  /// chunks dynamically over the workers plus the calling thread, and
  /// returns when all chunks finished. fn must be safe to call
  /// concurrently from multiple threads; determinism is the caller's
  /// job (write only to chunk-owned output slots).
  ///
  /// Task failure has a defined path: if a chunk throws, the exception
  /// with the lowest chunk index is captured, chunks not yet claimed
  /// are skipped (in-flight chunks finish), and the exception is
  /// rethrown on the calling thread after the region drains — a worker
  /// never terminates the process. The pool stays usable afterwards.
  void Run(size_t num_chunks, const std::function<void(size_t)>& fn);

  /// Runs `side` on a worker while the calling thread runs `main`, and
  /// returns when both finished. If no worker has taken `side` by the
  /// time `main` returns, the calling thread runs it too. A ParallelFor
  /// inside `main` runs inline. Exceptions are rethrown on the calling
  /// thread, `main`'s first. Returns false at once, running neither,
  /// when the pool has no workers, is called from inside the pool, is
  /// running a Run region or already runs a `side`: the caller then
  /// runs both itself, so it never queues behind another region. `side`
  /// has its own slot: a Run that starts meanwhile does not wait for
  /// it, and drains its chunks on the other workers.
  bool TryRunBeside(const std::function<void()>& side,
                    const std::function<void()>& main);

 private:
  void WorkerLoop();
  /// Claims and executes chunks of the current task until exhausted.
  void DrainCurrentTask();
  /// Runs fn, adds its wall time to the utilization counters, and
  /// returns what it threw.
  std::exception_ptr RunCounted(const std::function<void()>& fn);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a task
  std::condition_variable done_cv_;  // Run waits for completion
  const std::function<void(size_t)>* task_ = nullptr;
  size_t task_epoch_ = 0;
  size_t num_chunks_ = 0;
  size_t next_chunk_ = 0;
  size_t chunks_done_ = 0;
  /// First (lowest-chunk-index) exception thrown by the current task.
  std::exception_ptr task_error_;
  size_t task_error_chunk_ = 0;
  /// TryRunBeside's slot: the `side` no worker has taken yet, whether a
  /// call holds the slot, and the taken side's outcome.
  const std::function<void()>* side_ = nullptr;
  bool side_busy_ = false;
  bool side_done_ = false;
  std::exception_ptr side_error_;
  std::condition_variable side_cv_;  // a worker finished `side`
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
  // Utilization counters (relaxed; see StatsSnapshot).
  std::atomic<uint64_t> stat_regions_{0};
  std::atomic<uint64_t> stat_chunks_{0};
  std::atomic<uint64_t> stat_busy_ns_{0};
  std::atomic<uint64_t> stat_peak_queue_{0};
};

/// Tuning knobs for ParallelFor.
struct ParallelOptions {
  /// Worker threads to use; 0 = DefaultParallelism(). 1 forces the
  /// serial path (no pool involvement at all).
  size_t num_threads = 0;
  /// Below this many items the loop runs serially: spawning chunks for
  /// tiny loops costs more than it saves.
  size_t min_items_for_threading = 64;
  /// Cooperative-stop context (not owned; may be null). When set,
  /// every chunk checks StopRequested() before running: once the token
  /// trips or the deadline expires, remaining chunks are skipped, so a
  /// parallel region winds down within one chunk's latency. Which
  /// chunks ran is then timing-dependent — anytime callers that need a
  /// deterministic cut must track per-chunk completion themselves (the
  /// ranker does).
  const ExecContext* ctx = nullptr;
};

/// Runs fn(begin, end) over disjoint subranges covering [begin, end).
/// Chunk boundaries depend only on the range size and options — never
/// on thread scheduling — so a body that writes result[i] for
/// i in [begin, end) produces identical output at every thread count
/// (including 1).
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& chunk_fn,
                 const ParallelOptions& options = {});

/// Per-index convenience wrapper over ParallelFor.
void ParallelForEach(size_t begin, size_t end,
                     const std::function<void(size_t)>& fn,
                     const ParallelOptions& options = {});

/// Status-aware variant: runs fn(i) for every i in [0, n); if any call
/// fails, the failure of the *lowest* index is returned (deterministic
/// regardless of which thread observed it first). Indices after a
/// failing one may or may not have run. A chunk that throws is
/// surfaced as StatusCode::kRuntimeError instead of propagating the
/// exception; options.ctx interruption is reported via its
/// CheckContinue() status.
Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& fn,
                         const ParallelOptions& options = {});

}  // namespace dbwipes

#endif  // DBWIPES_COMMON_PARALLEL_H_
