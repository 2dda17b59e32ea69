#ifndef DBWIPES_COMMON_EXEC_CONTEXT_H_
#define DBWIPES_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbwipes/common/status.h"

namespace dbwipes {

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

class CancellationSource;

/// \brief Read side of a cooperative cancellation flag.
///
/// A default-constructed token is the null token: it can never become
/// cancelled and costs one pointer compare per check. Tokens are cheap
/// to copy (shared_ptr) and safe to read from any thread while the
/// owning CancellationSource may cancel concurrently.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool IsCancelled() const {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_acquire);
  }

  /// The reason passed to Cancel(), or "" while not cancelled.
  std::string reason() const;

 private:
  friend class CancellationSource;
  struct State {
    std::atomic<bool> cancelled{false};
    mutable std::mutex mu;
    std::string reason;  // written once, before `cancelled` is set
  };
  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// \brief Write side: owns the flag, hands out tokens, trips them.
///
/// Copyable (copies share the same flag) so a Service can keep a
/// handle to the in-flight request's source while the request thread
/// holds another.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<CancellationToken::State>()) {}

  /// Idempotent; the first call's reason wins.
  void Cancel(std::string reason = "cancelled");

  bool cancelled() const {
    return state_->cancelled.load(std::memory_order_acquire);
  }

  CancellationToken token() const { return CancellationToken(state_); }

 private:
  std::shared_ptr<CancellationToken::State> state_;
};

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

/// \brief A steady-clock expiry point. Default-constructed = infinite
/// (never expires, one branch per check). Composes with tokens via
/// ExecContext::StopRequested().
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite deadline.
  Deadline() = default;

  static Deadline After(double ms) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
    return d;
  }
  static Deadline Infinite() { return Deadline(); }

  bool infinite() const { return infinite_; }
  bool expired() const { return !infinite_ && Clock::now() >= at_; }

  /// Milliseconds until expiry (negative once past), +inf if infinite.
  double remaining_ms() const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(at_ - Clock::now())
        .count();
  }

 private:
  bool infinite_ = true;
  Clock::time_point at_{};
};

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Exit code a crash fault terminates the process with (via _exit, so
/// no destructors, atexit hooks, or buffered-I/O flushes run — the
/// closest in-process stand-in for a power cut). The crash-recovery
/// harness asserts on this code to tell an injected kill apart from a
/// sanitizer abort or a genuine crash.
constexpr int kFaultCrashExit = 61;

/// \brief Test-armable failure registry behind the DBW_FAULT sites.
///
/// Production code never allocates one: ExecContext::faults stays
/// nullptr and a fault site is a single pointer compare. Tests arm a
/// site by name to return an error Status, inject latency, trip a
/// CancellationSource, hard-crash the process (`crash`), or shape I/O
/// (`short_write_limit`); each armed fault fires `count` times
/// (default: every hit), optionally after `skip` pass-through hits —
/// the seam the crash harness uses to kill a child at "the Nth append"
/// rather than the first. Thread-safe.
class FaultInjector {
 public:
  struct Fault {
    /// Returned from the site when non-OK (kError behavior).
    Status status = Status::OK();
    /// Sleep this long at the site before continuing (latency fault).
    double latency_ms = 0.0;
    /// Trip this source at the site (cancellation fault).
    std::shared_ptr<CancellationSource> trip;
    /// Hits before the fault disarms itself; 0 = fire forever.
    size_t count = 0;
    /// Pass-through hits before the fault starts firing (armable "crash
    /// at the Nth hit" points for the kill matrix).
    size_t skip = 0;
    /// _exit(kFaultCrashExit) when the fault fires. Hit() crashes at
    /// the site; HitIo() leaves the crash to the caller so a torn
    /// partial write can land first.
    bool crash = false;
    /// >0: an I/O site consuming this fault may write at most this many
    /// bytes before failing — a short write (ENOSPC/EIO mid-record),
    /// the generator for torn WAL tails.
    size_t short_write_limit = 0;
  };

  /// Arms (or re-arms) `site`.
  void Arm(const std::string& site, Fault fault);
  /// Shorthand: arm `site` to return `status` on every hit.
  void ArmError(const std::string& site, Status status);
  /// Shorthand: arm `site` to _exit(kFaultCrashExit) on its
  /// `skip+1`-th hit.
  void ArmCrash(const std::string& site, size_t skip = 0);
  void Disarm(const std::string& site);
  void DisarmAll();

  /// Times `site` was hit while armed (including skipped hits).
  size_t hits(const std::string& site) const;

  /// Called by DBW_FAULT when an injector is installed. Applies the
  /// armed behavior for `site` (latency, then trip, then crash, then
  /// status); unarmed or still-skipping sites return OK.
  Status Hit(const std::string& site);

  /// I/O-site variant: applies latency and trip, then hands the fired
  /// fault back instead of acting on crash/status, so the caller can
  /// interleave them with real I/O (write `short_write_limit` bytes,
  /// THEN crash or fail). Returns false when nothing fired.
  bool HitIo(const std::string& site, Fault* fired);

 private:
  /// Consumes one hit: skip/count bookkeeping under the lock; true when
  /// the fault fires, with a copy in *out.
  bool Consume(const std::string& site, Fault* out);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Fault> armed_;
  std::unordered_map<std::string, size_t> hits_;
};

/// The canonical list of fault-site names compiled into the pipeline.
/// Naming convention: "<stage>/<step>" with stages matching the source
/// layout (scorer, match, ranker, enumerate, pipeline). Tests iterate
/// this list to prove every site degrades cleanly; keep it in sync
/// when adding a DBW_FAULT.
const std::vector<std::string>& AllFaultSites();

/// The I/O fault sites compiled into the durability paths (WAL append/
/// fsync/rotate, snapshot write/rename/dirsync, checkpoint begin/
/// truncate). These sit on the storage side rather than the explain
/// pipeline, so they are hit through FaultInjector::Hit/HitIo directly
/// (no ExecContext flows there). The crash harness iterates this list
/// as its kill-point menu; keep it in sync when adding a site.
const std::vector<std::string>& AllIoFaultSites();

/// The replication network fault sites ("repl/*"): connect, handshake,
/// frame send/receive, snapshot chunking, corruption, and apply. Kept
/// separate from AllIoFaultSites so the WAL crash harness's kill-point
/// menu (and its run budget) is not diluted by sites that never fire
/// in a single-node child; the failover matrix iterates this list
/// instead.
const std::vector<std::string>& AllReplicationFaultSites();

// ---------------------------------------------------------------------------
// ExecContext
// ---------------------------------------------------------------------------

/// \brief Everything a pipeline stage needs to stop early: the
/// cancellation token and the deadline, plus the fault registry.
/// Default-constructed = run to completion (all checks reduce to a
/// couple of branches). Passed by const reference down the
/// query -> enumerate -> match -> score -> rank pipeline; cheap to
/// copy.
class ExecContext {
 public:
  ExecContext() = default;

  CancellationToken token;
  Deadline deadline;
  FaultInjector* faults = nullptr;  // not owned; null in production

  /// True once the work should wind down (cancelled or past deadline).
  bool StopRequested() const {
    return token.IsCancelled() || deadline.expired();
  }

  /// OK while the work may continue; otherwise the interrupt Status
  /// that explains why (kCancelled before kDeadlineExceeded when both
  /// hold, so an explicit cancel is never misreported as a timeout).
  Status CheckContinue() const;

  /// Shared run-to-completion context for default arguments.
  static const ExecContext& None();
};

}  // namespace dbwipes

/// Named fault site: no-op (one pointer compare) unless a test has
/// installed a FaultInjector on the context. Must appear in
/// AllFaultSites(). Usable in functions returning Status or Result<T>.
#define DBW_FAULT(ctx, site)                          \
  do {                                                \
    if ((ctx).faults != nullptr) {                    \
      ::dbwipes::Status _fault_st = (ctx).faults->Hit(site); \
      if (!_fault_st.ok()) return _fault_st;          \
    }                                                 \
  } while (false)

#endif  // DBWIPES_COMMON_EXEC_CONTEXT_H_
