#include "dbwipes/common/exec_context.h"

#include <unistd.h>

#include <thread>

namespace dbwipes {

std::string CancellationToken::reason() const {
  if (!IsCancelled()) return "";
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->reason;
}

void CancellationSource::Cancel(std::string reason) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->cancelled.load(std::memory_order_relaxed)) return;
    state_->reason = std::move(reason);
  }
  state_->cancelled.store(true, std::memory_order_release);
}

void FaultInjector::Arm(const std::string& site, Fault fault) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_[site] = std::move(fault);
}

void FaultInjector::ArmError(const std::string& site, Status status) {
  Fault f;
  f.status = std::move(status);
  Arm(site, std::move(f));
}

void FaultInjector::ArmCrash(const std::string& site, size_t skip) {
  Fault f;
  f.crash = true;
  f.skip = skip;
  f.count = 1;
  Arm(site, std::move(f));
}

void FaultInjector::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.erase(site);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
}

size_t FaultInjector::hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(site);
  return it == hits_.end() ? 0 : it->second;
}

bool FaultInjector::Consume(const std::string& site, Fault* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = armed_.find(site);
  if (it == armed_.end()) return false;
  ++hits_[site];
  if (it->second.skip > 0) {
    --it->second.skip;
    return false;
  }
  *out = it->second;
  if (it->second.count > 0 && --it->second.count == 0) armed_.erase(it);
  return true;
}

Status FaultInjector::Hit(const std::string& site) {
  Fault fault;
  if (!Consume(site, &fault)) return Status::OK();
  // Apply outside the lock: latency must not serialize other sites.
  if (fault.latency_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(fault.latency_ms));
  }
  if (fault.trip != nullptr) {
    fault.trip->Cancel("fault injector tripped at " + site);
  }
  if (fault.crash) ::_exit(kFaultCrashExit);
  return fault.status;
}

bool FaultInjector::HitIo(const std::string& site, Fault* fired) {
  if (!Consume(site, fired)) return false;
  if (fired->latency_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(fired->latency_ms));
  }
  if (fired->trip != nullptr) {
    fired->trip->Cancel("fault injector tripped at " + site);
  }
  return true;
}

const std::vector<std::string>& AllFaultSites() {
  static const std::vector<std::string> sites = {
      "scorer/create",        // RemovalScorer::Create entry
      "match/materialize",    // MatchEngine::Materialize entry
      "enumerate/datasets",   // DatasetEnumerator::Enumerate entry
      "enumerate/clean",      // DatasetEnumerator::CleanDPrime entry
      "enumerate/predicates", // PredicateEnumerator::Enumerate entry
      "ranker/rank",          // PredicateRanker::RankAnytime entry
      "ranker/score",         // per scoring block, before scoring it
      "ranker/shard",         // per shard, before materializing its slice
      "pipeline/explain",     // DBWipes::Explain entry
  };
  return sites;
}

const std::vector<std::string>& AllIoFaultSites() {
  static const std::vector<std::string> sites = {
      "wal/open",            // segment scan/open during WriteAheadLog::Open
      "wal/record",          // per record, before it joins the commit batch
      "wal/write",           // the batch write syscall (short-write capable)
      "wal/fsync",           // before fsync of the active segment
      "wal/ack",             // after fsync, before the append acknowledges
      "wal/rotate",          // before creating the next segment
      "wal/truncate",        // before unlinking checkpointed segments
      "snapshot/open",       // opening the snapshot temp file
      "snapshot/write",      // the snapshot body write (short-write capable)
      "snapshot/fsync",      // before fsync of the temp file
      "snapshot/rename",     // before the atomic rename into place
      "snapshot/dirsync",    // before fsync of the parent directory
      "checkpoint/begin",    // checkpoint entry, before collecting state
      "checkpoint/truncate", // after the snapshot, before WAL truncation
  };
  return sites;
}

const std::vector<std::string>& AllReplicationFaultSites() {
  static const std::vector<std::string> sites = {
      "repl/connect",        // follower dialing the primary
      "repl/handshake",      // primary handling a follower HELLO
      "repl/send_frame",     // per WAL frame, before it goes on the wire
      "repl/corrupt_frame",  // flips a frame byte after checksumming
      "repl/snapshot_chunk", // per snapshot chunk during bootstrap
      "repl/recv_frame",     // follower handling a received frame
      "repl/apply",          // follower, before applying a frame
  };
  return sites;
}

Status ExecContext::CheckContinue() const {
  if (token.IsCancelled()) {
    std::string reason = token.reason();
    return Status::Cancelled(reason.empty() ? "cancelled" : reason);
  }
  if (deadline.expired()) {
    return Status::DeadlineExceeded("deadline expired");
  }
  return Status::OK();
}

const ExecContext& ExecContext::None() {
  static const ExecContext none;
  return none;
}

}  // namespace dbwipes
