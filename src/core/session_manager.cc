#include "dbwipes/core/session_manager.h"

#include <algorithm>

#include "dbwipes/common/retry.h"

namespace dbwipes {

namespace {

/// Attached to the kResourceExhausted status as a "[retry_after_ms=N]"
/// hint so RetryTransient waits at least this long before hammering a
/// full session table again.
constexpr double kRetryAfterHintMs = 25.0;

double MsSince(std::chrono::steady_clock::time_point then,
               std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

}  // namespace

SessionManager::SessionManager(std::shared_ptr<Database> db,
                               ExplainOptions explain_options)
    : SessionManager(std::move(db), std::move(explain_options), Options()) {}

SessionManager::SessionManager(std::shared_ptr<Database> db,
                               ExplainOptions explain_options, Options options)
    : db_(std::move(db)),
      explain_options_(std::move(explain_options)),
      options_(options) {}

Status SessionManager::ValidateName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("session name must not be empty");
  }
  if (name.size() > 64) {
    return Status::InvalidArgument("session name longer than 64 characters");
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) {
      return Status::InvalidArgument(
          "session name may contain only letters, digits, '_', '-', '.': '" +
          name + "'");
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<ManagedSession>> SessionManager::GetOrCreate(
    const std::string& name) {
  DBW_RETURN_NOT_OK(ValidateName(name));
  const Clock::time_point now = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      it->second.last_used = now;
      return it->second.session;
    }
  }
  // At capacity: make room from the idle pool before refusing.
  if (size() >= options_.max_sessions) {
    if (options_.idle_timeout_ms > 0.0) EvictIdle();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);  // lost a creation race? reuse theirs
  if (it != entries_.end()) {
    it->second.last_used = now;
    return it->second.session;
  }
  if (entries_.size() >= options_.max_sessions) {
    return WithRetryAfterHint(
        Status::ResourceExhausted(
            "session limit reached (" + std::to_string(options_.max_sessions) +
            " live sessions); drop or evict one first"),
        kRetryAfterHintMs);
  }
  Entry entry;
  entry.session = std::make_shared<ManagedSession>(db_, explain_options_);
  entry.last_used = now;
  auto inserted = entries_.emplace(name, std::move(entry));
  return inserted.first->second.session;
}

std::shared_ptr<ManagedSession> SessionManager::Find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  it->second.last_used = Clock::now();
  return it->second.session;
}

Status SessionManager::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no session named '" + name + "'");
  }
  entries_.erase(it);
  return Status::OK();
}

std::vector<std::string> SessionManager::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(entries_.size());
    for (const auto& kv : entries_) names.push_back(kv.first);
  }
  std::sort(names.begin(), names.end());
  return names;
}

double SessionManager::IdleMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return -1.0;
  return MsSince(it->second.last_used, Clock::now());
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t SessionManager::EvictIdleOlderThan(double idle_ms) {
  const Clock::time_point now = Clock::now();
  size_t evicted = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (MsSince(it->second.last_used, now) > idle_ms) {
      // A session mid-command is busy, not idle, regardless of when it
      // was acquired.
      std::unique_lock<std::mutex> busy(it->second.session->mu,
                                        std::try_to_lock);
      if (busy.owns_lock()) {
        busy.unlock();
        it = entries_.erase(it);
        ++evicted;
        continue;
      }
    }
    ++it;
  }
  return evicted;
}

size_t SessionManager::EvictIdle() {
  if (options_.idle_timeout_ms <= 0.0) return 0;
  return EvictIdleOlderThan(options_.idle_timeout_ms);
}

}  // namespace dbwipes
