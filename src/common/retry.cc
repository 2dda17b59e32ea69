#include "dbwipes/common/retry.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <random>
#include <thread>

namespace dbwipes {

namespace {

double ThreadLocalUniform() {
  thread_local std::mt19937_64 rng(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) ^
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()));
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

void SleepOrCapture(const RetryPolicy& policy, double ms) {
  if (policy.sleep_fn) {
    policy.sleep_fn(ms);
    return;
  }
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

}  // namespace

ErrorClass ClassifyStatus(const Status& status) {
  switch (status.code()) {
    // The environment may recover: I/O hiccups, internal runtime
    // failures (the injected-fault family), missed deadlines, and
    // exhausted resources (the session cap).
    case StatusCode::kIoError:
    case StatusCode::kRuntimeError:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return ErrorClass::kTransient;
    // The request itself is wrong, the answer cannot change, or the
    // client explicitly asked the work to stop (kCancelled).
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kNotImplemented:
    case StatusCode::kCancelled:
      return ErrorClass::kPermanent;
  }
  return ErrorClass::kPermanent;
}

const char* ErrorClassToString(ErrorClass c) {
  return c == ErrorClass::kTransient ? "transient" : "permanent";
}

double RetryPolicy::BackoffMs(size_t attempt) const {
  if (attempt == 0) attempt = 1;
  double backoff = initial_backoff_ms;
  for (size_t i = 1; i < attempt; ++i) {
    backoff *= backoff_multiplier;
    if (backoff >= max_backoff_ms) break;
  }
  return std::min(std::max(backoff, 0.0), max_backoff_ms);
}

void RetryPolicy::Backoff(size_t attempt) const {
  SleepOrCapture(*this, BackoffMs(attempt));
}

BackoffSequence::BackoffSequence(const RetryPolicy& policy)
    : policy_(policy) {}

double BackoffSequence::NextMs() {
  ++attempt_;
  double ms;
  if (policy_.jitter) {
    // Decorrelated jitter: uniform in [initial, prev*3], capped. Each
    // sleep depends on the previous DRAW (not the attempt number), so
    // two clients that collided once diverge for good.
    const double lo = std::max(policy_.initial_backoff_ms, 0.0);
    const double hi =
        std::min(std::max(prev_ms_ * 3.0, lo), policy_.max_backoff_ms);
    const double u = policy_.rand_fn ? policy_.rand_fn() : ThreadLocalUniform();
    ms = lo + u * (hi - lo);
  } else {
    ms = policy_.BackoffMs(attempt_);
  }
  if (retry_after_ms_ > 0.0) {
    // The server's hint is a floor, not a replacement: a jittered
    // excess on top keeps the unblocked herd spread out.
    ms = std::max(ms, retry_after_ms_);
    retry_after_ms_ = 0.0;
  }
  ms = std::min(std::max(ms, 0.0), policy_.max_backoff_ms);
  prev_ms_ = ms;
  return ms;
}

void BackoffSequence::Backoff() { SleepOrCapture(policy_, NextMs()); }

void BackoffSequence::ObserveRetryAfterMs(double ms) {
  if (ms > 0.0) retry_after_ms_ = std::max(retry_after_ms_, ms);
}

double RetryAfterHintMs(const Status& status) {
  const std::string& msg = status.message();
  const std::string tag = "[retry_after_ms=";
  const size_t pos = msg.rfind(tag);
  if (pos == std::string::npos) return 0.0;
  const char* start = msg.c_str() + pos + tag.size();
  char* end = nullptr;
  const double ms = std::strtod(start, &end);
  if (end == start || *end != ']') return 0.0;
  return ms > 0.0 ? ms : 0.0;
}

Status WithRetryAfterHint(Status status, double retry_after_ms) {
  if (status.ok() || retry_after_ms <= 0.0) return status;
  return Status(status.code(), status.message() + " [retry_after_ms=" +
                                   std::to_string(retry_after_ms) + "]");
}

bool ResponseRetryable(const std::string& response, double* retry_after_ms) {
  if (retry_after_ms != nullptr) *retry_after_ms = 0.0;
  if (response.find("\"ok\": false") == std::string::npos) return false;
  if (response.find("\"retryable\": true") == std::string::npos) return false;
  const std::string key = "\"retry_after_ms\": ";
  const size_t pos = response.find(key);
  if (pos != std::string::npos && retry_after_ms != nullptr) {
    const double ms = std::strtod(response.c_str() + pos + key.size(), nullptr);
    if (ms > 0.0) *retry_after_ms = ms;
  }
  return true;
}

}  // namespace dbwipes
