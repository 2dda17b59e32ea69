#ifndef DBWIPES_COMMON_STATUS_H_
#define DBWIPES_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace dbwipes {

/// \brief Error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kIoError,
  kParseError,
  kTypeError,
  kNotImplemented,
  kRuntimeError,
  // Interrupt codes (see IsInterrupt): the operation stopped early on
  // purpose — by a CancellationToken or an expired Deadline — rather
  // than failing.
  kCancelled,
  kDeadlineExceeded,
  // A resource limit refused the operation (the session cap): an
  // error, which ClassifyStatus marks transient.
  kResourceExhausted,
};

/// \brief Returns a human-readable name for a StatusCode ("OK",
/// "Invalid argument", ...).
const char* StatusCodeToString(StatusCode code);

/// \brief Arrow/RocksDB-style operation outcome: a code plus a message.
///
/// Functions that can fail return Status (or Result<T> when they also
/// produce a value). The OK state carries no allocation. Statuses are
/// cheap to copy and move; [[nodiscard]] makes the compiler reject a
/// call site that drops a failure on the floor (use IgnoreError() for
/// the rare deliberate discard).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status RuntimeError(std::string msg) {
    return Status(StatusCode::kRuntimeError, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsTypeError() const { return code_ == StatusCode::kTypeError; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// True for the interrupt family: cancellation or deadline expiry.
  /// The anytime pipeline turns these into partial results instead of
  /// errors.
  bool IsInterrupt() const {
    return code_ == StatusCode::kCancelled ||
           code_ == StatusCode::kDeadlineExceeded;
  }

  /// Explicitly discards a possibly-failed Status (satisfies
  /// [[nodiscard]] at call sites where failure is genuinely benign).
  void IgnoreError() const {}

  /// Returns "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace dbwipes

/// Propagates a non-OK Status to the caller.
#define DBW_RETURN_NOT_OK(expr)                 \
  do {                                          \
    ::dbwipes::Status _st = (expr);             \
    if (!_st.ok()) return _st;                  \
  } while (false)

#define DBW_CONCAT_IMPL(x, y) x##y
#define DBW_CONCAT(x, y) DBW_CONCAT_IMPL(x, y)

/// Evaluates a Result<T> expression; on error returns the Status, on
/// success binds the value to `lhs` (which may include a declaration).
#define DBW_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  DBW_ASSIGN_OR_RETURN_IMPL(DBW_CONCAT(_result_, __LINE__), lhs, rexpr)

#define DBW_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                              \
  if (!result_name.ok()) return result_name.status();      \
  lhs = std::move(result_name).ValueUnsafe();

#endif  // DBWIPES_COMMON_STATUS_H_
