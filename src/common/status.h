#ifndef DYNVIEW_COMMON_STATUS_H_
#define DYNVIEW_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace dynview {

/// Error category for a failed operation. Codes mirror the subsystems of the
/// library: parse errors come from the SQL front end, binding errors from the
/// analyzer, and so on. `kOk` means success.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kParseError,
  kBindError,
  kTypeError,
  kEvalError,
  kUnsupported,
  kInternal,
  // Query-guard and fault-tolerance codes (see common/query_context.h):
  kDeadlineExceeded,   // the query's deadline passed before completion
  kCancelled,          // cooperative cancellation was requested
  kResourceExhausted,  // a row/memory budget tripped
  kUnavailable,        // a source is (possibly transiently) unreachable
  // Durable state that cannot be applied: a checksummed record that does
  // not decode, or a logged change that does not fit the state it replays
  // onto.
  kDataLoss,
};

/// Returns a human-readable name for `code` (e.g. "ParseError").
const char* StatusCodeName(StatusCode code);

/// True for codes a retry can plausibly cure (a source that may come back).
/// Guard trips (deadline/cancel/budget) and semantic errors are permanent
/// for the current query and never retried or skipped.
inline bool IsTransient(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

/// Lightweight success-or-error result carrier used in place of exceptions
/// (the project follows the Google C++ guide, which forbids exceptions).
///
/// A `Status` is cheap to copy when OK (no allocation) and carries a code and
/// message otherwise. Functions that produce a value use `Result<T>` from
/// common/result.h instead.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given error `code` and `message`.
  /// `code` must not be kOk; use the default constructor for success.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

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
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status EvalError(std::string msg) {
    return Status(StatusCode::kEvalError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Formats as "Code: message" (or "OK").
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace dynview

/// Propagates a non-OK `Status` to the caller. Usable only in functions whose
/// return type is convertible from `Status`.
#define DV_RETURN_IF_ERROR(expr)               \
  do {                                         \
    ::dynview::Status _dv_st = (expr);         \
    if (!_dv_st.ok()) return _dv_st;           \
  } while (0)

#endif  // DYNVIEW_COMMON_STATUS_H_
