#ifndef TELL_COMMON_STATUS_H_
#define TELL_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace tell {

/// Outcome codes used across the system. Following the RocksDB/Arrow idiom,
/// all fallible operations return a Status (or Result<T>) instead of throwing.
enum class StatusCode : int {
  kOk = 0,
  /// Key / record / table does not exist.
  kNotFound = 1,
  /// A store-conditional (LL/SC) failed because the cell changed. This is the
  /// signal for a write-write conflict under snapshot isolation.
  kConditionFailed = 2,
  /// A transaction was aborted (conflict or user abort).
  kAborted = 3,
  /// Caller passed something malformed.
  kInvalidArgument = 4,
  /// The target node/service is down or unreachable.
  kUnavailable = 5,
  /// Uniqueness violation (e.g. duplicate primary key or index entry).
  kAlreadyExists = 6,
  /// Stored bytes failed to deserialize.
  kCorruption = 7,
  /// Storage node ran out of configured memory capacity.
  kCapacityExceeded = 8,
  /// Invariant violation inside the system; indicates a bug.
  kInternalError = 9,
  /// Operation not supported by this engine/configuration.
  kNotSupported = 10,
};

/// A lightweight success/error value. Ok status carries no allocation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "not found") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ConditionFailed(std::string msg = "condition failed") {
    return Status(StatusCode::kConditionFailed, std::move(msg));
  }
  static Status Aborted(std::string msg = "transaction aborted") {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status AlreadyExists(std::string msg = "already exists") {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status CapacityExceeded(std::string msg) {
    return Status(StatusCode::kCapacityExceeded, std::move(msg));
  }
  static Status InternalError(std::string msg) {
    return Status(StatusCode::kInternalError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsConditionFailed() const {
    return code_ == StatusCode::kConditionFailed;
  }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsCapacityExceeded() const {
    return code_ == StatusCode::kCapacityExceeded;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

/// Name of a status code, e.g. "NotFound".
std::string_view StatusCodeName(StatusCode code);

}  // namespace tell

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define TELL_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::tell::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                   \
  } while (false)

#endif  // TELL_COMMON_STATUS_H_
