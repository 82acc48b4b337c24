// Structured error propagation for the execution core. A Status is a cheap
// value type (code + message) that crosses layer boundaries without the
// type erasure of std::exception; StatusOr<T> carries either a value or the
// Status explaining its absence. This is the failure vocabulary of the
// deserialization layer (io/serialize.h), the batch executor's per-item
// fault isolation (exec/batch_executor.h), and the noise-margin audit
// (noise/measure.h) -- see DESIGN.md "Failure model and fault-injection
// contract" for the taxonomy.
//
// Exceptions remain the transport *inside* a layer (a deep kernel cannot
// thread a Status through twelve stack frames of hot-path signatures); each
// layer boundary catches and converts via status_from_exception. Programmer
// errors (API misuse detectable at the call site) stay exceptions and are
// never converted to Status.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace matcha {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,   ///< malformed request or payload (bad magic, bad spec)
  kOutOfRange,        ///< a length/index fails its bounds check
  kDataLoss,          ///< corruption detected: truncation, garble, bit flip
  kFailedPrecondition,///< version skew, wrong object type, stale state
  kResourceExhausted, ///< allocation failure, capacity cap hit
  kDeadlineExceeded,  ///< the batch watchdog cancelled outstanding work
  kAborted,           ///< cancelled because a sibling failure tore down the run
  kUnavailable,       ///< transient: a retry may succeed (injected faults)
  kInternal,          ///< invariant violation / unclassified exception
};

const char* status_code_name(StatusCode code);

class [[nodiscard]] Status {
 public:
  Status() = default; ///< OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok_status() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (ok()) return "OK";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status invalid_argument_status(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status out_of_range_status(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status data_loss_status(std::string msg) {
  return Status(StatusCode::kDataLoss, std::move(msg));
}
inline Status failed_precondition_status(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status resource_exhausted_status(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
inline Status deadline_exceeded_status(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}
inline Status aborted_status(std::string msg) {
  return Status(StatusCode::kAborted, std::move(msg));
}
inline Status unavailable_status(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status internal_status(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}

/// The exception bridge: thrown where a failure is detected deep inside a
/// layer (an io reader, graph construction, the executor), and caught at
/// layer boundaries to recover the structured Status it carries.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Convert an in-flight exception (from a catch block) into a Status:
/// StatusError keeps its payload, bad_alloc maps to kResourceExhausted,
/// everything else to `fallback` with the exception's message.
Status status_from_exception(StatusCode fallback = StatusCode::kInternal);

/// A value or the Status explaining its absence. Minimal by design: the
/// callers here always branch on ok() before touching the value.
template <class T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) { // NOLINT(implicit)
    if (status_.ok()) {
      status_ = internal_status("StatusOr constructed from an OK status");
    }
  }
  StatusOr(T value) : value_(std::move(value)) {} // NOLINT(implicit)
  StatusOr(StatusOr&&) = default;
  StatusOr& operator=(StatusOr&&) = default;
  StatusOr(const StatusOr&) = delete;
  StatusOr& operator=(const StatusOr&) = delete;

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Value access requires ok(); misuse is a programmer error and throws.
  T& value() & {
    check();
    return *value_;
  }
  const T& value() const& {
    check();
    return *value_;
  }
  T&& value() && {
    check();
    return std::move(*value_);
  }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void check() const {
    if (!value_) throw StatusError(status_);
  }

  Status status_;
  std::optional<T> value_;
};

} // namespace matcha
