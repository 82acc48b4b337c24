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

#include <new>
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
  StatusOr(T value) // NOLINT(implicit)
      : status_(), has_value_(true) {
    new (&storage_) T(std::move(value));
  }
  StatusOr(StatusOr&& o) noexcept(std::is_nothrow_move_constructible_v<T>)
      : status_(std::move(o.status_)), has_value_(o.has_value_) {
    if (has_value_) new (&storage_) T(std::move(*o.ptr()));
  }
  StatusOr& operator=(StatusOr&& o) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &o) {
      destroy();
      status_ = std::move(o.status_);
      has_value_ = o.has_value_;
      if (has_value_) new (&storage_) T(std::move(*o.ptr()));
    }
    return *this;
  }
  StatusOr(const StatusOr&) = delete;
  StatusOr& operator=(const StatusOr&) = delete;
  ~StatusOr() { destroy(); }

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  /// Value access requires ok(); misuse is a programmer error and throws.
  T& value() & {
    check();
    return *ptr();
  }
  const T& value() const& {
    check();
    return *ptr();
  }
  T&& value() && {
    check();
    return std::move(*ptr());
  }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  T* ptr() { return std::launder(reinterpret_cast<T*>(&storage_)); }
  const T* ptr() const {
    return std::launder(reinterpret_cast<const T*>(&storage_));
  }
  void check() const {
    if (!has_value_) throw StatusError(status_);
  }
  void destroy() {
    if (has_value_) {
      ptr()->~T();
      has_value_ = false;
    }
  }

  Status status_;
  bool has_value_ = false;
  alignas(T) unsigned char storage_[sizeof(T)];
};

} // namespace matcha
