#pragma once

/// \file status.h
/// Lightweight error handling used across the library.
///
/// The library does not throw on hot paths.  Fallible construction/validation
/// APIs return `uc::Status` or `uc::Result<T>`; violated internal invariants
/// abort through `UC_ASSERT`, which is always on (simulation correctness bugs
/// must never be silently ignored — a wrong simulator produces plausible but
/// meaningless characterization numbers).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace uc {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kInternal,
  kUnimplemented,
};

/// Returns a short stable name ("OK", "INVALID_ARGUMENT", ...).
const char* status_code_name(StatusCode code);

/// Success-or-error value with a human-readable message on error.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status invalid_argument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status out_of_range(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status failed_precondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status not_found(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string to_string() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Value-or-Status result.  `value()` aborts if called on an error result,
/// mirroring the always-on assertion policy of the library.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)), status_() {}        // NOLINT
  Result(Status status) : value_(), status_(std::move(status)) {  // NOLINT
    if (status_.is_ok()) {
      std::fprintf(stderr, "uc::Result constructed from OK status\n");
      std::abort();
    }
  }

  bool is_ok() const { return status_.is_ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    require_ok();
    return value_;
  }
  T& value() & {
    require_ok();
    return value_;
  }
  T&& take() && {
    require_ok();
    return std::move(value_);
  }

 private:
  void require_ok() const {
    if (!status_.is_ok()) {
      std::fprintf(stderr, "uc::Result::value() on error: %s\n",
                   status_.to_string().c_str());
      std::abort();
    }
  }

  T value_;
  Status status_;
};

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const char* msg);
}  // namespace detail

}  // namespace uc

/// Always-on invariant check.  `msg` must be a string literal (no formatting;
/// keep the failure text stable and grep-able).
#define UC_ASSERT(cond, msg)                                     \
  do {                                                           \
    if (!(cond)) {                                               \
      ::uc::detail::assert_fail(#cond, __FILE__, __LINE__, msg); \
    }                                                            \
  } while (false)

/// Debug-only check for expensive conditions inside tight loops.  The
/// NDEBUG expansion references the condition unevaluated so parameters used
/// only in checks do not warn.
#ifdef NDEBUG
#define UC_DCHECK(cond, msg) ((void)sizeof(!(cond)))
#else
#define UC_DCHECK(cond, msg) UC_ASSERT(cond, msg)
#endif
