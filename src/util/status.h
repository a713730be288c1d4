// Lightweight Status / Result types for recoverable errors.
//
// C++ exceptions are reserved for programming errors (contract violations);
// expected failure paths — lock conflicts, aborted transactions, protocol
// violations — travel through Status/Result values, following the library's
// own subject matter: an exception *model* is data, not control flow of the
// host language.
#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace caa {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kAborted,        // transaction / action aborted
  kConflict,       // lock conflict (wait-die victim)
  kInternal,
};

[[nodiscard]] constexpr std::string_view to_string(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kConflict: return "CONFLICT";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// A success-or-error value with an optional human-readable message.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return {}; }
  static Status invalid_argument(std::string m) { return {StatusCode::kInvalidArgument, std::move(m)}; }
  static Status not_found(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
  static Status already_exists(std::string m) { return {StatusCode::kAlreadyExists, std::move(m)}; }
  static Status failed_precondition(std::string m) { return {StatusCode::kFailedPrecondition, std::move(m)}; }
  static Status aborted(std::string m) { return {StatusCode::kAborted, std::move(m)}; }
  static Status conflict(std::string m) { return {StatusCode::kConflict, std::move(m)}; }
  static Status internal(std::string m) { return {StatusCode::kInternal, std::move(m)}; }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

  friend std::ostream& operator<<(std::ostream& os, const Status& s) {
    os << to_string(s.code_);
    if (!s.message_.empty()) os << ": " << s.message_;
    return os;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Result<T>: either a value or a Status describing why there is none.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}            // NOLINT implicit
  Result(Status status) : value_(std::move(status)) {      // NOLINT implicit
    assert(!std::get<Status>(value_).is_ok() && "Result error must not be OK");
  }

  [[nodiscard]] bool is_ok() const { return std::holds_alternative<T>(value_); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] const T& value() const& {
    assert(is_ok());
    return std::get<T>(value_);
  }
  [[nodiscard]] T& value() & {
    assert(is_ok());
    return std::get<T>(value_);
  }
  [[nodiscard]] T&& take() && {
    assert(is_ok());
    return std::get<T>(std::move(value_));
  }

  [[nodiscard]] Status status() const {
    if (is_ok()) return Status::ok();
    return std::get<Status>(value_);
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return is_ok() ? std::get<T>(value_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> value_;
};

}  // namespace caa
