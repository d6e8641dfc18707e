// Structured error taxonomy for the detect -> map -> evaluate pipeline.
//
// The resilience layer (DESIGN.md Sec. 11) replaces raw throws on the
// Machine::run and run_suite worker-pool paths with values of
// Expected<T>: either the result or an Error carrying a machine-readable
// code plus a human-readable message. Worker threads never let an
// exception escape — failures are folded into Errors, retried, and
// surfaced as degraded-mode events instead of tearing the process down.
//
// Header-only and dependency-free so any layer (sim, detect, mapping,
// core) can return structured errors without new link edges.
#pragma once

#include <string>
#include <utility>
#include <variant>

namespace tlbmap {

/// Failure taxonomy. Codes classify *what kind* of thing went wrong so
/// callers can pick a degradation strategy (retry, fall back, skip) without
/// parsing message strings.
///
/// The numeric values are persisted (a quarantined session's reason in the
/// service checkpoint), so a code keeps its number for good: 9 belonged to
/// a retired code and stays unused.
enum class ErrorCode {
  kInvalidArgument,   ///< caller passed an out-of-contract value
  kInvalidMapping,    ///< thread->core mapping not a valid placement
  kMalformedTrace,    ///< trace bytes violate the TLBT format
  kTruncatedTrace,    ///< trace ends mid-record
  kIoError,           ///< filesystem-level failure
  kWatchdogTimeout,   ///< Machine::run exceeded its event budget
  kDegenerateMatrix,  ///< comm matrix carries no mappable signal
  kMappingFailure,    ///< matcher could not produce a placement
  kWorkerFailure,     ///< suite worker task failed
  kCorruptCheckpoint = 10,  ///< checkpoint bytes fail magic/version/CRC checks
  kCheckpointMismatch,    ///< checkpoint is valid but for another config
  kCorruptTrace,          ///< trace record decodes to an impossible value
  kAdmissionRejected,     ///< service at capacity: new session refused
  kBackpressure,          ///< session ingest queue full: retry later
  kSessionQuarantined,    ///< session fault-isolated; reason inside
  kSaturatedMatrix,       ///< comm matrix pinned at its counter ceiling
};

inline const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kInvalidMapping: return "invalid_mapping";
    case ErrorCode::kMalformedTrace: return "malformed_trace";
    case ErrorCode::kTruncatedTrace: return "truncated_trace";
    case ErrorCode::kIoError: return "io_error";
    case ErrorCode::kWatchdogTimeout: return "watchdog_timeout";
    case ErrorCode::kDegenerateMatrix: return "degenerate_matrix";
    case ErrorCode::kMappingFailure: return "mapping_failure";
    case ErrorCode::kWorkerFailure: return "worker_failure";
    case ErrorCode::kCorruptCheckpoint: return "corrupt_checkpoint";
    case ErrorCode::kCheckpointMismatch: return "checkpoint_mismatch";
    case ErrorCode::kCorruptTrace: return "corrupt_trace";
    case ErrorCode::kAdmissionRejected: return "admission_rejected";
    case ErrorCode::kBackpressure: return "backpressure";
    case ErrorCode::kSessionQuarantined: return "session_quarantined";
    case ErrorCode::kSaturatedMatrix: return "saturated_matrix";
  }
  return "unknown";
}

struct Error {
  ErrorCode code = ErrorCode::kInvalidArgument;
  std::string message;

  std::string to_string() const {
    return std::string("[") + tlbmap::to_string(code) + "] " + message;
  }
};

/// Minimal expected/either: holds a T or an Error. Deliberately tiny — no
/// monadic combinators, just the checks the pipeline needs.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : v_(std::move(value)) {}        // NOLINT(runtime/explicit)
  Expected(Error error) : v_(std::move(error)) {}    // NOLINT(runtime/explicit)

  bool has_value() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return has_value(); }

  T& value() { return std::get<T>(v_); }
  const T& value() const { return std::get<T>(v_); }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  const Error& error() const { return std::get<Error>(v_); }

 private:
  std::variant<T, Error> v_;
};

/// Expected<void>: success or an Error.
template <>
class [[nodiscard]] Expected<void> {
 public:
  Expected() = default;
  Expected(Error error) : error_(std::move(error)), ok_(false) {}  // NOLINT

  bool has_value() const { return ok_; }
  explicit operator bool() const { return ok_; }
  const Error& error() const { return error_; }

 private:
  Error error_;
  bool ok_ = true;
};

}  // namespace tlbmap
