// Contract-checking macros.
//
// CAA_CHECK fires in all build types: protocol invariants of the resolution
// algorithm are cheap relative to simulated message passing, and a silent
// invariant violation in a fault-tolerance library is worse than a crash.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace caa::detail {
/// Called after the failure is printed and before abort(). The flight
/// recorder installs a hook that dumps the failing world's ring buffer so a
/// tripped invariant still leaves a post-mortem artifact (obs/flight_recorder.h).
/// Atomic: every campaign worker thread installs it.
using CheckFailureHook = void (*)();
inline std::atomic<CheckFailureHook>& check_failure_hook() {
  static std::atomic<CheckFailureHook> hook{nullptr};
  return hook;
}

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               msg && *msg ? " — " : "", msg ? msg : "");
  if (CheckFailureHook hook = check_failure_hook().load(); hook != nullptr) {
    hook();
  }
  std::abort();
}
}  // namespace caa::detail

#define CAA_CHECK(expr)                                                   \
  do {                                                                    \
    if (!(expr)) ::caa::detail::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define CAA_CHECK_MSG(expr, msg)                                            \
  do {                                                                      \
    if (!(expr)) ::caa::detail::check_failed(#expr, __FILE__, __LINE__, msg); \
  } while (false)
