// Per-participant exception handler tables, and the abortion handler
// result (§4.1) that mirrors HandlerResult.
//
// §3.3: unlike the CR scheme, our model requires every participating object
// to provide handlers for *all* exceptions declared in an action — this is
// what eliminates the repeated re-raising ("third source" of exceptions) and
// the domino effect. is_complete_for() enforces that requirement at action
// entry. A reduced table (partial coverage) is still expressible because the
// CR baseline needs it.
#pragma once

#include <functional>
#include <unordered_map>

#include "ex/exception_tree.h"
#include "sim/event_queue.h"

namespace caa::ex {

/// What a handler achieved, reported after it ran.
enum class HandlerOutcome : std::uint8_t {
  kRecovered,  // forward recovery succeeded; action can continue/complete
  kSignal,     // recovery failed; signal `signal` to the containing action
};

struct HandlerResult {
  HandlerOutcome outcome = HandlerOutcome::kRecovered;
  ExceptionId signal;       // valid iff outcome == kSignal
  sim::Time duration = 0;   // simulated execution time of the handler body

  static HandlerResult recovered(sim::Time duration = 0) {
    return HandlerResult{HandlerOutcome::kRecovered, ExceptionId::invalid(),
                         duration};
  }
  static HandlerResult signalling(ExceptionId e, sim::Time duration = 0) {
    return HandlerResult{HandlerOutcome::kSignal, e, duration};
  }
};

/// A handler body: receives the resolved exception it is being invoked for.
using Handler = std::function<HandlerResult(ExceptionId resolved)>;

/// Result of running an abortion handler: optionally signals one exception
/// to the containing action (§4.1 allows at most one, and only from the
/// directly nested action).
struct AbortResult {
  ExceptionId signal;      // invalid => nothing signalled
  sim::Time duration = 0;  // simulated execution time

  static AbortResult none(sim::Time duration = 0) {
    return AbortResult{ExceptionId::invalid(), duration};
  }
  static AbortResult signalling(ExceptionId e, sim::Time duration = 0) {
    return AbortResult{e, duration};
  }
};

using AbortionHandler = std::function<AbortResult()>;

class HandlerTable {
 public:
  /// Installs `handler` for exception `id`, replacing any previous one.
  void set(ExceptionId id, Handler handler);

  /// Installs one handler for every exception in `tree` that has no handler
  /// yet (the "default handler" mentioned in §3.3). Materializes one map
  /// entry per exception; prefer set_default() when the same handler should
  /// back the whole tree.
  void fill_defaults(const ExceptionTree& tree, const Handler& handler);

  /// Installs `handler` as the fallback for every exception without an
  /// explicit set() entry. Equivalent coverage to fill_defaults() over any
  /// tree, but stored as a single callable — a uniform table costs one
  /// std::function instead of one map node per declared exception, which
  /// keeps per-participant table copies and teardown O(overrides).
  void set_default(Handler handler);

  [[nodiscard]] bool has(ExceptionId id) const;

  /// Exact lookup; contract violation if absent (participants of an action
  /// are validated up front with is_complete_for()).
  [[nodiscard]] const Handler& get(ExceptionId id) const;

  /// CR-style lookup: the nearest ancestor-or-self of `id` (per `tree`)
  /// that has a handler; invalid id if none up to and including the root.
  [[nodiscard]] ExceptionId nearest_handled(const ExceptionTree& tree,
                                            ExceptionId id) const;

  /// True iff every exception declared in `tree` has a handler.
  [[nodiscard]] bool is_complete_for(const ExceptionTree& tree) const;

  /// Number of explicit set()/fill_defaults() entries; a set_default()
  /// fallback is not counted.
  [[nodiscard]] std::size_t size() const { return handlers_.size(); }

 private:
  std::unordered_map<ExceptionId, Handler> handlers_;
  Handler default_;  // fallback when no explicit entry exists
};

}  // namespace caa::ex
