// Nested exception contexts — the SA stack of §4.1.
//
// Entering a CA action pushes a context (the action's exception tree and
// this participant's handler table for it); leaving or aborting pops it.
// The stack order *is* the nesting order used for innermost-first abortion.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ex/handler_table.h"
#include "util/ids.h"

namespace caa::ex {

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

/// One entry of the SA stack: everything a participant needs while inside
/// one (possibly nested) CA action.
struct Context {
  ActionInstanceId instance;
  ActionId action;
  const ExceptionTree* tree = nullptr;
  const HandlerTable* handlers = nullptr;
  AbortionHandler abortion_handler;
};

class ContextStack {
 public:
  void push(Context context);
  Context pop();

  [[nodiscard]] bool empty() const { return contexts_.empty(); }
  [[nodiscard]] std::size_t size() const { return contexts_.size(); }

  /// Innermost (active) context — §4.1's "active CA action".
  [[nodiscard]] const Context& active() const;
  [[nodiscard]] Context& active();

  /// 0-based depth of `instance` in the stack, outermost first; nullopt when
  /// the participant is not inside that instance.
  [[nodiscard]] std::optional<std::size_t> depth_of(
      ActionInstanceId instance) const;

  [[nodiscard]] bool contains(ActionInstanceId instance) const {
    return depth_of(instance).has_value();
  }

  /// True iff the active action is strictly deeper than `instance` — i.e.
  /// this participant "is in an action nested within" it (§4.2 trigger for
  /// HaveNested).
  [[nodiscard]] bool nested_below(ActionInstanceId instance) const;

  [[nodiscard]] const Context& at(std::size_t depth) const;

 private:
  std::vector<Context> contexts_;  // outermost at index 0
};

}  // namespace caa::ex
