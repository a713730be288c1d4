// The discrete-event simulator driving the whole system.
//
// Substitution note (DESIGN.md §2): the paper assumes a real network of
// workstations; every claim it makes is about message counts, orderings and
// protocol states. A deterministic simulator preserves those properties while
// making them observable and reproducible.
#pragma once

#include <cstdint>

#include "obs/obs.h"
#include "sim/event_queue.h"
#include "util/counters.h"
#include "util/log.h"

namespace caa::sim {

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` after `delay` ticks (>= 0).
  EventId schedule_after(Time delay, EventFn fn);

  /// Schedules `fn` at absolute virtual time `at` (>= now()).
  EventId schedule_at(Time at, EventFn fn);

  /// Cancels a pending event. Returns false if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Fires the next event. Returns false when no events remain.
  bool step();

  /// Virtual time of the next pending event. Only valid when !idle().
  [[nodiscard]] Time next_event_time() const { return queue_.next_time(); }

  /// Fires the next event plus every event scheduled for the same virtual
  /// time — including ones the fired handlers schedule *at* that time
  /// (zero-delay continuations). Returns events fired (0 when idle).
  ///
  /// This is the explorer's pluggable choice point in the step loop: one
  /// step_block() is one atomic "timer cohort" transition, so same-time
  /// input timers can never be interleaved with other transitions, and
  /// next_event_time() strictly exceeds now() afterwards — the invariant
  /// the DPOR driver's enabled-set computation relies on.
  std::size_t step_block();

  /// Runs until the queue is empty (quiescence). Returns events fired.
  /// `max_events` bounds runaway protocols; hitting the bound is a CHECK
  /// failure since it means a livelock in a supposedly quiescent system.
  std::size_t run_to_quiescence(std::size_t max_events = 50'000'000);

  /// Runs events with time <= deadline; clock ends at deadline (or later if
  /// already past). Returns events fired.
  std::size_t run_until(Time deadline);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// The observability hub (flight recorder + metrics facade), bound to
  /// this simulator's virtual clock. All accounting lives here.
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  /// Global counters (message accounting, protocol stats). Shorthand for
  /// obs().metrics().counters().
  Counters& counters() { return obs_.metrics().counters(); }
  const Counters& counters() const { return obs_.metrics().counters(); }

  /// Logger wired to the virtual clock.
  Logger& logger() { return logger_; }

 private:
  Time now_ = 0;
  EventQueue queue_;
  obs::Observability obs_;
  Logger logger_;
};

}  // namespace caa::sim
