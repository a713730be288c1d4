// Liveness watchdog: structured diagnosis of scopes that stop progressing.
//
// A distributed exit or resolution that deadlocks does not crash — it just
// stops producing events, and the run either spins on timers or quiesces
// with scopes still open. The watchdog turns that silence into a report:
// subsystems note when a scope opens, makes progress, or closes; if a scope
// then sits without progress for a virtual-time deadline (or is still open
// when the event queue drains), the watchdog emits an `obs.watchdog`
// diagnosis — the stuck scope, its current phase, the members it is
// waiting on (both filled in by a World-installed describer that asks the
// participants), and the tail of the causal chain that led into the stall
// (from the flight recorder).
//
// Cost contract: the watchdog schedules no events and writes no counters —
// polling rides Simulator::step behind a single time compare — so arming
// it cannot perturb behaviour checksums. Under -DCAA_OBS_DISABLED it stays
// disarmed and every note_* site compiles down to a dead branch.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "sim/event_queue.h"

namespace caa::obs {

/// One stall diagnosis. `scope` is the ActionInstanceId value; everything
/// past `last_progress` is filled by the installed describer + recorder.
struct WatchdogReport {
  std::uint64_t scope = 0;
  std::string scope_name;          // "A3@obj2" style, from the describer
  sim::Time detected_at = 0;
  sim::Time last_progress = 0;
  bool at_quiescence = false;      // run drained with the scope still open
  std::string phase;               // e.g. "exit.barrier", "resolve.round 2"
  std::vector<std::string> awaited;  // members the scope is waiting on
  std::string detail;              // free-form describer context
  std::vector<std::string> tail;   // causal-chain tail, format_record lines

  [[nodiscard]] std::string to_string() const;
};

class Watchdog {
 public:
  /// Fills phase / awaited / detail / scope_name for a stuck scope. The
  /// World installs one that interrogates its participants.
  using Describer = std::function<void(std::uint64_t scope, WatchdogReport&)>;

  /// Points the watchdog at the hub's recorder for causal tails.
  void bind(const FlightRecorder* recorder) { recorder_ = recorder; }

  /// Arms stall detection: a scope with no progress for `deadline` virtual
  /// ticks is diagnosed. Disarmed (and note_* free) under
  /// -DCAA_OBS_DISABLED.
  void arm(sim::Time deadline, Describer describer);

  [[nodiscard]] bool armed() const {
#ifdef CAA_OBS_DISABLED
    return false;
#else
    return deadline_ > 0;
#endif
  }

  // ---- Progress notes (cheap; no-ops while disarmed) -------------------
  // Open notes are reference-counted: every member that enters a scope
  // opens it, and the entry only retires when the last member closes (one
  // member exiting cleanly must not stop the watch on a peer still stuck).

  void note_open(std::uint64_t scope, sim::Time now) {
    if (!armed()) return;
    Entry& e = scopes_[scope];
    ++e.refs;
    e.last = now;
    if (now + deadline_ < next_check_) next_check_ = now + deadline_;
  }
  void note_progress(std::uint64_t scope, sim::Time now) {
    if (!armed()) return;
    if (auto it = scopes_.find(scope); it != scopes_.end()) {
      it->second.last = now;
    }
  }
  void note_closed(std::uint64_t scope, sim::Time now) {
    if (!armed()) return;
    auto it = scopes_.find(scope);
    if (it == scopes_.end()) return;
    if (--it->second.refs <= 0) {
      scopes_.erase(it);
    } else {
      it->second.last = now;  // a member leaving IS progress for the rest
    }
  }

  /// Hot-path hook from Simulator::step: one compare until a deadline is
  /// actually reachable.
  void maybe_poll(sim::Time now) {
    if (now >= next_check_) poll(now);
  }

  /// Called when the run quiesces: any scope still open is stalled by
  /// definition (no event will ever progress it) and gets diagnosed even if
  /// the deadline has not elapsed yet.
  void finish(sim::Time now);

  [[nodiscard]] const std::vector<WatchdogReport>& reports() const {
    return reports_;
  }
  /// All diagnoses, concatenated ("" when none fired).
  [[nodiscard]] std::string report_text() const;

 private:
  struct Entry {
    sim::Time last = 0;       // virtual time of the last progress note
    std::int32_t refs = 0;    // members currently holding the scope open
  };

  void poll(sim::Time now);
  void diagnose(std::uint64_t scope, sim::Time last_progress, sim::Time now,
                bool at_quiescence);

  const FlightRecorder* recorder_ = nullptr;
  sim::Time deadline_ = 0;
  Describer describer_;
  /// Open scopes and their progress state.
  std::map<std::uint64_t, Entry> scopes_;
  /// Scopes already diagnosed (each reports once).
  std::vector<std::uint64_t> reported_;
  sim::Time next_check_ = std::numeric_limits<sim::Time>::max();
  std::vector<WatchdogReport> reports_;
};

}  // namespace caa::obs
