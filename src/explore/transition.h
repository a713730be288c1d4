// The explorer's unit of choice: one scheduler transition.
//
// A schedule is a sequence of transitions; the DPOR driver (explorer.h)
// enumerates schedules and the Execution (execution.h) applies them to a
// managed-network world. Four kinds exist:
//
//   deliver <id>  — deliver the parked packet with birth id `id` (only ever
//                   legal for a channel's FIFO head);
//   timer         — fire the next virtual-time event cohort
//                   (sim::Simulator::step_block);
//   drop <id>     — drop the parked packet `id`; only enabled once its
//                   sender has crashed (fail-stop: in-flight messages from
//                   a dead node may or may not arrive);
//   crash <node>  — fail-stop node `node` now
//                   (World::crash).
//
// The ordering (deliver < timer < drop < crash, then by id) doubles as the
// default scheduling policy: the first enabled transition is the one a
// quiescent-network run would take, so schedule #0 is always the "drain
// deliveries oldest-first, then advance time" baseline.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace caa::explore {

enum class TransitionKind : std::uint8_t {
  kDeliver = 0,
  kTimer = 1,
  kDrop = 2,
  kCrash = 3,
};

struct Transition {
  TransitionKind kind = TransitionKind::kTimer;
  std::uint64_t id = 0;  // packet id (deliver/drop) or node id (crash)

  friend bool operator==(const Transition&, const Transition&) = default;
  friend auto operator<=>(const Transition&, const Transition&) = default;
};

inline std::string to_string(const Transition& t) {
  switch (t.kind) {
    case TransitionKind::kDeliver:
      return "deliver " + std::to_string(t.id);
    case TransitionKind::kTimer:
      return "timer";
    case TransitionKind::kDrop:
      return "drop " + std::to_string(t.id);
    case TransitionKind::kCrash:
      return "crash " + std::to_string(t.id);
  }
  return "?";
}

}  // namespace caa::explore
