// Arms a FaultPlan against a World as ordinary simulator events.
//
// The injector owns no policy: it translates timeline entries into
// World::crash (which delivers a crash to every live participant) and the
// Network's fault primitives (set_node_up for restarts, set_partitioned,
// windowed drop / latency overrides). The trigger-based faults share the
// Network's single send tap: the resolver crash schedules a crash of the
// first Exception packet's sender a configured delay later, and the exit
// assassin schedules a crash of the current exit leader (the lowest live
// node) once the first exit-protocol packet (ActionDone / PaxosVote) is
// seen. Both only *schedule* — the tap runs inside send() with participant
// frames on the stack, so nothing may crash synchronously.
//
// One injector serves one run of one world and must outlive it.
#pragma once

#include <optional>

#include "caa/world.h"
#include "fault/plan.h"

namespace caa::fault {

class FaultInjector {
 public:
  /// Validates `plan` against the world's node count (CHECK on failure —
  /// plans reaching an injector have passed generation or parsing) and
  /// schedules every event. Call before running the world.
  FaultInjector(World& world, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  void arm();

  World& world_;
  FaultPlan plan_;
  // Trigger delays armed from the plan; set => that trigger participates in
  // the shared send tap. Each fires at most once.
  std::optional<sim::Time> resolver_delay_;
  std::optional<sim::Time> assassin_delay_;
  bool trigger_fired_ = false;
  bool assassin_fired_ = false;
};

}  // namespace caa::fault
