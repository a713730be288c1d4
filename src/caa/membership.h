// One participant's crash membership (fail-stop extension, DESIGN.md §4b),
// the group membership service §4.5 rests crash handling on: the peers it
// believes down, and one exclusion set per scope, started at first contact
// and seeded with the members believed down then. A set only grows, so a
// restarted peer counts again only in scopes first contacted later. The
// participant reacts to what a report changed; engines, exit protocols,
// avoidance, the leave log and relay trees read the sets by reference.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "caa/action_instance.h"

namespace caa::action {

class Membership {
 public:
  /// A contacted scope a report struck the peer from, and its live leader
  /// before the strike.
  struct Loss {
    ActionInstanceId scope;
    ObjectId old_leader;
  };
  struct Effects {
    bool newly_down = false;  // the peer was not believed down before
    std::vector<Loss> lost;   // in scope-id order
  };

  /// The peers believed down.
  [[nodiscard]] const std::set<ObjectId>& down() const { return down_; }

  /// The scope's exclusion set; the first call is first contact (entry, a
  /// held message, a CrashSync push or a relayed envelope).
  std::set<ObjectId>& contact(const InstanceInfo& info);

  /// A failure detector reports `peer` crashed: it is down, and struck from
  /// every contacted scope it belongs to.
  Effects detected(ObjectId peer);
  /// A survivor's CrashSync message reports `peer` crashed out of `scope`.
  /// If `peer` restarted since its last detection, the report is about the
  /// earlier incarnation: it strikes `peer` from `scope` alone and leaves it
  /// up. Otherwise it is a detection.
  Effects reported(ObjectId peer, ActionInstanceId scope);
  /// `peer` restarted: no longer down, still struck wherever it is.
  void restarted(ObjectId peer);

  /// Drops a left scope's set once no relay duty reads it.
  void forget(ActionInstanceId scope) { scopes_.erase(scope); }
  /// Own restart: the sets were volatile state.
  void forget_scopes() { scopes_.clear(); }

 private:
  struct Scope {
    const InstanceInfo* info;
    std::set<ObjectId> excluded;
  };
  void strike(ObjectId peer, ActionInstanceId scope, Scope& s,
              Effects& effects);

  std::set<ObjectId> down_;
  std::set<ObjectId> readmitted_;  // restarted since their last detection
  std::map<ActionInstanceId, Scope> scopes_;
};

}  // namespace caa::action
