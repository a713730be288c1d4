// Action declaration registry and instance factory (§4: "a (centralized or
// decentralized) manager of CA actions").
//
// The manager is pure bookkeeping: it assigns globally unique instance ids
// and records membership; all synchronization (entry buffering, exit
// barrier, resolution) is performed by the participants themselves with
// messages, as in the paper's decentralized reading.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "caa/action_instance.h"

namespace caa::action {

/// Test-only switches that re-introduce protocol bugs fixed by the chaos
/// campaigns (PR 5), each behind its own flag. The systematic explorer
/// (src/explore/) asserts it rediscovers both deterministically — the
/// planted-bug gate that proves exhaustive exploration actually bites.
/// Never set outside tests.
struct DebugBugs {
  /// Committee exclusion divergence: skip the crash-sync barrier and keep
  /// crashed raisers in the local exception lists, so survivors that heard
  /// different subsets of a dead peer's raises resolve different covers.
  bool exclusion_divergence = false;
  /// Lost final Leave: drop belated ActionDone messages addressed to a dead
  /// scope instead of replaying the recorded final Leave, so a member that
  /// missed the Leave when the exit leader crashed re-announces forever.
  bool lost_final_leave = false;
};

class ActionManager {
 public:
  /// Declares a new action type with its exception tree (frozen here).
  const ActionDecl& declare(std::string name, ex::ExceptionTree tree);

  [[nodiscard]] const ActionDecl* find(std::string_view name) const;

  /// Creates a runtime instance over `members` (any order; sorted here).
  /// `parent` is the containing instance for a nested action, or invalid.
  /// Nested members must be a subset of the parent's members — checked.
  const InstanceInfo& create_instance(const ActionDecl& decl,
                                      std::vector<ObjectId> members,
                                      ActionInstanceId parent =
                                          ActionInstanceId::invalid());

  [[nodiscard]] const InstanceInfo& info(ActionInstanceId instance) const;
  [[nodiscard]] bool known(ActionInstanceId instance) const {
    return instances_.contains(instance);
  }

  /// Overlay dissemination defaults stamped onto every instance created
  /// afterwards (see WorldConfig::overlay).
  void set_overlay_defaults(const overlay::OverlayParams& params) {
    overlay_defaults_ = params;
  }

  /// Exit-protocol default stamped onto every instance created afterwards
  /// (see WorldConfig::exit_protocol).
  void set_exit_defaults(exit::ExitKind kind) { exit_default_ = kind; }

  /// When on, participants ACK applied final Leaves so the per-scope leave
  /// records can be garbage-collected (see WorldConfig::exit_gc).
  void set_exit_gc(bool on) { exit_gc_ = on; }
  [[nodiscard]] bool exit_gc() const { return exit_gc_; }

  /// Coordination-avoidance default stamped onto every instance created
  /// afterwards (see WorldConfig::resolve_avoidance).
  void set_resolve_avoidance(bool on) { resolve_avoidance_ = on; }
  [[nodiscard]] bool resolve_avoidance() const { return resolve_avoidance_; }

  /// Test-only planted-bug switches (see DebugBugs / WorldConfig).
  void set_debug_bugs(const DebugBugs& bugs) { debug_bugs_ = bugs; }
  [[nodiscard]] const DebugBugs& debug_bugs() const { return debug_bugs_; }

 private:
  overlay::OverlayParams overlay_defaults_;
  exit::ExitKind exit_default_ = exit::ExitKind::kBarrier;
  bool exit_gc_ = false;
  bool resolve_avoidance_ = false;
  DebugBugs debug_bugs_;
  std::vector<std::unique_ptr<ActionDecl>> decls_;
  std::unordered_map<ActionInstanceId, std::unique_ptr<InstanceInfo>>
      instances_;
  std::uint64_t next_instance_ = 1;
  std::uint32_t next_action_ = 1;
};

}  // namespace caa::action
