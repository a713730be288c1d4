// Runtime action instances and the entry/exit coordination messages.
//
// An InstanceInfo is the immutable description every participant receives
// when it enters one execution of a CA action: the instance id (globally
// unique — nested actions and retries get fresh ids), the declaration, the
// sorted member list (the §4.1 ordering), the designated leader (smallest
// member id; used only for exit synchronization, not for resolution), and
// the parent instance for nesting.
#pragma once

#include <string_view>
#include <vector>

#include "caa/action_decl.h"
#include "exit/exit_kind.h"
#include "net/message.h"
#include "overlay/params.h"
#include "util/ids.h"
#include "util/status.h"

namespace caa::action {

struct InstanceInfo {
  ActionInstanceId instance;
  const ActionDecl* decl = nullptr;
  // Sorted and duplicate-free (§4.1 order): ActionManager::create_instance
  // checks both once, and nothing reorders the list, so readers do not
  // re-check. The instance's one member list: every layer reads it by
  // reference and ranks it with rank_in (util/members.h).
  std::vector<ObjectId> members;
  ActionInstanceId parent;  // invalid for an outermost action

  /// Overlay dissemination decision, stamped at create_instance from the
  /// manager's defaults so every member derives the identical relay tree
  /// from this shared record (src/overlay/).
  bool use_tree = false;
  overlay::OverlayParams overlay;

  /// Exit/commit protocol every member of this instance synchronizes its
  /// exit through, stamped at create_instance from the manager's defaults
  /// (WorldConfig.exit_protocol).
  exit::ExitKind exit = exit::ExitKind::kBarrier;

  /// Coordination avoidance for this instance's resolutions, stamped at
  /// create_instance from the manager's defaults (WorldConfig.
  /// resolve_avoidance).
  bool resolve_avoidance = false;

  [[nodiscard]] ObjectId leader() const { return members.front(); }
  [[nodiscard]] bool is_member(ObjectId o) const;
};

/// Exit-barrier outcome decided by the leader.
enum class LeaveOutcome : std::uint8_t {
  kCommitted = 0,  // all participants done and accepted: action succeeds
  kSignalled = 1,  // handlers failed: signal an exception to the container
  kRestored = 2,   // acceptance test failed: backward recovery, new attempt
};

[[nodiscard]] std::string_view to_string(LeaveOutcome outcome);

/// Participant -> leader: "my part is finished".
/// `ok=false` means the local acceptance test failed (requests backward
/// recovery); `signal` (when valid) means this participant's handler asked
/// to signal that exception to the containing action.
struct DoneMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;  // resolution-round/attempt tag (see Participant)
  ObjectId sender;
  bool ok = true;
  ExceptionId signal;
};

/// Leader -> all members: the exit decision.
struct LeaveMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;
  LeaveOutcome outcome = LeaveOutcome::kCommitted;
  ExceptionId signal;        // valid iff outcome == kSignalled
  std::uint32_t attempt = 0; // next attempt number for kRestored
};

net::Bytes encode(const DoneMsg& m);
net::Bytes encode(const LeaveMsg& m);
Result<DoneMsg> decode_done(const net::Bytes& bytes);
Result<LeaveMsg> decode_leave(const net::Bytes& bytes);

}  // namespace caa::action
