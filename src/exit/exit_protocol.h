// The pluggable exit/commit seam between a Participant and the protocol
// that synchronizes a committee's exit from one CA-action scope.
//
// A Participant owns one ExitProtocol instance per entered scope and routes
// every exit-flavoured message (ActionDone, the Paxos kinds) through it; the
// protocol talks back exclusively through the ExitHost interface — sending,
// tracing, and asking the host to turn a set of collected Done votes into
// the scope's Leave decision (attempt bookkeeping, failure signals and
// nested-signal resolution stay host duties, identical across protocols).
//
// Implementations:
//   BarrierExit (barrier_exit.h) — the paper's leader barrier, byte-for-byte
//       the behaviour previously inlined in Participant.
//   PaxosCommitExit (paxos_exit.h) — Gray & Lamport's Paxos Commit.
//
// The split is what makes the two strategies directly comparable: both run
// under the same deterministic simulator, cause-id DAG, flight recorder,
// chaos plans and oracles, differing only in the message pattern between
// "my part is finished" and "the committee decided".
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "caa/action_instance.h"
#include "exit/exit_kind.h"
#include "net/message.h"
#include "net/wire.h"

namespace caa::exit {

/// Everything an exit protocol may ask of its hosting participant. One host
/// serves all of the participant's scopes; calls name the scope explicitly.
class ExitHost {
 public:
  virtual ~ExitHost() = default;

  [[nodiscard]] virtual ObjectId exit_self() const = 0;
  /// The scope's current resolution round / attempt tag.
  [[nodiscard]] virtual std::uint32_t exit_round(ActionInstanceId scope)
      const = 0;
  /// Members excluded (crashed) from the scope so far.
  [[nodiscard]] virtual const std::set<ObjectId>& exit_excluded(
      ActionInstanceId scope) const = 0;
  /// True while an abort chain supersedes the scope's exit.
  [[nodiscard]] virtual bool exit_aborting(ActionInstanceId scope) const = 0;
  /// True when no resolution is in progress (the engine is Normal) — a
  /// committee may only decide its exit in that state.
  [[nodiscard]] virtual bool exit_resolution_idle(ActionInstanceId scope)
      const = 0;

  /// Unicast to one member; routes along the relay tree for tree-mode
  /// scopes, sends directly otherwise.
  virtual void exit_unicast(ActionInstanceId scope, ObjectId to,
                            net::MsgKind kind, net::Bytes payload) = 0;
  /// The SAME payload to many members at once — the Paxos 2a pattern (one
  /// Prepare/re-proposal to the whole acceptor set). Tree-mode hosts batch
  /// the group into shared envelopes that carry the payload once per tree
  /// edge (Disseminator::route_multi); flat ones send one pooled copy per
  /// target.
  virtual void exit_unicast_many(ActionInstanceId scope,
                                 const std::vector<ObjectId>& targets,
                                 net::MsgKind kind,
                                 const net::Bytes& payload) = 0;
  /// Multicast to every other member (tree flood / flat fan-out with pooled
  /// payload copies) — the delivery pattern of the final Leave.
  virtual void exit_multicast(ActionInstanceId scope, net::MsgKind kind,
                              const net::Bytes& payload) = 0;
  /// Re-announcement to the live members only: tree flood, or a flat
  /// fan-out that skips the excluded as well as self.
  virtual void exit_announce_live(ActionInstanceId scope, net::MsgKind kind,
                                  const net::Bytes& payload) = 0;

  /// Turns the collected Done votes (whose senders the *protocol* chose to
  /// count) into the scope's Leave: acceptance vs backward recovery vs
  /// signalling, including attempt bookkeeping and nested-signal resolution
  /// against the containing action's tree.
  [[nodiscard]] virtual action::LeaveMsg exit_decide(
      ActionInstanceId scope, std::uint32_t round,
      const std::vector<action::DoneMsg>& dones) = 0;
  /// Applies a Leave locally (commit/signal/restore choreography).
  virtual void exit_deliver_leave(const action::LeaveMsg& m) = 0;
};

/// One protocol instance drives one participant's view of one scope's exit.
class ExitProtocol {
 public:
  virtual ~ExitProtocol() = default;

  [[nodiscard]] virtual ExitKind kind() const = 0;

  /// This participant finished its part: `m` is its Done for the scope's
  /// current round. The protocol owns everything from here to the Leave.
  virtual void on_complete(const action::DoneMsg& m) = 0;

  /// An exit-flavoured message for this scope arrived (kActionDone or a
  /// Paxos kind). Payloads come off the wire; malformed ones must be
  /// ignored.
  virtual void on_message(ObjectId from, net::MsgKind kind,
                          const net::Bytes& payload) = 0;

  /// Membership change: `peer` crashed out of the scope (the host has
  /// already recorded the exclusion). Leaders are the lowest live member;
  /// both arguments are computed before/after the exclusion.
  virtual void on_peer_crashed(ObjectId peer, ObjectId old_leader,
                               ObjectId new_leader) = 0;

  /// The scope was backward-recovered (Leave kRestored): the host bumped
  /// the round; per-attempt exit state (a pending Done) must be dropped.
  virtual void on_restored() = 0;

  /// Liveness introspection for watchdog diagnoses: fills `phase` with the
  /// protocol's current stage ("" when nothing is in flight) and `awaited`
  /// with the members it is waiting to hear from. Default: nothing to
  /// report.
  virtual void describe(std::string& phase,
                        std::vector<ObjectId>& awaited) const {
    (void)phase;
    (void)awaited;
  }
};

/// The lowest member not excluded — the exit leader both protocols (and the
/// relay-tree root) agree on. Falls back to the static leader when every
/// member is excluded.
[[nodiscard]] ObjectId live_leader(const action::InstanceInfo& info,
                                   const std::set<ObjectId>& excluded);

/// Factory for the built-in protocols.
[[nodiscard]] std::unique_ptr<ExitProtocol> make_exit_protocol(
    ExitKind kind, ExitHost& host, const action::InstanceInfo& info);

}  // namespace caa::exit
