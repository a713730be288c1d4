// The distributed exception-resolution state machine of §4.2 — the paper's
// primary contribution — for ONE participant in ONE action instance during
// ONE resolution round.
//
// The engine is pure protocol logic: every message comes in through one
// entry point, on_message (decode_protocol turns a packet into its
// argument), and all I/O leaves through injected hooks (multicast / ack /
// abort-nested / start-handler). The ACK is its only unicast. That makes it
// unit-testable by feeding messages directly, and reusable over any
// transport.
//
// State mapping to the paper:
//   kNormal      = N
//   kExceptional = X  (an exception was raised here, or our abortion
//                      handlers signalled one)
//   kSuspended   = S  (we learned of an exception elsewhere)
//   kReady       = R  (X + all ACKs received + all nested completions in)
//   kAborting    —  transient sub-state of the paper's nested branch, while
//                    abortion handlers of nested actions run (the paper's
//                    pseudo-code treats abortion as one atomic step; with
//                    real handler durations it is asynchronous)
//   kHandling    —  terminal for the round: Commit processed, handler started
//
// Data mapping: le_ = LE_i, lo_state_ = LO_i, acked_ = LP_i. (SA_i, the
// context stack, lives in caa::Participant, which owns one engine per
// context.) LO_i and LP_i are keyed by member rank in the sorted group list
// rather than stored as node-based containers: the protocol touches them
// once per incoming message, and a byte-per-member array costs a rank
// lookup instead of a rb-tree allocation on that path. G_A and the crashed
// members are not the engine's own: it reads the instance's member list and
// its owner's per-scope exclusion set by reference, so the engine of every
// round sees every exclusion the scope has recorded.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ex/exception.h"
#include "ex/exception_tree.h"
#include "obs/obs.h"
#include "resolve/messages.h"

namespace caa::resolve {

class ResolverCore {
 public:
  enum class State : std::uint8_t {
    kNormal,
    kExceptional,
    kSuspended,
    kReady,
    kAborting,
    kHandling,
  };

  struct Hooks {
    /// Sends a protocol message to every group member except self.
    std::function<void(net::MsgKind, net::Bytes)> multicast;
    /// ACKs `round` of this scope to `to` — the engine's only unicast, so
    /// the owner picks its route (direct, or the relay tree's merged tally).
    std::function<void(ObjectId to, std::uint32_t round)> ack;
    /// Aborts all actions nested below this scope (abortion handlers,
    /// innermost first) and eventually calls done(signalled) with the one
    /// exception the *directly* nested action's abortion handler signalled,
    /// or invalid if none. Asynchronous: may complete after simulated time.
    std::function<void(std::function<void(ExceptionId)> done)> abort_nested;
    /// Starts this participant's handler for the resolved exception.
    std::function<void(ExceptionId resolved, ObjectId resolver)> start_handler;
    /// §4.2 "clean up messages related to nested actions": peer announced
    /// HaveNested, so its buffered messages scoped to nested actions are
    /// obsolete.
    std::function<void(ObjectId peer)> purge_nested_from;
    /// Optional observability hub. The engine records raises, state
    /// transitions and resolutions into the hub's flight recorder (a
    /// round's span is drawn from them), and when enabled tabulates its
    /// protocol sends per (scope, round, kind) for the §4.4 run report —
    /// null or disabled costs one branch.
    obs::Observability* obs = nullptr;
  };

  /// `members` must be the sorted participant list of the action (G_A),
  /// including `self` — the §4.1 total order. `excluded` is the owner's
  /// set of crashed members of this scope (never `self`). Both must outlive
  /// the engine.
  ///
  /// `committee` implements the paper's fault-tolerance extension ("the
  /// algorithm can be easily extended to the use of a group of objects that
  /// are responsible for performing resolution and producing the commit
  /// messages", §4.4): the `committee` largest raisers each resolve and
  /// multicast Commit. Every Ready raiser knows the complete LE set (FIFO +
  /// suspension argument), so all commits carry the same resolved
  /// exception; receivers apply the first and drop the duplicates as
  /// stale. Cost: an extra (committee-1)(N-1) messages — a constant factor.
  ResolverCore(ObjectId self, const std::vector<ObjectId>& members,
               const std::set<ObjectId>& excluded,
               const ex::ExceptionTree* tree, ActionInstanceId scope,
               std::uint32_t round, Hooks hooks, std::uint32_t committee = 1);

  /// Retracts this engine's health-gauge contributions (a superseded round
  /// must not leave the world-level levels raised).
  ~ResolverCore();

  /// Crash-tolerance extension (fail-stop model): `peer` has just been
  /// added to the exclusion set. From then on the member no longer counts
  /// towards ACK completeness, its pending nested completion is waived, and
  /// it is skipped when choosing the resolving object(s); this call
  /// corrects the ACK/LO tallies it already contributed to. Exceptions it
  /// raised are expunged from LE and later deliveries from it are ignored:
  /// survivors that received them and survivors that did not must compute
  /// the same resolution, so only live-raiser exceptions may contribute (a
  /// resolution the crashed member already committed is preserved by the
  /// owner's CrashSync barrier, not by LE).
  void exclude_member(ObjectId peer);

  /// Crash-tolerance extension: while gated, this engine reaches Ready but
  /// withholds *creating* a Commit (committee self-resolution) until the
  /// owner's CrashSync barrier completes; applying a received or synced
  /// commit stays allowed. Ungating re-evaluates readiness immediately.
  void set_commit_gate(bool gated);

  /// Test-only (action::DebugBugs::exclusion_divergence): keep a crashed
  /// member's exceptions in LE and accept its belated deliveries, restoring
  /// the pre-PR 5 divergence hole the systematic explorer must rediscover.
  void set_debug_keep_crashed(bool on) { debug_keep_crashed_ = on; }

  /// A commit received while Exceptional and held until Ready. The owner's
  /// CrashSync push advertises it so a resolution decided just before a
  /// crash survives the crash.
  [[nodiscard]] const std::optional<CommitMsg>& held_commit() const {
    return pending_commit_;
  }

  /// Applies a commit learned through the CrashSync barrier. Unlike a
  /// delivered Commit, this accepts one produced by a now-excluded resolver:
  /// the barrier only forwards commits some live member already holds, so
  /// applying it cannot diverge from the survivors.
  void apply_synced_commit(const CommitMsg& m);

  /// Coordination-avoidance fast path (src/resolve/avoidance.h): applies a
  /// commit decided by a unanimous leader census. The engine must still be
  /// Normal — a fast round, by construction, exchanges none of the five
  /// protocol messages, so the engine wakes from Normal straight into the
  /// handler. If slow traffic crossed the census the owner replays the
  /// suppressed raise first and applies via apply_synced_commit instead.
  void apply_fast_commit(const CommitMsg& m);

  /// Crash-tolerance extension: true iff some KNOWN raiser is still alive.
  /// When false while Suspended, the round can never commit (no live
  /// object is allowed to resolve) — a survivor must promote itself with
  /// raise_from_suspended().
  [[nodiscard]] bool has_live_raiser() const;

  /// Crash-tolerance extension: raises `exception` from the Suspended
  /// state. Only legal when every known raiser has been excluded; the
  /// caller becomes a raiser so the resolution can complete among the
  /// survivors.
  void raise_from_suspended(ExceptionId exception);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint32_t round() const { return round_; }
  [[nodiscard]] ActionInstanceId scope() const { return scope_; }

  /// The LE list (raised exceptions known so far).
  [[nodiscard]] const std::vector<ex::Exception>& exceptions() const {
    return le_;
  }

  /// Local raise. Precondition: state is Normal (an object whose
  /// application code is suspended or already exceptional cannot raise —
  /// §4.1 allows one exception per object per action).
  void raise(ExceptionId exception, std::string message = {});

  /// Called by the owner when a trigger message (an Exception or a
  /// HaveNested in this scope) arrives while this participant's *active*
  /// action is nested below this scope. Implements the paper's HaveNested
  /// branch. The trigger itself is processed after abortion completes.
  void on_trigger_while_nested(const ProtocolMsg& trigger);

  /// One protocol message for this scope and round (the owner guarantees
  /// both match). Queued while abortion handlers run.
  void on_message(const ProtocolMsg& m);

  /// True once the round finished (handler started).
  [[nodiscard]] bool finished() const { return state_ == State::kHandling; }

  /// Members this engine is still waiting on: live peers whose ACK has not
  /// arrived (while one is awaited) plus peers with a pending nested
  /// completion. Empty for a round that cannot stall. The liveness
  /// watchdog's "awaiting" list.
  [[nodiscard]] std::vector<ObjectId> awaited_members() const;

  /// Resolution result, valid once finished().
  [[nodiscard]] ExceptionId resolved() const { return resolved_; }

 private:
  void process(const ProtocolMsg& m);
  void handle_exception(const ExceptionMsg& m);
  void handle_have_nested(const HaveNestedMsg& m);
  void handle_nested_completed(const NestedCompletedMsg& m);
  void handle_ack(const AckMsg& m);
  void handle_commit(const CommitMsg& m);

  void abort_finished(ExceptionId signalled);
  void record_exception(ExceptionId exception, ObjectId raiser,
                        std::string message = {});
  void send_ack(ObjectId to);
  /// Tabulates `n` protocol messages just sent (no-op unless observing).
  void note_send(net::MsgKind kind, std::int64_t n);
  /// Pushes a protocol record (raise / state / resolved) into the flight
  /// recorder (no-op when the recorder is off or no hub is wired).
  void record_flight(obs::RecType type, std::uint32_t code);
  void suspend_if_normal();
  void maybe_ready();
  /// Runs the Ready-state obligations: apply a held commit, or — unless the
  /// commit gate is on — self-resolve when this object is in the committee.
  void ready_actions();
  void finish(const CommitMsg& m);

  [[nodiscard]] bool all_acks_received() const;
  [[nodiscard]] bool all_nested_completed() const;
  [[nodiscard]] bool self_in_committee() const;

  /// The hub's gauge store (nullptr when no hub is wired — unit tests).
  [[nodiscard]] obs::HealthGauges* health() const;
  /// Re-derives this engine's contribution to the resolve gauges (active
  /// rounds, outstanding ACKs) and pushes the deltas. Called from every
  /// public entry point; a few integer ops, no counters touched.
  void sync_health();

  /// Rank of a group member; contract violation if the id is not one (the
  /// router only delivers group traffic).
  [[nodiscard]] std::size_t rank(ObjectId member) const;

  ObjectId self_;
  const std::vector<ObjectId>& members_;  // G_A: sorted, includes self
  const std::set<ObjectId>& exclusions_;  // crashed members (extension)
  const ex::ExceptionTree* tree_;
  ActionInstanceId scope_;
  std::uint32_t round_;
  Hooks hooks_;
  std::uint32_t committee_ = 1;
  bool debug_keep_crashed_ = false;  // test-only planted bug (DebugBugs)

  // LO_i entry lifecycle, indexed by member rank.
  enum : std::uint8_t { kLoAbsent = 0, kLoPending = 1, kLoCompleted = 2 };

  State state_ = State::kNormal;
  std::vector<ex::Exception> le_;        // LE_i
  std::vector<std::uint8_t> lo_state_;   // LO_i: per-rank kLo* state
  std::vector<std::uint8_t> acked_;      // LP_i: per-rank "ACK received"
  // Maintained tallies so completeness checks are O(1). maybe_ready() runs
  // per incoming message; rescanning the member list there made large flat
  // groups quadratic in N (a raiser awaiting N-1 ACKs paid an O(N) scan per
  // ACK). acks_live_ counts distinct non-excluded ACK senders; lo_pending_
  // counts LO entries that are neither completed nor excluded.
  std::size_t acks_live_ = 0;
  std::size_t lo_pending_ = 0;
  std::set<ObjectId> raisers_;
  bool awaiting_acks_ = false;  // we multicast Exception or NestedCompleted
  bool commit_gated_ = false;   // CrashSync barrier in progress (extension)
  std::optional<CommitMsg> pending_commit_;
  std::vector<ProtocolMsg> queued_;  // messages deferred while kAborting
  ExceptionId resolved_;
  // This engine's last-pushed gauge contributions (so deltas are exact and
  // the destructor can retract them when a round is superseded).
  std::int64_t active_gauge_ = 0;
  std::int64_t acks_gauge_ = 0;
};

[[nodiscard]] std::string_view to_string(ResolverCore::State state);

}  // namespace caa::resolve
