// A CA-action participant: the paper's "participating object".
//
// A Participant is a distributed object that can enter (possibly nested) CA
// action instances, raise exceptions, run the §4.2 resolution protocol with
// its peers, abort nested action chains innermost-first via abortion
// handlers, perform forward recovery (handlers) and backward recovery
// (checkpoint restore + retry), and synchronize exit through a leader-based
// barrier.
//
// Implementation notes relative to the paper's pseudo-code:
//  * SA_i is `contexts_` (an ex::ContextStack); LE/LO/LP live inside one
//    resolve::ResolverCore per context per resolution round.
//  * Rounds: the paper's "wait until all exception messages are handled" and
//    list-emptying are made precise by tagging every protocol message with a
//    round number. Stale-round Exception/NestedCompleted messages are still
//    acknowledged (their senders need the ACKs to reach Ready) but not
//    recorded; future-round messages are held.
//  * Belated participants: messages scoped to an instance this object has
//    not entered are held and replayed on entry ("process messages having
//    arrived"); HaveNested(O_j) purges held messages from O_j ("clean up
//    messages related to nested actions"); aborted instances are tombstoned
//    and their late messages dropped.
//  * One intake: both rules above, and the crashed-sender and Leave-log
//    ones, are the single pure function classify(). Every scoped message
//    takes its verdict from it, and one hold map keeps what cannot be
//    delivered yet until entry, a round bump or backward recovery.
//  * Crash exclusion (extension, DESIGN.md §4b): one set per scope, from
//    first contact — entry, a held belated message, a CrashSync push or a
//    relayed envelope — so a belated entrant excludes every crash heard of
//    since, restarts included. Engines, exit protocol, avoidance, leave log
//    and relay tree read it; notify_peer_crashed alone writes it.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "caa/action_manager.h"
#include "ex/context_stack.h"
#include "exit/exit_protocol.h"
#include "exit/leave_log.h"
#include "obs/watchdog.h"
#include "overlay/disseminator.h"
#include "resolve/avoidance.h"
#include "resolve/resolver_core.h"
#include "rt/managed_object.h"

namespace caa::action {

/// Per-entry configuration: how this participant behaves inside one action.
struct EnterConfig {
  /// Handlers for the action's declared exceptions. The paper requires a
  /// handler for every declared exception (§3.3); enter() enforces it.
  /// Use uniform_handlers() or HandlerTable::fill_defaults() to build.
  ex::HandlerTable handlers;

  /// Abortion handler (§4.1). Default: succeeds instantly, signals nothing.
  ex::AbortionHandler abortion_handler;

  /// Optional body, run (via a zero-delay event) on entry and again on each
  /// backward-recovery attempt; receives the attempt number (0-based).
  std::function<void(std::uint32_t attempt)> body;

  /// Local acceptance test, evaluated at complete(); default: accept.
  std::function<bool()> acceptance;

  /// Backward recovery hooks (§2.2 conversation semantics).
  std::function<void()> save_checkpoint;
  std::function<void()> restore_checkpoint;

  /// Failure exception signalled to the containing action when attempts are
  /// exhausted after acceptance failures. Must belong to the *containing*
  /// action's tree. Invalid + outermost => reported via the failure sink.
  ExceptionId failure_signal;

  /// Max attempts including the first (>= 1). Attempts beyond the first are
  /// backward recovery retries ("alternates").
  std::uint32_t max_attempts = 1;

  /// Simulated time consumed before a resolved handler's body starts.
  sim::Time handler_dispatch_delay = 0;

  /// Observation hooks (tests, examples, benches).
  std::function<void(ExceptionId resolved)> on_handler;
  std::function<void(LeaveOutcome, ExceptionId signal)> on_leave;

  /// Transaction integration: invoked on the leader when the instance
  /// commits / is aborted-or-restored-or-signalled.
  std::function<void()> on_commit;
  std::function<void()> on_abort;

  // ---- Crash-tolerance extension (fail-stop; §4.4) --------------------

  /// Number of top-ranked live raisers that resolve and commit. 1 (the
  /// default) is the paper's base algorithm; k > 1 tolerates k-1 resolver
  /// crashes at a constant-factor message cost.
  std::uint32_t resolver_committee = 1;

  /// When valid: raised in this action if a member crashes while this
  /// participant is still working — turning peer failure into forward
  /// recovery among the survivors.
  ExceptionId crash_exception;

  // ---- Exit-protocol seam (src/exit/) ---------------------------------

  /// Test hook: builds the exit protocol instead of make_exit_protocol().
  /// Lets tests interpose a fake/instrumented ExitProtocol at the seam.
  std::function<std::unique_ptr<exit::ExitProtocol>(
      exit::ExitHost&, const InstanceInfo&)>
      exit_factory;

  class Builder;
  /// Starts a fluent build from the mandatory handler table:
  ///   EnterConfig::with(handlers).body(...).acceptance(...).retries(3, f)
  /// The result converts to EnterConfig wherever one is expected; invalid
  /// combinations are rejected by enter()'s validation.
  static Builder with(ex::HandlerTable handlers);
};

/// Chainable constructor for EnterConfig. Every method sets one field and
/// returns the builder, so entry configuration reads as one expression
/// instead of a 12-field aggregate fill.
class EnterConfig::Builder {
 public:
  explicit Builder(ex::HandlerTable handlers) {
    config_.handlers = std::move(handlers);
  }

  Builder& abortion(ex::AbortionHandler handler) {
    config_.abortion_handler = std::move(handler);
    return *this;
  }
  Builder& body(std::function<void(std::uint32_t attempt)> fn) {
    config_.body = std::move(fn);
    return *this;
  }
  Builder& acceptance(std::function<bool()> test) {
    config_.acceptance = std::move(test);
    return *this;
  }
  Builder& checkpoints(std::function<void()> save,
                       std::function<void()> restore) {
    config_.save_checkpoint = std::move(save);
    config_.restore_checkpoint = std::move(restore);
    return *this;
  }
  /// Backward recovery: `attempts` tries in total (>= 1); when exhausted,
  /// `failure_signal` (if valid) is signalled to the containing action.
  Builder& retries(std::uint32_t attempts,
                   ExceptionId failure_signal = ExceptionId::invalid()) {
    config_.max_attempts = attempts;
    config_.failure_signal = failure_signal;
    return *this;
  }
  Builder& handler_delay(sim::Time delay) {
    config_.handler_dispatch_delay = delay;
    return *this;
  }
  Builder& on_handler(std::function<void(ExceptionId)> fn) {
    config_.on_handler = std::move(fn);
    return *this;
  }
  Builder& on_leave(std::function<void(LeaveOutcome, ExceptionId)> fn) {
    config_.on_leave = std::move(fn);
    return *this;
  }
  Builder& on_commit(std::function<void()> fn) {
    config_.on_commit = std::move(fn);
    return *this;
  }
  Builder& on_abort(std::function<void()> fn) {
    config_.on_abort = std::move(fn);
    return *this;
  }
  Builder& committee(std::uint32_t resolvers) {
    config_.resolver_committee = resolvers;
    return *this;
  }
  Builder& on_peer_crash(ExceptionId exception) {
    config_.crash_exception = exception;
    return *this;
  }
  Builder& exit_factory(
      std::function<std::unique_ptr<exit::ExitProtocol>(
          exit::ExitHost&, const InstanceInfo&)>
          factory) {
    config_.exit_factory = std::move(factory);
    return *this;
  }

  [[nodiscard]] EnterConfig build() const& { return config_; }
  [[nodiscard]] EnterConfig build() && { return std::move(config_); }
  operator EnterConfig() const& { return config_; }        // NOLINT
  operator EnterConfig() && { return std::move(config_); }  // NOLINT

 private:
  EnterConfig config_;
};

inline EnterConfig::Builder EnterConfig::with(ex::HandlerTable handlers) {
  return Builder(std::move(handlers));
}

/// Builds a handler table with `result` for every exception in `tree`.
ex::HandlerTable uniform_handlers(const ex::ExceptionTree& tree,
                                  ex::HandlerResult result);

/// What a participant knows of a message's scope when the message arrives.
struct ScopeSeen {
  bool dead = false;          // tombstoned: aborted, left or abandoned here
  bool entered = false;       // a context is open for it
  bool aborting = false;      // an outer resolution is aborting it
  std::uint32_t round = 0;    // its current round (entered only)
  bool engine_ready = false;  // that round's engine is installed
};

/// What becomes of one scoped message.
enum class Verdict : std::uint8_t {
  kDeliver,
  kHold,          // until entry or the message's round
  kStale,         // an earlier round: ACK it if its sender needs the ACK
  kDropCrashed,   // a crashed sender's resolution content is void
  kDropDead,
  kDropAborting,  // the outer resolution supersedes this scope's
  kAnswerLeave,   // a left scope's Done or vote: reply from the Leave log
};

/// The intake rule for every scoped kind — the five resolution kinds,
/// kFastCover, kActionDone, the four Paxos kinds and kActionLeave — given
/// the message's `round` and whether its sender is known to have crashed.
/// Pure, so one table test (caa_races_test, ScopeInbox) pins all of it.
[[nodiscard]] Verdict classify(net::MsgKind kind, bool from_crashed,
                               const ScopeSeen& scope, std::uint32_t round);

/// A record of one handled (resolved) exception, for assertions.
struct HandledRecord {
  ActionInstanceId instance;
  std::uint32_t round = 0;  // round that was resolved
  ExceptionId resolved;
  sim::Time at = 0;
};

/// A record of one executed abortion handler.
struct AbortRecord {
  ActionInstanceId instance;
  ExceptionId signalled;  // invalid if none
  sim::Time at = 0;
};

class Participant : public rt::ManagedObject, private exit::ExitHost {
 public:
  explicit Participant(ActionManager& manager) : manager_(manager) {}

  // ---- Scenario-facing API -------------------------------------------

  /// Enters an action instance (asynchronous entry, §4.1). Returns false —
  /// modelling a belated participant that "will never be able to enter" —
  /// when a resolution or abortion is already in progress at this object.
  bool enter(ActionInstanceId instance, EnterConfig config);

  /// Raises a declared exception in the active action. If this object is no
  /// longer Normal (already suspended/exceptional) the raise is superseded
  /// and ignored, mirroring an interrupted application (counted under
  /// caa.raise_superseded).
  void raise(ExceptionId exception, std::string message = {});
  void raise(std::string_view exception_name, std::string message = {});

  /// Declares this participant's part of the active action finished.
  /// `acceptance_ok` is AND-ed with the configured acceptance test. Ignored
  /// (superseded) when a resolution is in progress.
  void complete(bool acceptance_ok = true);

  // ---- Introspection ----------------------------------------------------

  [[nodiscard]] bool in_action() const { return !contexts_.empty(); }
  [[nodiscard]] ActionInstanceId active_instance() const;
  [[nodiscard]] std::size_t nesting_depth() const { return contexts_.size(); }
  [[nodiscard]] resolve::ResolverCore::State resolver_state() const;

  /// True when this participant has finished its part of the active action
  /// and is waiting at the acceptance line (it can no longer raise).
  [[nodiscard]] bool at_acceptance_line() const;
  [[nodiscard]] std::uint32_t round_of(ActionInstanceId instance) const;
  [[nodiscard]] std::uint32_t attempt_of(ActionInstanceId instance) const;

  [[nodiscard]] const std::vector<HandledRecord>& handled() const {
    return handled_;
  }
  /// Test-only: plants a handled record as if a commit had been applied.
  /// Exists so the invariant oracle's agreement check can be exercised on a
  /// minimal divergence without reproducing a full protocol bug.
  void debug_inject_handled(const HandledRecord& record) {
    handled_.push_back(record);
  }
  [[nodiscard]] const std::vector<AbortRecord>& aborts() const {
    return aborts_;
  }

  /// Invoked (on the leader) when an outermost action fails terminally.
  void set_failure_sink(
      std::function<void(ActionInstanceId, ExceptionId)> sink) {
    failure_sink_ = std::move(sink);
  }

  /// Crash-tolerance extension: informs this participant that `peer` has
  /// crashed (fail-stop). Typically driven by an rt::HeartbeatMonitor. The
  /// peer stops counting towards ACKs, nested completions and exit
  /// barriers; if it was the exit-barrier leader, leadership moves to the
  /// next live member and pending Dones are re-sent; if crash_exception is
  /// configured and this participant is still working, it is raised.
  void notify_peer_crashed(ObjectId peer);

  /// Crash-tolerance extension: informs this participant that a previously
  /// crashed `peer` restarted. The peer stays excluded from every scope this
  /// participant had contacted when it learned of the crash, in every later
  /// round of them too, but its messages are accepted again and it counts
  /// as a regular member of scopes first contacted from now on (DESIGN.md
  /// §4b).
  void notify_peer_restarted(ObjectId peer);

  /// Crash-tolerance extension, restart side: invoked (by the World's node
  /// hook) when this participant's node comes back up after a crash. A
  /// fail-stop crash loses all volatile action state, so every open context
  /// is abandoned innermost-first (tombstoned like an abort — counted under
  /// caa.restart_abandoned) and held belated messages are discarded.
  /// The restarted object may enter *new* action instances afterwards;
  /// rejoining the instances it crashed out of is not supported (survivors
  /// have excluded it).
  void on_restarted();

  /// Scopes this participant abandoned in on_restarted(): a commit it
  /// applied before the crash is volatile state the survivors can never
  /// learn, so per-scope agreement checks (fault::Oracle) skip these.
  [[nodiscard]] const std::set<ActionInstanceId>& abandoned_scopes() const {
    return abandoned_;
  }

  /// This participant's overlay dissemination engine (tree-mode scopes only;
  /// exposed for tests asserting tree determinism and healing).
  [[nodiscard]] const overlay::Disseminator& overlay() const {
    return overlay_;
  }

  /// Final-Leave records of exited scopes (replayed to members whose Leave
  /// copy was lost; GC'd by LeaveAcks when WorldConfig.exit_gc is on).
  /// Exposed for the retained-records gauge and tests.
  [[nodiscard]] const exit::LeaveLog& leave_log() const { return leave_log_; }

  /// The exit protocol currently driving `scope` at this participant, or
  /// nullptr when the scope is not open here (introspection for tests).
  [[nodiscard]] const exit::ExitProtocol* exit_protocol_of(
      ActionInstanceId scope) const;

  /// Liveness introspection (obs::Watchdog describer): fills `report` with
  /// this participant's view of `scope` — the stage it believes the scope
  /// is in (resolution state, avoidance census, exit protocol, handler) and
  /// the peers it is waiting to hear from. Returns false when the scope is
  /// not open here.
  bool describe_scope(ActionInstanceId scope,
                      obs::WatchdogReport& report) const;

  /// Fail-stop crash of this participant's node (World's down-hook): its
  /// open scopes must not pin the liveness watchdog — the survivors exclude
  /// it and can finish without it. Idempotent; the holds re-arm after
  /// on_restarted() for instances entered post-restart.
  void wd_release_open_scopes();

  // ---- rt::ManagedObject --------------------------------------------------

  void on_message(ObjectId from, net::MsgKind kind,
                  const net::Bytes& payload) override;

 private:
  struct RawMsg {
    ObjectId from;
    net::MsgKind kind;
    net::Bytes payload;
  };

  /// Dynamic per-context state (the static part lives in ex::Context).
  struct Dyn {
    const InstanceInfo* info = nullptr;
    EnterConfig config;
    // This scope's entry in exclusions_ (crashed members; grows only).
    const std::set<ObjectId>* excluded = nullptr;
    std::unique_ptr<resolve::ResolverCore> engine;
    std::uint32_t round = 0;
    std::uint32_t attempt = 0;
    bool aborting = false;   // part of an abort chain in progress
    bool done_sent = false;  // waiting at the acceptance line (§2.2): this
                             // participant's part of the attempt is finished
                             // and it can no longer raise or re-complete
    bool handling = false;   // a resolved handler has taken over this
                             // participant's duties (termination model,
                             // §3.1): no raises, entries or completions
                             // from the superseded body until the handler
                             // completes the action
    // The pluggable exit/commit protocol driving this scope's exit
    // (src/exit/): owns the Done collection state that used to be inlined
    // here. Created in enter(), retired (not destroyed) at pop_context.
    std::unique_ptr<exit::ExitProtocol> exit;
    // Coordination-avoidance coordinator (src/resolve/avoidance.h).
    // Created lazily, on the first fast raise or the first kFastCover
    // delivered, so a scope that never sees a census pays nothing for it.
    std::unique_ptr<resolve::AvoidanceCoordinator> avoidance;
    // CrashSync barrier (extension): the result of this participant's most
    // recent finished round, advertised to survivors so a resolution the
    // crashed resolver committed is not lost with it.
    std::optional<resolve::CommitMsg> last_commit;
    // Members whose CrashSync status has not been heard yet; while
    // non-empty the engine's commit gate stays on.
    std::set<ObjectId> sync_waiting;
    // A raise_from_suspended promotion deferred until the barrier drains
    // (the sync may surface a commit that makes promotion unnecessary).
    bool promote_pending = false;
    // When this participant raised (explicitly or by promotion): start of
    // the "resolve.latency" histogram sample taken when its round finishes.
    // Unconditional (not obs-gated) so campaign percentile rows exist for
    // un-observed worlds; histograms never feed behaviour checksums.
    sim::Time raise_time = -1;
  };

  // Intake of scoped messages: one verdict from classify() each.
  void on_scoped(ObjectId from, net::MsgKind kind, const net::Bytes& payload);
  void deliver_to_engine(Dyn& dyn, net::MsgKind kind,
                         const net::Bytes& payload);
  void ack_stale(const Dyn& dyn, ObjectId from, net::MsgKind kind,
                 std::uint32_t round);
  void hold(ActionInstanceId scope, RawMsg msg);
  /// Replays a scope's held messages through the intake, in arrival order.
  void release_held(ActionInstanceId scope);
  void purge_held_from(ObjectId peer);
  void on_leave_ack(ObjectId from, const net::Bytes& payload);
  void on_leave_msg(const net::Bytes& payload);
  void on_crash_sync(ObjectId from, const net::Bytes& payload);

  // Resolution plumbing.
  resolve::ResolverCore::Hooks make_hooks(ActionInstanceId scope);
  /// The scope's avoidance coordinator, created on first use.
  resolve::AvoidanceCoordinator& ensure_avoidance(Dyn& dyn,
                                                  ActionInstanceId scope);
  void multicast(const InstanceInfo& info, net::MsgKind kind,
                 const net::Bytes& payload);
  /// One member: along the relay tree in tree mode, direct otherwise.
  void unicast(const InstanceInfo& info, ObjectId to, net::MsgKind kind,
               net::Bytes payload);
  void send_ack(const InstanceInfo& info, std::uint32_t round, ObjectId to);

  // Overlay dissemination (tree-mode scopes; src/overlay/).
  void join_overlay(const InstanceInfo& info);
  void on_relay(ObjectId from, const net::Bytes& payload);
  void on_round_finished(ActionInstanceId scope, ExceptionId resolved,
                         ObjectId resolver);
  void invoke_handler(ActionInstanceId scope, ExceptionId resolved,
                      std::uint32_t resolved_round);

  // CrashSync barrier (extension; see notify_peer_crashed): after excluding
  // a crashed member from `scope`, push our resolution status to every
  // remaining live member and gate new commits until all have answered.
  void begin_crash_sync(ActionInstanceId scope, Dyn& dyn, ObjectId crashed);
  void crash_sync_heard(ActionInstanceId scope, Dyn& dyn, ObjectId from);
  [[nodiscard]] resolve::CrashSyncMsg sync_status(
      const Dyn& dyn, ActionInstanceId scope, ObjectId crashed,
      resolve::CrashSyncMsg::Phase phase) const;
  /// Runs a deferred suspended-survivor promotion once its preconditions
  /// settle (barrier drained, abortion finished); clears the flag if they
  /// no longer hold (e.g. the sync delivered a commit or a live raiser).
  void maybe_promote(ActionInstanceId scope);

  // Abortion of nested chains (innermost-first, §4.1). A running chain can
  // be *retargeted* to an outer action when an outer resolution supersedes
  // the one that started the abortion (§3.3 point 4).
  struct AbortChain {
    ActionInstanceId target;
    std::function<void(ExceptionId)> done;
  };
  void abort_chain_until(ActionInstanceId scope,
                         std::function<void(ExceptionId)> done);
  void abort_step();

  // Exit (delegated to the scope's pluggable exit::ExitProtocol).
  void complete_internal(ActionInstanceId scope, bool ok, ExceptionId signal);
  void apply_leave(const LeaveMsg& m);
  void record_leave(const Dyn& dyn, const LeaveMsg& m);
  void pop_context(ActionInstanceId scope, bool dead);

  // ---- exit::ExitHost (the seam the exit protocols talk back through) ----
  [[nodiscard]] ObjectId exit_self() const override;
  [[nodiscard]] std::uint32_t exit_round(ActionInstanceId scope)
      const override;
  [[nodiscard]] const std::set<ObjectId>& exit_excluded(ActionInstanceId
                                                            scope)
      const override;
  [[nodiscard]] bool exit_aborting(ActionInstanceId scope) const override;
  [[nodiscard]] bool exit_resolution_idle(ActionInstanceId scope)
      const override;
  void exit_unicast(ActionInstanceId scope, ObjectId to, net::MsgKind kind,
                    net::Bytes payload) override;
  void exit_unicast_many(ActionInstanceId scope,
                         const std::vector<ObjectId>& targets,
                         net::MsgKind kind,
                         const net::Bytes& payload) override;
  void exit_multicast(ActionInstanceId scope, net::MsgKind kind,
                      const net::Bytes& payload) override;
  void exit_announce_live(ActionInstanceId scope, net::MsgKind kind,
                          const net::Bytes& payload) override;
  [[nodiscard]] LeaveMsg exit_decide(ActionInstanceId scope,
                                     std::uint32_t round,
                                     const std::vector<DoneMsg>& dones)
      override;
  void exit_deliver_leave(const LeaveMsg& m) override;

  // Helpers.
  /// The scope's exclusion set; the first call seeds it from crashed_.
  std::set<ObjectId>& exclusions_of(const InstanceInfo& info);
  [[nodiscard]] std::unique_ptr<resolve::ResolverCore> make_engine(
      Dyn& dyn, ActionInstanceId scope);
  [[nodiscard]] ObjectId live_leader(const Dyn& dyn) const;
  [[nodiscard]] Dyn* find_dyn(ActionInstanceId scope);
  [[nodiscard]] const Dyn& dyn_of(ActionInstanceId scope) const;
  [[nodiscard]] bool is_live(ActionInstanceId scope) const;
  void run_guarded(ActionInstanceId scope, sim::Time delay,
                   std::function<void()> fn);
  /// The observability hub when attached AND enabled, else nullptr — the
  /// one branch every instrumentation site pays.
  [[nodiscard]] obs::Observability* observing() const;
  /// Records a scope-lifecycle step (enter, Done, takeover, handlers,
  /// Leave) for the span view; observed worlds only (obs/chrome_trace.h).
  void record_lifecycle(obs::RecType type, ActionInstanceId scope,
                        std::uint32_t round = 0, std::uint32_t code = 0,
                        std::uint32_t peer = 0);

  // Health gauges + liveness watchdog (src/obs/). Gauge pushes recompute
  // this participant's contribution and push the delta; watchdog notes are
  // one-compare no-ops while disarmed and compile out entirely under
  // CAA_OBS_DISABLED. None of these touch counters or schedule events, so
  // behaviour checksums are unaffected.
  void sync_caa_health();
  void wd_open(ActionInstanceId scope);
  void wd_progress(ActionInstanceId scope);
  void wd_closed(ActionInstanceId scope);

  ActionManager& manager_;
  ex::ContextStack contexts_;
  // Per-scope exclusion sets, declared before their readers. A flat scope's
  // goes with its context, a tree scope's when the overlay drops the scope.
  std::map<ActionInstanceId, std::set<ObjectId>> exclusions_;
  std::map<ActionInstanceId, Dyn> dyn_;
  // Messages classify() held: for a scope not entered yet, or for a round
  // the entered scope has not reached.
  std::map<ActionInstanceId, std::vector<RawMsg>> held_;
  std::set<ActionInstanceId> dead_;
  std::set<ActionInstanceId> abandoned_;  // scopes wiped by our own restarts
  // Final Leave of every scope this participant exited through an exit
  // protocol. A member whose Leave copy died with the old leader re-sends
  // its Done/vote on re-election; the recipient may have left already, so
  // it answers from this record instead of dropping the message (the sender
  // is released by the same outcome everyone else applied). With
  // WorldConfig.exit_gc the records are ACK-collected (exit/leave_log.h).
  exit::LeaveLog leave_log_;
  // Exit protocols whose scope tore down while their frames may still be on
  // the stack (the decide path ends in exit_deliver_leave, which pops the
  // context). Retired here instead of destroyed; swept at the next quiet
  // entry into this participant.
  std::vector<std::unique_ptr<exit::ExitProtocol>> retired_exits_;
  // Peers known to have crashed (extension): filters their messages and
  // seeds the exclusion set of scopes first contacted later. A restart
  // erases the peer here, never from a scope's exclusion set.
  std::set<ObjectId> crashed_;
  overlay::Disseminator overlay_;  // relay engine for tree-mode scopes
  bool overlay_ready_ = false;     // configure() ran (identity bound)
  std::optional<AbortChain> abort_chain_;
  std::vector<HandledRecord> handled_;
  std::vector<AbortRecord> aborts_;
  std::function<void(ActionInstanceId, ExceptionId)> failure_sink_;
  // Last-pushed health-gauge contributions (delta tracking).
  std::int64_t scopes_gauge_ = 0;
  std::int64_t exit_barrier_gauge_ = 0;
  std::int64_t exit_paxos_gauge_ = 0;
  // Watchdog holds already released by a crash (wd_release_open_scopes):
  // the restart's pop_context must not double-release them.
  bool wd_released_ = false;
};

}  // namespace caa::action
