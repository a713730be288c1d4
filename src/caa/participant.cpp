#include "caa/participant.h"

#include <algorithm>

#include "rt/runtime.h"
#include "util/check.h"
#include "util/counters.h"

namespace caa::action {

namespace {
// Accounting handles, interned once per process (hot on the message paths).
const CounterId kCounterRaiseSuperseded = CounterId::of("caa.raise_superseded");
const CounterId kCounterCompleteSuperseded =
    CounterId::of("caa.complete_superseded");
const CounterId kCounterDeadScopeDropped =
    CounterId::of("caa.dead_scope_dropped");
const CounterId kCounterAbortingDropped = CounterId::of("caa.aborting_dropped");
const CounterId kCounterSignalDropped =
    CounterId::of("caa.signal_dropped_resolution_in_progress");
const CounterId kCounterEnterRefusedDead =
    CounterId::of("caa.enter_refused_dead");
const CounterId kCounterEnterRefusedExceptional =
    CounterId::of("caa.enter_refused_exceptional");
const CounterId kCounterUnhandledKind = CounterId::of("caa.unhandled_kind");
const CounterId kCounterStaleRound = CounterId::of("caa.stale_round");
const CounterId kCounterRestartAbandoned =
    CounterId::of("caa.restart_abandoned");
const CounterId kCounterFromCrashedDropped =
    CounterId::of("caa.from_crashed_dropped");
// Leave-record GC accounting (only ever incremented when WorldConfig.exit_gc
// is on, so checksum-pinned worlds never see them).
const CounterId kCounterLeaveRecorded = CounterId::of("exit.leave_recorded");
const CounterId kCounterLeaveCollected = CounterId::of("exit.leave_collected");
}  // namespace

ex::HandlerTable uniform_handlers(const ex::ExceptionTree& tree,
                                  ex::HandlerResult result) {
  (void)tree;  // coverage is tree-independent with a default handler
  ex::HandlerTable table;
  table.set_default([result](ExceptionId) { return result; });
  return table;
}

// ---------------------------------------------------------------------------
// Scenario-facing API
// ---------------------------------------------------------------------------

bool Participant::enter(ActionInstanceId instance, EnterConfig config) {
  retired_exits_.clear();  // no exit-protocol frames on the stack here
  const InstanceInfo& info = manager_.info(instance);
  CAA_CHECK_MSG(info.is_member(id()), "enter(): not a declared member");
  if (dead_.contains(instance)) {
    // The instance was aborted before we managed to enter: we are the
    // paper's belated participant that "will never be able to" enter.
    runtime().simulator().counters().add(kCounterEnterRefusedDead);
    return false;
  }
  if (info.parent.valid() && !is_active(info.parent)) {
    // The containing action is not our active action (it was aborted, or it
    // completed, or we never entered it): entry is impossible — the belated
    // participant "will never be able to enter" (§2.2).
    CAA_CHECK_MSG(dead_.contains(info.parent),
                  "enter(): containing action neither active nor aborted — "
                  "scenario bug");
    runtime().simulator().counters().add(kCounterEnterRefusedDead);
    return false;
  }
  if (in_action()) {
    CAA_CHECK_MSG(is_active(info.parent),
                  "enter(): instance is not nested in the active action");
    const Dyn& active_dyn = *stack_.back();
    if (active_dyn.aborting || active_dyn.done_sent || active_dyn.handling ||
        active_dyn.engine->state() != resolve::ResolverCore::State::kNormal ||
        (active_dyn.avoidance != nullptr && !active_dyn.avoidance->idle())) {
      // Resolution/abortion in progress in the containing action, or this
      // participant already finished its part of it: entry is impossible
      // now (belated participant).
      runtime().simulator().counters().add(kCounterEnterRefusedExceptional);
      return false;
    }
  } else {
    CAA_CHECK_MSG(!info.parent.valid(),
                  "enter(): nested instance entered with no containing "
                  "action on this participant");
  }
  CAA_CHECK_MSG(config.handlers.is_complete_for(info.decl->tree()),
                "enter(): participant must have handlers for ALL declared "
                "exceptions (§3.3)");
  CAA_CHECK_MSG(config.max_attempts >= 1,
                "enter(): max_attempts must be >= 1 (the first attempt "
                "counts)");
  CAA_CHECK_MSG(config.resolver_committee >= 1,
                "enter(): resolver committee needs at least one member");
  if (config.save_checkpoint) config.save_checkpoint();

  CAA_CHECK_MSG(find_dyn(instance) == nullptr,
                "enter(): re-entering an instance");
  Dyn& dyn = *stack_.emplace_back(std::make_unique<Dyn>());
  dyn.info = &info;
  dyn.config = std::move(config);
  dyn.excluded = &membership_.contact(info);

  // Tree-mode scope: join the relay overlay before any message can flow, so
  // this member relays (and delivers) from the first envelope on.
  if (info.use_tree) join_overlay(info);

  // The scope's one resolution engine: every later round opens in it
  // (next_round). It lives and dies with the record its hooks bind to.
  resolve::ResolverCore::Hooks hooks;
  hooks.multicast = [this, &info](net::MsgKind kind, net::Bytes payload) {
    multicast(info, kind, payload);
  };
  hooks.ack = [this, &info](ObjectId to, std::uint32_t round) {
    send_ack(info, round, to);
  };
  hooks.abort_nested = [this, &info](std::function<void(ExceptionId)> done) {
    abort_chain_until(info.instance, std::move(done));
  };
  hooks.start_handler = [this, &dyn](ExceptionId resolved) {
    on_round_finished(dyn, resolved);
  };
  hooks.purge_nested_from = [this](ObjectId peer) { purge_held_from(peer); };
  if (attached()) hooks.obs = &runtime().simulator().obs();
  dyn.engine = std::make_unique<resolve::ResolverCore>(
      id(), info.members, *dyn.excluded, &info.decl->tree(), instance,
      dyn.round, std::move(hooks), dyn.config.resolver_committee);
  if (manager_.debug_bugs().exclusion_divergence) {
    dyn.engine->set_debug_keep_crashed(true);
  }
  dyn.exit = dyn.config.exit_factory
                 ? dyn.config.exit_factory(*this, info)
                 : exit::make_exit_protocol(info.exit, *this, info);
  // Entering an action some members already crashed out of: sync with the
  // live members before resolving anything. Their status replies carry any
  // commit of a round this belated entrant missed entirely (its held
  // copy, if one was ever sent, is from-crashed traffic and void).
  for (ObjectId peer : *dyn.excluded) begin_crash_sync(instance, dyn, peer);
  record_lifecycle(obs::RecType::kEnter, instance);
  sync_caa_health();
  wd_open(instance);

  release_held(instance);  // §4.2 "process messages having arrived"

  if (const Dyn* still = find_dyn(instance);
      still != nullptr && still->config.body) {
    run_guarded(instance, 0, [this, instance] {
      Dyn* d = find_dyn(instance);
      if (d != nullptr && d->config.body) d->config.body(d->attempt);
    });
  }
  return true;
}

void Participant::raise(ExceptionId exception, std::string message) {
  CAA_CHECK_MSG(in_action(), "raise(): not inside a CA action");
  Dyn& dyn = *stack_.back();
  if (dyn.aborting || dyn.done_sent || dyn.handling ||
      dyn.engine->state() != resolve::ResolverCore::State::kNormal) {
    // Superseded: a resolution or handler is in progress, or this
    // participant already finished its part and waits at the acceptance
    // line (a process there raises no further exceptions; errors it detects
    // surface as acceptance failures instead).
    runtime().simulator().counters().add(kCounterRaiseSuperseded);
    return;
  }
  if (dyn.avoidance != nullptr && dyn.avoidance->raise_pending()) {
    // One suppressed raise is already in flight; a second raise from the
    // same object is superseded, mirroring the engine's Exceptional guard.
    runtime().simulator().counters().add(kCounterRaiseSuperseded);
    return;
  }
  dyn.raise_time = now();
  const ActionInstanceId scope = dyn.info->instance;
  wd_progress(scope);
  if (dyn.info->resolve_avoidance &&
      ensure_avoidance(dyn).try_fast_raise(exception, std::move(message))) {
    return;  // suppressed: the census decides; the engine stays Normal
  }
  dyn.engine->raise(exception, std::move(message));
}

void Participant::raise(std::string_view exception_name, std::string message) {
  CAA_CHECK_MSG(in_action(), "raise(): not inside a CA action");
  const ExceptionId e = stack_.back()->info->decl->tree().find(exception_name);
  CAA_CHECK_MSG(e.valid(), "raise(): exception name not declared");
  raise(e, std::move(message));
}

void Participant::complete(bool acceptance_ok) {
  CAA_CHECK_MSG(in_action(), "complete(): not inside a CA action");
  Dyn& dyn = *stack_.back();
  if (dyn.aborting || dyn.done_sent || dyn.handling ||
      dyn.engine->state() != resolve::ResolverCore::State::kNormal ||
      (dyn.avoidance != nullptr && dyn.avoidance->raise_pending())) {
    // A resolution superseded the normal outcome (the handler will complete
    // the action — termination model, §3.1), or Done was already sent. A
    // suppressed fast raise supersedes exactly like the engine's
    // Exceptional state would have in the full protocol.
    runtime().simulator().counters().add(kCounterCompleteSuperseded);
    return;
  }
  complete_internal(dyn.info->instance, acceptance_ok, ExceptionId::invalid());
}

ActionInstanceId Participant::active_instance() const {
  CAA_CHECK(in_action());
  return stack_.back()->info->instance;
}

resolve::ResolverCore::State Participant::resolver_state() const {
  CAA_CHECK(in_action());
  return stack_.back()->engine->state();
}

bool Participant::at_acceptance_line() const {
  CAA_CHECK(in_action());
  return stack_.back()->done_sent;
}

std::uint32_t Participant::round_of(ActionInstanceId instance) const {
  const Dyn* dyn = find_dyn(instance);
  CAA_CHECK_MSG(dyn != nullptr, "round_of(): not entered");
  return dyn->round;
}

std::uint32_t Participant::attempt_of(ActionInstanceId instance) const {
  const Dyn* dyn = find_dyn(instance);
  CAA_CHECK_MSG(dyn != nullptr, "attempt_of(): not entered");
  return dyn->attempt;
}

// ---------------------------------------------------------------------------
// Message intake
// ---------------------------------------------------------------------------

Verdict classify(net::MsgKind kind, bool from_crashed, const ScopeSeen& scope,
                 std::uint32_t round) {
  switch (kind) {
    case net::MsgKind::kActionLeave:
      return scope.dead || !scope.entered ? Verdict::kDropDead
                                          : Verdict::kDeliver;
    case net::MsgKind::kActionDone:
    case net::MsgKind::kPaxosPrepare:
    case net::MsgKind::kPaxosPromise:
    case net::MsgKind::kPaxosVote:
    case net::MsgKind::kPaxosAccepted:
      // Exit protocols key votes by round and waive excluded voters.
      if (scope.dead) return Verdict::kAnswerLeave;
      return scope.entered ? Verdict::kDeliver : Verdict::kHold;
    default:  // the five resolution kinds and kFastCover
      break;
  }
  if (from_crashed) return Verdict::kDropCrashed;
  if (scope.dead) return Verdict::kDropDead;
  if (!scope.entered) return Verdict::kHold;
  if (scope.aborting) return Verdict::kDropAborting;
  if (round < scope.round) return Verdict::kStale;
  if (round > scope.round || !scope.engine_ready) return Verdict::kHold;
  return Verdict::kDeliver;
}

void Participant::on_message(ObjectId from, net::MsgKind kind,
                             const net::Bytes& payload) {
  if (!retired_exits_.empty()) retired_exits_.clear();  // quiet entry: sweep
  switch (kind) {
    case net::MsgKind::kException:
    case net::MsgKind::kHaveNested:
    case net::MsgKind::kNestedCompleted:
    case net::MsgKind::kAck:
    case net::MsgKind::kCommit:
    case net::MsgKind::kFastCover:
    case net::MsgKind::kActionDone:
    case net::MsgKind::kPaxosPrepare:
    case net::MsgKind::kPaxosPromise:
    case net::MsgKind::kPaxosVote:
    case net::MsgKind::kPaxosAccepted:
    case net::MsgKind::kActionLeave:
      on_scoped(from, kind, payload);
      return;
    case net::MsgKind::kCrashSync:
      on_crash_sync(from, payload);
      return;
    case net::MsgKind::kRelay:
      on_relay(from, payload);
      return;
    case net::MsgKind::kActionLeaveAck:
      on_leave_ack(from, payload);
      return;
    default:
      runtime().simulator().counters().add(kCounterUnhandledKind);
      return;
  }
}

void Participant::on_scoped(ObjectId from, net::MsgKind kind,
                            const net::Bytes& payload) {
  const auto header = resolve::peek_scope_round(payload);
  if (!header.is_ok()) return;  // malformed: never trust the wire
  const auto [scope, round] = header.value();
  Dyn* dyn = find_dyn(scope);
  ScopeSeen seen;
  seen.dead = dead_.contains(scope);
  if (dyn != nullptr) {
    seen.entered = true;
    seen.aborting = dyn->aborting;
    seen.round = dyn->round;
    // Not yet after a finish: the engine opens the round from a fresh event.
    seen.engine_ready = dyn->engine->round() == dyn->round;
  }
  // Fail-stop: a crashed sender's resolution content is void, uniformly, so
  // survivors it reached and survivors it missed resolve alike. The planted
  // exclusion-divergence bug (action::DebugBugs) accepts its five protocol
  // kinds again.
  const bool from_crashed =
      membership_.down().contains(from) &&
      (kind == net::MsgKind::kFastCover ||
       !manager_.debug_bugs().exclusion_divergence);
  switch (classify(kind, from_crashed, seen, round)) {
    case Verdict::kDropCrashed:
      runtime().simulator().counters().add(kCounterFromCrashedDropped);
      return;
    case Verdict::kDropDead:
      runtime().simulator().counters().add(kCounterDeadScopeDropped);
      return;
    case Verdict::kDropAborting:
      runtime().simulator().counters().add(kCounterAbortingDropped);
      return;
    case Verdict::kHold:
      hold(scope, RawMsg{from, kind, payload});
      return;
    case Verdict::kAnswerLeave:
      // A member whose final Leave died with the old leader re-sends its
      // Done/vote after re-election: release it with the outcome everyone
      // applied. The planted lost-final-Leave bug drops it instead.
      if (const LeaveMsg* rec = leave_log_.find(scope);
          rec != nullptr && !manager_.debug_bugs().lost_final_leave) {
        send(from, net::MsgKind::kActionLeave, encode(*rec));
      } else {
        runtime().simulator().counters().add(kCounterDeadScopeDropped);
      }
      return;
    case Verdict::kStale:
      if (kind != net::MsgKind::kFastCover) {
        ack_stale(*dyn, from, kind, round);
      } else if (const auto m = resolve::decode_fast_cover(payload);
                 m.is_ok()) {
        ensure_avoidance(*dyn).on_stale(from, m.value());
      }
      return;
    case Verdict::kDeliver:
      break;
  }
  if (net::is_resolution_kind(kind)) {
    deliver_to_engine(*dyn, kind, payload);
  } else if (kind == net::MsgKind::kFastCover) {
    if (const auto m = resolve::decode_fast_cover(payload); m.is_ok()) {
      ensure_avoidance(*dyn).on_message(from, m.value());
    }
  } else if (kind == net::MsgKind::kActionLeave) {
    on_leave_msg(payload);
  } else {  // kActionDone and the Paxos kinds
    wd_progress(scope);
    dyn->exit->on_message(from, kind, payload);
  }
}

void Participant::ack_stale(const Dyn& dyn, ObjectId from, net::MsgKind kind,
                            std::uint32_t round) {
  // Stale-round Exception / NestedCompleted senders still need their ACKs
  // to reach Ready in the round they are stuck in (§4.2 "wait until all
  // exception messages are handled"). Everything else is dropped.
  if (kind == net::MsgKind::kException ||
      kind == net::MsgKind::kNestedCompleted) {
    send_ack(*dyn.info, round, from);
    if (obs::Observability* o = observing()) {
      // The engine has left `round`; tabulate its stale ACK here so the
      // per-round table still accounts for every protocol send.
      o->metrics().note_protocol_send(dyn.info->instance, round,
                                      net::MsgKind::kAck, 1);
    }
  }
  runtime().simulator().counters().add(kCounterStaleRound);
}

void Participant::deliver_to_engine(Dyn& dyn, net::MsgKind kind,
                                    const net::Bytes& payload) {
  wd_progress(dyn.info->instance);
  if (dyn.avoidance != nullptr &&
      (kind == net::MsgKind::kException || kind == net::MsgKind::kHaveNested)) {
    // A non-commuting raise went slow: the full exchange supersedes any fast
    // round. A suppressed raise replays BEFORE the trigger is delivered, so
    // this member's Exception multicast precedes its ACK of the trigger.
    dyn.avoidance->on_slow_traffic();
  }
  resolve::ResolverCore& engine = *dyn.engine;
  // The first message of a resolution in a scope our active action is
  // nested in starts the paper's HaveNested branch.
  const bool trigger =
      kind != net::MsgKind::kAck &&
      engine.state() == resolve::ResolverCore::State::kNormal &&
      !is_active(dyn.info->instance);
  CAA_CHECK_MSG(!trigger || kind == net::MsgKind::kException ||
                    kind == net::MsgKind::kHaveNested,
                "protocol violation: a NestedCompleted or a Commit cannot be "
                "the first message of a resolution (FIFO channels)");
  const auto m = resolve::decode_protocol(kind, payload);
  if (!m.is_ok()) return;
  if (trigger) {
    engine.on_trigger_while_nested(m.value());
  } else {
    engine.on_message(m.value());
  }
}

void Participant::hold(ActionInstanceId scope, RawMsg msg) {
  // First contact with a scope not entered starts its exclusion set.
  if (find_dyn(scope) == nullptr && manager_.known(scope)) {
    membership_.contact(manager_.info(scope));
  }
  held_[scope].push_back(std::move(msg));
}

void Participant::release_held(ActionInstanceId scope) {
  const auto it = held_.find(scope);
  if (it == held_.end()) return;
  std::vector<RawMsg> msgs = std::move(it->second);
  held_.erase(it);
  for (const RawMsg& raw : msgs) on_scoped(raw.from, raw.kind, raw.payload);
}

void Participant::purge_held_from(ObjectId peer) {
  // §4.2 "clean up messages related to nested actions": peer is aborting all
  // its nested actions, so what it sent for actions we never entered is
  // void. An entered scope's held messages wait for a later round instead.
  for (auto& [scope, msgs] : held_) {
    if (find_dyn(scope) != nullptr) continue;
    std::erase_if(msgs, [peer](const RawMsg& m) { return m.from == peer; });
  }
}

// ---------------------------------------------------------------------------
// Resolution plumbing
// ---------------------------------------------------------------------------

resolve::AvoidanceCoordinator& Participant::ensure_avoidance(Dyn& dyn) {
  if (dyn.avoidance != nullptr) return *dyn.avoidance;
  const InstanceInfo& info = *dyn.info;
  resolve::AvoidanceCoordinator::Hooks hooks;
  hooks.send = [this, &info](ObjectId to, net::Bytes payload) {
    unicast(info, to, net::MsgKind::kFastCover, std::move(payload));
  };
  hooks.multicast = [this, &info](const net::Bytes& payload) {
    multicast(info, net::MsgKind::kFastCover, payload);
  };
  hooks.live_leader = [this, &dyn] { return live_leader(dyn); };
  hooks.answer_idle = [this, &dyn] {
    // The scope must be this participant's active context: a nested child
    // in flight needs the HaveNested/abortion machinery the census skips.
    return !dyn.aborting && !dyn.done_sent && !dyn.handling &&
           dyn.excluded->empty() && is_active(dyn.info->instance) &&
           dyn.engine->state() == resolve::ResolverCore::State::kNormal;
  };
  hooks.replay_raise = [&dyn](ExceptionId e, std::string msg) {
    if (dyn.aborting ||
        dyn.engine->state() != resolve::ResolverCore::State::kNormal) {
      return;  // superseded meanwhile; the coordinator counted it stale
    }
    // raise_time keeps the original raise's timestamp: the fallback's
    // latency sample spans suppression AND the full exchange.
    dyn.engine->raise(e, std::move(msg));
  };
  hooks.schedule = [this, scope = info.instance](sim::Time delay,
                                                 std::function<void()> fn) {
    run_guarded(scope, delay, std::move(fn));
  };
  dyn.avoidance = std::make_unique<resolve::AvoidanceCoordinator>(
      id(), *dyn.engine, &info.members, dyn.excluded, &info.decl->tree(),
      std::move(hooks), &runtime().simulator().counters(),
      &runtime().simulator().obs().health());
  return *dyn.avoidance;
}

void Participant::multicast(const InstanceInfo& info, net::MsgKind kind,
                            const net::Bytes& payload) {
  if (info.use_tree) {
    // Tree-mode dissemination: hand the message to the overlay once; the
    // relay tree fans it out in O(N·k) envelopes instead of N-1 sends.
    overlay_.flood(info.instance, kind, payload);
    return;
  }
  for (ObjectId member : info.members) {
    if (member == id()) continue;
    // Pooled copy per recipient: the fan-out reuses recycled payload
    // buffers instead of heap-allocating one per member.
    send(member, kind, net::BytesPool::local().copy_of(payload));
  }
}

void Participant::unicast(const InstanceInfo& info, ObjectId to,
                          net::MsgKind kind, net::Bytes payload) {
  if (info.use_tree) {
    // Exit and census traffic mostly heads for the live leader, the lowest
    // live member — exactly the relay-tree root — so it aggregates up the
    // tree into shared envelopes.
    overlay_.route(info.instance, to, kind, std::move(payload));
    return;
  }
  send(to, kind, std::move(payload));
}

void Participant::send_ack(const InstanceInfo& info, std::uint32_t round,
                           ObjectId to) {
  if (info.use_tree) {
    // Joins the hierarchical tally merged towards the raiser.
    overlay_.send_ack(info.instance, round, to);
    return;
  }
  send(to, net::MsgKind::kAck,
       resolve::encode(resolve::AckMsg{info.instance, round, id()}));
}

// ---------------------------------------------------------------------------
// Overlay dissemination (tree-mode scopes)
// ---------------------------------------------------------------------------

void Participant::join_overlay(const InstanceInfo& info) {
  CAA_CHECK_MSG(info.use_tree, "join_overlay: scope is flat");
  if (!overlay_ready_) {
    overlay::Disseminator::Hooks hooks;
    hooks.send_envelope = [this](ObjectId to, net::Bytes payload) {
      send(to, net::MsgKind::kRelay, std::move(payload));
    };
    // Relayed deliveries re-enter on_message under the *origin*, so the one
    // intake rule (classify) applies to tree traffic unchanged.
    hooks.deliver = [this](ActionInstanceId scope, ObjectId origin,
                           net::MsgKind kind, const net::Bytes& payload) {
      (void)scope;
      on_message(origin, kind, payload);
    };
    hooks.deliver_ack = [this](ActionInstanceId scope, std::uint32_t round,
                               ObjectId acker) {
      on_message(acker, net::MsgKind::kAck,
                 resolve::encode(resolve::AckMsg{scope, round, acker}));
    };
    hooks.schedule = [this](sim::Time delay, std::function<void()> fn) {
      schedule_after(delay, std::move(fn));
    };
    overlay_.configure(id(), std::move(hooks),
                       &runtime().simulator().counters(),
                       &runtime().simulator().obs().health());
    overlay_ready_ = true;
  }
  overlay_.register_scope(info.instance, info.members,
                          membership_.contact(info), info.overlay.fanout);
}

void Participant::on_relay(ObjectId from, const net::Bytes& payload) {
  const auto scope = overlay::Disseminator::peek_envelope_scope(payload);
  if (!scope.is_ok()) return;  // malformed: never trust the wire
  if (abandoned_.contains(scope.value())) {
    // We restarted out of this scope; relay duty died with the crash and
    // the survivors' healed tree no longer counts on us.
    runtime().simulator().counters().add(kCounterDeadScopeDropped);
    return;
  }
  if (!manager_.known(scope.value())) return;
  const InstanceInfo& info = manager_.info(scope.value());
  if (!info.use_tree || !info.is_member(id())) return;
  // Register lazily: a belated member (or one that already left) still
  // relays for the committee; local deliveries meet the intake rule like
  // any direct message.
  join_overlay(info);
  overlay_.on_envelope(from, payload);
}

void Participant::on_round_finished(Dyn& dyn, ExceptionId resolved) {
  const ActionInstanceId scope = dyn.info->instance;
  wd_progress(scope);
  dyn.promote_pending = false;  // the round resolved; nothing to promote
  if (dyn.raise_time >= 0) {
    // Raiser-side resolution latency (raise -> this round's commit), fed
    // into the campaign's merged percentile rows.
    obs::Metrics& metrics = runtime().simulator().obs().metrics();
    metrics.record(metrics.histogram("resolve.latency"),
                   now() - dyn.raise_time);
    dyn.raise_time = -1;
  }
  const std::uint32_t resolved_round = dyn.round;
  ++dyn.round;  // subsequent messages of the old round become stale
  dyn.handling = true;  // the handler takes over this participant's duties
  // Census, promise and suppressed-raise state belonged to the finished
  // round (a suppressed raise is subsumed by the commit that finished it).
  if (dyn.avoidance != nullptr) dyn.avoidance->on_round_finished();
  // Open the next round and run the handler from a fresh event: finish()
  // is still on the engine's stack, and what its callers do next belongs
  // to the finished round.
  schedule_after(0, [this, scope, resolved, resolved_round] {
    Dyn* d = find_dyn(scope);
    if (d == nullptr || d->aborting) return;  // aborted meanwhile
    // Supersedes an acceptance-line wait or a running handler, if any.
    record_lifecycle(obs::RecType::kTakeover, scope, resolved_round);
    d->engine->next_round(d->round);
    d->done_sent = false;  // the handler takes over and completes anew
    sync_caa_health();     // exit occupancy: the handler re-opened our part
    release_held(scope);
    invoke_handler(scope, resolved, resolved_round);
  });
}

void Participant::invoke_handler(ActionInstanceId scope, ExceptionId resolved,
                                 std::uint32_t resolved_round) {
  Dyn* dyn = find_dyn(scope);
  CAA_CHECK(dyn != nullptr);
  run_guarded(scope, dyn->config.handler_dispatch_delay,
              [this, scope, resolved, resolved_round] {
    Dyn* d = find_dyn(scope);
    CAA_CHECK(d != nullptr);
    const ex::Handler& handler = d->config.handlers.get(resolved);
    record_lifecycle(obs::RecType::kHandler, scope, resolved_round,
                     resolved.value());
    const ex::HandlerResult result = handler(resolved);
    handled_.push_back(HandledRecord{scope, resolved_round, resolved, now()});
    if (d->config.on_handler) d->config.on_handler(resolved);
    run_guarded(scope, result.duration, [this, scope, result, resolved_round] {
      record_lifecycle(obs::RecType::kHandlerEnd, scope, resolved_round);
      if (result.outcome == ex::HandlerOutcome::kRecovered) {
        complete_internal(scope, true, ExceptionId::invalid());
      } else {
        complete_internal(scope, true, result.signal);
      }
    });
  });
}

// ---------------------------------------------------------------------------
// Abortion of nested chains
// ---------------------------------------------------------------------------

void Participant::abort_chain_until(ActionInstanceId scope,
                                    std::function<void(ExceptionId)> done) {
  const std::size_t target_depth = depth_of(scope);
  // Mark everything strictly below the target as aborting: their
  // resolutions are superseded (§3.3 point 4).
  for (std::size_t depth = target_depth + 1; depth < stack_.size(); ++depth) {
    stack_[depth]->aborting = true;
  }
  if (abort_chain_.has_value()) {
    // An even more deeply scoped abortion was in progress; the new (outer)
    // resolution supersedes it. Retarget: the old target's NestedCompleted
    // will never be sent — its whole action is aborted instead.
    CAA_CHECK_MSG(target_depth < depth_of(abort_chain_->target),
                  "abort retarget must be an outer action");
    abort_chain_->target = scope;
    abort_chain_->done = std::move(done);
    return;  // the running chain keeps stepping, now towards `scope`
  }
  abort_chain_ = AbortChain{scope, std::move(done)};
  abort_step();
}

void Participant::abort_step() {
  CAA_CHECK(abort_chain_.has_value());
  CAA_CHECK(in_action());
  const ex::AbortionHandler& handler = stack_.back()->config.abortion_handler;
  const ActionInstanceId instance = stack_.back()->info->instance;
  CAA_CHECK_MSG(instance != abort_chain_->target, "abort_step past target");
  // Run this nested action's abortion handler (§4.1: abortion handlers run
  // innermost-first; only they may run in an aborted action).
  const ex::AbortResult result = handler ? handler() : ex::AbortResult::none();
  record_lifecycle(obs::RecType::kAbortHandler, instance, 0,
                   result.signal.value());
  schedule_after(result.duration, [this, instance, signal = result.signal] {
    Dyn* dyn = find_dyn(instance);
    // A node restart may have abandoned this context (on_restarted) between
    // the abortion handler and this continuation; the chain is void then.
    if (dyn == nullptr) return;
    if (dyn->config.on_abort) dyn->config.on_abort();
    aborts_.push_back(AbortRecord{instance, signal, now()});
    if (obs::FlightRecorder& recorder =
            runtime().simulator().obs().recorder();
        recorder.enabled()) {
      recorder.record_protocol(obs::RecType::kAbort, id().value(),
                               instance.value(), 0,
                               signal.valid() ? signal.value() : 0);
    }
    pop_context(instance);
    if (!abort_chain_.has_value()) return;  // defensive; should not happen
    if (is_active(abort_chain_->target)) {
      // Only the exception signalled by the abortion handlers of the
      // *directly* nested action may be raised in the container (§4.1).
      auto done = std::move(abort_chain_->done);
      const ActionInstanceId target = abort_chain_->target;
      abort_chain_.reset();
      done(signal);
      // A peer crash observed mid-abortion deferred any suspended-survivor
      // promotion; the engine state is decidable now.
      maybe_promote(target);
      return;
    }
    abort_step();
  });
}

// ---------------------------------------------------------------------------
// Exit (delegated to the scope's pluggable exit::ExitProtocol)
// ---------------------------------------------------------------------------

void Participant::complete_internal(ActionInstanceId scope, bool ok,
                                    ExceptionId signal) {
  Dyn* dyn = find_dyn(scope);
  CAA_CHECK(dyn != nullptr);
  if (dyn->engine->state() != resolve::ResolverCore::State::kNormal) {
    // A new resolution started before this completion was reported; the new
    // round's handler will complete instead.
    runtime().simulator().counters().add(kCounterCompleteSuperseded);
    return;
  }
  // Figure 2(b): the acceptance test guards EVERY attempt's completion —
  // normal body completions and handler-driven ones alike.
  if (ok && !signal.valid() && dyn->config.acceptance) {
    ok = dyn->config.acceptance();
  }
  dyn->done_sent = true;
  dyn->handling = false;  // handler (if any) has completed the action part
  DoneMsg m{scope, dyn->round, id(), ok, signal};
  record_lifecycle(obs::RecType::kDone, scope, dyn->round, ok ? 1 : 0);
  sync_caa_health();  // exit occupancy: done_sent flipped on
  wd_progress(scope);
  // From here the exit protocol owns everything up to the Leave decision.
  dyn->exit->on_complete(m);
}

void Participant::on_leave_ack(ObjectId from, const net::Bytes& payload) {
  (void)from;
  auto m = exit::decode_leave_ack(payload);
  if (!m.is_ok()) return;
  const ActionInstanceId scope = m.value().scope;
  if (abandoned_.contains(scope) ||
      (dead_.contains(scope) && leave_log_.find(scope) == nullptr)) {
    // We never recorded a Leave for this scope (restart wiped it, or we
    // aborted out while peers exited): nothing to collect, and no record
    // will ever appear — do not buffer the ACK.
    return;
  }
  if (leave_log_.on_ack(scope, m.value().sender)) {
    runtime().simulator().counters().add(kCounterLeaveCollected);
  }
}

void Participant::on_leave_msg(const net::Bytes& payload) {
  auto m = decode_leave(payload);
  if (!m.is_ok()) return;
  apply_leave(m.value());
}

void Participant::apply_leave(const LeaveMsg& m) {
  Dyn* dyn = find_dyn(m.scope);
  if (dyn == nullptr || dyn->aborting) {
    // The action is gone, or an outer resolution is aborting it right now —
    // abortion supersedes the normal exit decision.
    runtime().simulator().counters().add(kCounterDeadScopeDropped);
    return;
  }
  CAA_CHECK_MSG(is_active(m.scope), "Leave for a non-active context");
  wd_progress(m.scope);
  record_lifecycle(obs::RecType::kLeave, m.scope, m.round,
                   static_cast<std::uint32_t>(m.outcome), m.attempt);
  const InstanceInfo& info = *dyn->info;
  const bool leader = live_leader(*dyn) == id();

  switch (m.outcome) {
    case LeaveOutcome::kCommitted: {
      if (leader && dyn->config.on_commit) dyn->config.on_commit();
      if (dyn->config.on_leave) {
        dyn->config.on_leave(m.outcome, ExceptionId::invalid());
      }
      record_leave(*dyn, m);
      pop_context(m.scope);
      return;
    }
    case LeaveOutcome::kSignalled: {
      if (leader && dyn->config.on_abort) dyn->config.on_abort();
      if (dyn->config.on_leave) dyn->config.on_leave(m.outcome, m.signal);
      const ActionInstanceId parent = info.parent;
      record_leave(*dyn, m);
      pop_context(m.scope);
      if (!leader) return;
      if (parent.valid() && m.signal.valid()) {
        // The leader represents the completed-with-failure nested action by
        // raising the signalled exception in the containing action (§3.1
        // "signalled between nested actions").
        Dyn* parent_dyn = find_dyn(parent);
        CAA_CHECK_MSG(parent_dyn != nullptr,
                      "leader left containing action before nested signal");
        if (!parent_dyn->aborting &&
            parent_dyn->engine->state() ==
                resolve::ResolverCore::State::kNormal) {
          parent_dyn->engine->raise(m.signal, "signalled by nested action");
        } else {
          runtime().simulator().counters().add(kCounterSignalDropped);
        }
      } else if (!parent.valid()) {
        if (failure_sink_) failure_sink_(m.scope, m.signal);
      }
      return;
    }
    case LeaveOutcome::kRestored: {
      if (leader && dyn->config.on_abort) dyn->config.on_abort();
      if (dyn->config.restore_checkpoint) dyn->config.restore_checkpoint();
      if (dyn->config.on_leave) {
        dyn->config.on_leave(m.outcome, ExceptionId::invalid());
      }
      dyn->attempt = m.attempt;
      dyn->done_sent = false;
      dyn->handling = false;
      dyn->exit->on_restored();  // drop the previous attempt's pending Done
      ++dyn->round;  // a new attempt is a new protocol round
      dyn->engine->next_round(dyn->round);
      sync_caa_health();  // exit occupancy: the new attempt re-opened our part
      release_held(m.scope);
      if (dyn->config.body) {
        run_guarded(m.scope, 0, [this, scope = m.scope] {
          Dyn* d = find_dyn(scope);
          if (d != nullptr && d->config.body) d->config.body(d->attempt);
        });
      }
      return;
    }
  }
}

void Participant::record_leave(const Dyn& dyn, const LeaveMsg& m) {
  const bool gc = manager_.exit_gc();
  leave_log_.record(m, dyn.info->members, id(), *dyn.excluded, gc);
  if (!gc) return;
  runtime().simulator().counters().add(kCounterLeaveRecorded);
  // Tell every live member we applied the final Leave; once a member holds
  // ACKs from the whole committee its record can never be needed again.
  const net::Bytes ack =
      exit::encode(exit::LeaveAckMsg{m.scope, m.round, id()});
  for (ObjectId member : dyn.info->members) {
    if (member == id() || dyn.excluded->contains(member)) continue;
    send(member, net::MsgKind::kActionLeaveAck,
         net::BytesPool::local().copy_of(ack));
  }
}

void Participant::pop_context(ActionInstanceId scope) {
  CAA_CHECK(is_active(scope));
  if (stack_.back()->exit != nullptr) {
    // The decide path ends inside the protocol (exit_deliver_leave -> here),
    // so its frames may still be on the stack: retire, don't destroy. The
    // graveyard is swept at the next quiet entry into this participant.
    retired_exits_.push_back(std::move(stack_.back()->exit));
  }
  stack_.pop_back();
  if (!overlay_.manages(scope)) membership_.forget(scope);
  dead_.insert(scope);
  held_.erase(scope);
  sync_caa_health();
  wd_closed(scope);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

ObjectId Participant::live_leader(const Dyn& dyn) const {
  return exit::live_leader(*dyn.info, *dyn.excluded);
}

Participant::Dyn* Participant::find_dyn(ActionInstanceId scope) const {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if ((*it)->info->instance == scope) return it->get();
  }
  return nullptr;
}

const Participant::Dyn& Participant::dyn_of(ActionInstanceId scope) const {
  const Dyn* dyn = find_dyn(scope);
  CAA_CHECK_MSG(dyn != nullptr, "exit host: scope not open here");
  return *dyn;
}

bool Participant::is_active(ActionInstanceId scope) const {
  return in_action() && stack_.back()->info->instance == scope;
}

std::size_t Participant::depth_of(ActionInstanceId scope) const {
  std::size_t depth = 0;
  while (depth < stack_.size() && stack_[depth]->info->instance != scope) {
    ++depth;
  }
  CAA_CHECK_MSG(depth < stack_.size(), "abort target not in stack");
  return depth;
}

const exit::ExitProtocol* Participant::exit_protocol_of(
    ActionInstanceId scope) const {
  const Dyn* dyn = find_dyn(scope);
  return dyn == nullptr ? nullptr : dyn->exit.get();
}

// ---------------------------------------------------------------------------
// exit::ExitHost — the seam the exit protocols talk back through
// ---------------------------------------------------------------------------

ObjectId Participant::exit_self() const { return id(); }

std::uint32_t Participant::exit_round(ActionInstanceId scope) const {
  return dyn_of(scope).round;
}

const std::set<ObjectId>& Participant::exit_excluded(
    ActionInstanceId scope) const {
  return *dyn_of(scope).excluded;
}

bool Participant::exit_aborting(ActionInstanceId scope) const {
  return dyn_of(scope).aborting;
}

bool Participant::exit_resolution_idle(ActionInstanceId scope) const {
  const Dyn& dyn = dyn_of(scope);
  // A fast round in flight (suppressed raise, open census, or a kNoRaise
  // promise) leaves the engine Normal but a commit may still land: the exit
  // decision must wait until the census settles.
  return dyn.engine->state() == resolve::ResolverCore::State::kNormal &&
         (dyn.avoidance == nullptr || dyn.avoidance->idle());
}

void Participant::exit_unicast(ActionInstanceId scope, ObjectId to,
                               net::MsgKind kind, net::Bytes payload) {
  unicast(*dyn_of(scope).info, to, kind, std::move(payload));
}

void Participant::exit_unicast_many(ActionInstanceId scope,
                                    const std::vector<ObjectId>& targets,
                                    net::MsgKind kind,
                                    const net::Bytes& payload) {
  if (targets.empty()) return;
  const Dyn& dyn = dyn_of(scope);
  if (dyn.info->use_tree) {
    // One payload per shared tree edge instead of one RouteItem per target
    // — the whole 2a wave to an acceptor subtree rides a single envelope
    // entry.
    overlay_.route_multi(scope, targets, kind, payload);
    return;
  }
  for (ObjectId to : targets) {
    send(to, kind, net::BytesPool::local().copy_of(payload));
  }
}

void Participant::exit_multicast(ActionInstanceId scope, net::MsgKind kind,
                                 const net::Bytes& payload) {
  multicast(*dyn_of(scope).info, kind, payload);
}

void Participant::exit_announce_live(ActionInstanceId scope,
                                     net::MsgKind kind,
                                     const net::Bytes& payload) {
  const Dyn& dyn = dyn_of(scope);
  if (dyn.info->use_tree) {
    overlay_.flood(scope, kind, payload);
    return;
  }
  for (ObjectId member : dyn.info->members) {
    if (member == id() || dyn.excluded->contains(member)) continue;
    send(member, kind, net::BytesPool::local().copy_of(payload));
  }
}

LeaveMsg Participant::exit_decide(ActionInstanceId scope, std::uint32_t round,
                                  const std::vector<DoneMsg>& dones) {
  const Dyn& dyn = dyn_of(scope);
  bool all_ok = true;
  std::vector<ExceptionId> signals;
  for (const DoneMsg& done : dones) {
    all_ok = all_ok && done.ok;
    if (done.signal.valid()) signals.push_back(done.signal);
  }

  LeaveMsg leave;
  leave.scope = scope;
  leave.round = round;
  if (!all_ok) {
    // Acceptance failure: backward recovery while attempts remain (§3.1 /
    // Figure 2(b)), otherwise signal the configured failure exception.
    if (dyn.attempt + 1 < dyn.config.max_attempts) {
      leave.outcome = LeaveOutcome::kRestored;
      leave.attempt = dyn.attempt + 1;
    } else {
      leave.outcome = LeaveOutcome::kSignalled;
      leave.signal = dyn.config.failure_signal;
    }
  } else if (!signals.empty()) {
    leave.outcome = LeaveOutcome::kSignalled;
    if (dyn.info->parent.valid()) {
      const ex::ExceptionTree& parent_tree =
          manager_.info(dyn.info->parent).decl->tree();
      leave.signal = parent_tree.resolve(signals);
    } else {
      leave.signal = signals.front();
    }
  } else {
    leave.outcome = LeaveOutcome::kCommitted;
  }
  return leave;
}

void Participant::exit_deliver_leave(const LeaveMsg& m) { apply_leave(m); }

void Participant::notify_peer_crashed(ObjectId peer) {
  if (peer != id()) on_crash_report(peer, membership_.detected(peer));
}

void Participant::on_crash_report(ObjectId peer,
                                  const Membership::Effects& effects) {
  if (!effects.newly_down && effects.lost.empty()) return;
  retired_exits_.clear();  // no exit-protocol frames on the stack here
  if (effects.newly_down) purge_held_from(peer);
  // Heal the relay trees before any scope reacts: the re-announcements below
  // must travel the repaired topology, not through the dead relay.
  for (const Membership::Loss& loss : effects.lost) {
    overlay_.on_excluded(loss.scope, peer);
  }
  // The open scopes that lost the peer react outermost first: a nested
  // instance is created inside its parent, so scope ids grow inwards.
  for (const auto& [instance, old_leader] : effects.lost) {
    Dyn* found = find_dyn(instance);
    if (found == nullptr) continue;  // not entered, or left
    Dyn& dyn = *found;
    // Avoidance first: any census aborts and suppressed raises replay into
    // the engine NOW, so the CrashSync barrier and the exit protocol's
    // decide re-evaluation below see settled (engine-held) state.
    if (dyn.avoidance != nullptr) dyn.avoidance->on_peer_crashed();
    // Barrier before the engine's exclusion: it must be syncing before
    // exclude_member's readiness re-check, or this object could commit from
    // its own partial view the instant the crashed member's ACK is waived.
    // The planted-bug flag (action::DebugBugs::exclusion_divergence) skips
    // the barrier, re-opening the race the explorer must rediscover.
    const bool skip_sync = manager_.debug_bugs().exclusion_divergence;
    if (!skip_sync) begin_crash_sync(instance, dyn, peer);
    dyn.engine->exclude_member(peer);
    // If an earlier barrier was still waiting on this peer, its reply will
    // never come — waive it (may complete that barrier).
    if (!skip_sync && dyn.engine->sync_heard(peer)) maybe_promote(instance);
    // Exit-side consequences (leader re-election, pending-Done re-announce,
    // quorum re-evaluation) belong to the scope's exit protocol. May decide
    // and tear the scope down; nothing touches `dyn` afterwards.
    dyn.exit->on_peer_crashed(peer, old_leader, live_leader(dyn));
  }
  // A crashed peer will never ACK a Leave again: complete waiting records.
  if (const std::size_t collected =
          effects.newly_down ? leave_log_.waive(peer) : 0) {
    runtime().simulator().counters().add(
        kCounterLeaveCollected, static_cast<std::int64_t>(collected));
  }
  // Forward recovery among survivors: raise the configured crash exception
  // if this participant is still working in its active action — on news of
  // the crash, or when a report of an earlier incarnation's crash struck the
  // active scope.
  if (!in_action()) return;
  Dyn& adyn = *stack_.back();
  const ActionInstanceId active = adyn.info->instance;
  if (!effects.newly_down &&
      std::none_of(effects.lost.begin(), effects.lost.end(),
                   [active](const Membership::Loss& l) {
                     return l.scope == active;
                   })) {
    return;
  }
  if (adyn.config.crash_exception.valid() && adyn.info->is_member(peer) &&
      !adyn.aborting && !adyn.done_sent && !adyn.handling &&
      adyn.engine->state() == resolve::ResolverCore::State::kNormal) {
    adyn.engine->raise(adyn.config.crash_exception,
                       "peer O" + std::to_string(peer.value()) + " crashed");
  } else if (adyn.config.crash_exception.valid() && !adyn.aborting &&
             (adyn.engine->state() ==
                  resolve::ResolverCore::State::kSuspended ||
              adyn.engine->state() ==
                  resolve::ResolverCore::State::kAborting)) {
    // A suspended survivor whose raisers have all crashed must promote
    // itself (extension; see ResolverCore::raise_from_suspended) — but not
    // before the CrashSync barrier drains: a peer's status may carry the
    // commit (or a live raiser's exception) that makes promotion wrong.
    // While kAborting the raiser set is not even knowable yet; the
    // re-check runs when the abortion completes.
    adyn.promote_pending = true;
    maybe_promote(adyn.info->instance);
  }
}

void Participant::maybe_promote(ActionInstanceId scope) {
  Dyn* dyn = find_dyn(scope);
  if (dyn == nullptr || !dyn->promote_pending) return;
  if (dyn->engine->syncing()) return;  // barrier still draining
  if (dyn->aborting || !is_active(scope) ||
      dyn->engine->state() == resolve::ResolverCore::State::kAborting) {
    // Not decidable yet (abortion running) or no longer applicable; a
    // dead/aborting context clears the flag for good.
    if (dyn->aborting || !is_active(scope)) dyn->promote_pending = false;
    return;
  }
  dyn->promote_pending = false;
  if (dyn->engine->state() != resolve::ResolverCore::State::kSuspended ||
      dyn->engine->has_live_raiser() ||
      !dyn->config.crash_exception.valid()) {
    return;  // the sync surfaced a live raiser or a commit; nothing to do
  }
  dyn->engine->raise_from_suspended(dyn->config.crash_exception);
}

resolve::CrashSyncMsg Participant::sync_status(
    const Dyn& dyn, ActionInstanceId scope, ObjectId crashed,
    resolve::CrashSyncMsg::Phase phase) const {
  resolve::CrashSyncMsg m;
  m.scope = scope;
  m.round = dyn.round;
  m.sender = id();
  m.crashed = crashed;
  m.phase = phase;
  // One commit slot suffices: a commit this member holds for a round some
  // live peer has not finished is either the engine's held commit (our
  // current round) or the last applied one (the previous round) — round
  // divergence among live members is at most 1, and a commit for a round
  // beyond a live member's current round cannot exist (its ACK is missing).
  if (const auto& commit = dyn.engine->known_commit(); commit.has_value()) {
    m.commit_round = commit->round;
    m.commit_resolver = commit->resolver;
    m.commit_resolved = commit->resolved;
  }
  return m;
}

void Participant::begin_crash_sync(ActionInstanceId scope, Dyn& dyn,
                                   ObjectId crashed) {
  std::vector<ObjectId> live;
  for (ObjectId member : dyn.info->members) {
    if (member == id() || dyn.excluded->contains(member)) continue;
    live.push_back(member);
    dyn.engine->await_sync(member);
  }
  if (!dyn.engine->syncing()) return;  // sole survivor: nothing to learn
  const net::Bytes payload = resolve::encode(
      sync_status(dyn, scope, crashed, resolve::CrashSyncMsg::Phase::kPush));
  for (ObjectId member : live) {
    send(member, net::MsgKind::kCrashSync,
         net::BytesPool::local().copy_of(payload));
  }
}

void Participant::on_crash_sync(ObjectId from, const net::Bytes& payload) {
  auto decoded = resolve::decode_crash_sync(payload);
  if (!decoded.is_ok()) return;
  const resolve::CrashSyncMsg m = decoded.value();
  if (m.crashed == id()) return;  // fail-stop: nobody truthfully names us
  if (membership_.down().contains(from)) {
    runtime().simulator().counters().add(kCounterFromCrashedDropped);
    return;
  }
  // Gossip: a push can outrun our own failure detector. Apply the exclusion
  // first so the status we answer with reflects a consistent membership
  // view — this is also what un-deadlocks asymmetric detection (our own
  // barrier begins, and our push to `from` is already in flight, before we
  // strike `from`'s push off the waiting set below). A push for a scope not
  // entered yet is first contact: its exclusion set starts before the
  // crash is recorded, so it keeps the crash across a restart.
  if (!dead_.contains(m.scope) && manager_.known(m.scope)) {
    membership_.contact(manager_.info(m.scope));
  }
  on_crash_report(m.crashed, membership_.reported(m.crashed, m.scope));
  Dyn* dyn = find_dyn(m.scope);
  if (dyn == nullptr || dyn->aborting) {
    // Not in the action (never entered, left, restarted, or aborting out of
    // it): tell pushers to stop waiting for us. Replies to replies would
    // ping-pong; kGone only answers pushes.
    if (m.phase == resolve::CrashSyncMsg::Phase::kPush) {
      resolve::CrashSyncMsg gone;
      gone.scope = m.scope;
      gone.round = resolve::CrashSyncMsg::kGoneRound;
      gone.sender = id();
      gone.crashed = m.crashed;
      gone.phase = resolve::CrashSyncMsg::Phase::kGone;
      send(from, net::MsgKind::kCrashSync, resolve::encode(gone));
    }
    return;
  }
  // Adopt a carried commit for our current round. Commits for other rounds
  // are stale (ours is applied) — a commit for a round we have not reached
  // cannot exist while we are live (see sync_status).
  if (m.commit_resolved.valid() && m.commit_round == dyn->round &&
      dyn->engine->round() == dyn->round) {
    dyn->engine->apply_synced_commit(resolve::CommitMsg{
        m.scope, m.commit_round, m.commit_resolver, m.commit_resolved});
  }
  if (m.phase == resolve::CrashSyncMsg::Phase::kPush) {
    // Re-find: applying a commit can finish the round and, via zero-delay
    // continuations, never pops the scope, but stay defensive about the
    // reply's snapshot.
    Dyn* current = find_dyn(m.scope);
    if (current != nullptr) {
      send(from, net::MsgKind::kCrashSync,
           resolve::encode(sync_status(*current, m.scope, m.crashed,
                                       resolve::CrashSyncMsg::Phase::kReply)));
    }
  }
  if (Dyn* current = find_dyn(m.scope);
      current != nullptr && current->engine->sync_heard(from)) {
    maybe_promote(m.scope);
  }
}

void Participant::notify_peer_restarted(ObjectId peer) {
  if (peer != id()) membership_.restarted(peer);
}

void Participant::on_restarted() {
  // Fail-stop restart (extension): the crash wiped this object's volatile
  // action state, and the survivors have already excluded it from every
  // resolution it was part of, so nothing it could say is still expected.
  // Abandon every open context innermost-first; the tombstones route any
  // in-flight or future messages for these scopes to the dead-scope drop
  // path. Durable records (handled_, aborts_) survive — commits that were
  // applied before the crash stay applied.
  abort_chain_.reset();
  retired_exits_.clear();  // no exit-protocol frames on the stack here
  obs::FlightRecorder& recorder = runtime().simulator().obs().recorder();
  while (in_action()) {
    const ActionInstanceId scope = stack_.back()->info->instance;
    abandoned_.insert(scope);
    runtime().simulator().counters().add(kCounterRestartAbandoned);
    if (recorder.enabled()) {
      recorder.record_protocol(obs::RecType::kAbort, id().value(),
                               scope.value(), 0, 0);
    }
    pop_context(scope);
  }
  held_.clear();
  // Relay caches and squelch state are volatile too: the healed survivor
  // trees exclude us, and on_relay drops envelopes for abandoned scopes.
  overlay_.clear();
  membership_.forget_scopes();
  // Watchdog holds for the abandoned scopes were released at crash time;
  // instances entered from now on are watched normally again.
  wd_released_ = false;
}

bool Participant::is_live(ActionInstanceId scope) const {
  const Dyn* dyn = find_dyn(scope);
  return dyn != nullptr && !dyn->aborting;
}

void Participant::run_guarded(ActionInstanceId scope, sim::Time delay,
                              std::function<void()> fn) {
  schedule_after(delay, [this, scope, fn = std::move(fn)] {
    if (!is_live(scope)) return;  // the action was aborted meanwhile
    fn();
  });
}

obs::Observability* Participant::observing() const {
  if (!attached()) return nullptr;
  obs::Observability& o = runtime().simulator().obs();
  return o.enabled() ? &o : nullptr;
}

void Participant::record_lifecycle(obs::RecType type, ActionInstanceId scope,
                                   std::uint32_t round, std::uint32_t code,
                                   std::uint32_t peer) {
  if (obs::Observability* o = observing()) {
    o->recorder().record_protocol(type, id().value(), scope.value(), round,
                                  code, peer);
  }
}

// ---------------------------------------------------------------------------
// Health gauges + liveness watchdog (src/obs/)
// ---------------------------------------------------------------------------

void Participant::sync_caa_health() {
  if (!attached()) return;
  obs::HealthGauges& h = runtime().simulator().obs().health();
  const auto scopes = static_cast<std::int64_t>(stack_.size());
  std::int64_t barrier = 0;
  std::int64_t paxos = 0;
  for (const auto& dyn : stack_) {
    // "Exit occupancy": this member sent its Done and the scope has not
    // left yet — the window where the committee protocol is in charge.
    if (!dyn->done_sent || dyn->exit == nullptr) continue;
    if (dyn->exit->kind() == exit::ExitKind::kPaxos) {
      ++paxos;
    } else {
      ++barrier;
    }
  }
  if (scopes != scopes_gauge_) {
    h.add(obs::Gauge::kCaaOpenScopes, scopes - scopes_gauge_);
    scopes_gauge_ = scopes;
  }
  h.set_max(obs::Gauge::kCaaNestingDepth, scopes);
  if (barrier != exit_barrier_gauge_) {
    h.add(obs::Gauge::kExitBarrierOpen, barrier - exit_barrier_gauge_);
    exit_barrier_gauge_ = barrier;
  }
  if (paxos != exit_paxos_gauge_) {
    h.add(obs::Gauge::kExitPaxosOpen, paxos - exit_paxos_gauge_);
    exit_paxos_gauge_ = paxos;
  }
}

void Participant::wd_open(ActionInstanceId scope) {
  if (!attached()) return;
  obs::Watchdog& w = runtime().simulator().obs().watchdog();
  if (w.armed()) w.note_open(scope.value(), now());
}

void Participant::wd_progress(ActionInstanceId scope) {
  if (!attached()) return;
  obs::Watchdog& w = runtime().simulator().obs().watchdog();
  if (w.armed()) w.note_progress(scope.value(), now());
}

void Participant::wd_closed(ActionInstanceId scope) {
  if (!attached() || wd_released_) return;
  obs::Watchdog& w = runtime().simulator().obs().watchdog();
  if (w.armed()) w.note_closed(scope.value(), now());
}

void Participant::wd_release_open_scopes() {
  if (wd_released_) return;
  for (const auto& dyn : stack_) wd_closed(dyn->info->instance);
  wd_released_ = true;
}

bool Participant::describe_scope(ActionInstanceId scope,
                                 obs::WatchdogReport& report) const {
  const Dyn* found = find_dyn(scope);
  if (found == nullptr) return false;
  const Dyn& dyn = *found;
  report.scope_name = dyn.info->decl->name();
  std::vector<ObjectId> awaited;
  if (dyn.aborting) {
    report.phase = "aborting nested chain";
  } else if (dyn.engine->state() != resolve::ResolverCore::State::kNormal) {
    report.phase =
        "resolve (" + std::string(resolve::to_string(dyn.engine->state())) +
        ", round " + std::to_string(dyn.round) + ")";
    awaited = dyn.engine->awaited_members();
  } else if (dyn.avoidance != nullptr && !dyn.avoidance->idle()) {
    report.phase =
        "avoidance (" + std::string(dyn.avoidance->phase()) + ")";
  } else if (dyn.done_sent && dyn.exit != nullptr) {
    dyn.exit->describe(report.phase, awaited);
    if (report.phase.empty()) report.phase = "exit (awaiting committee)";
  } else if (dyn.handling) {
    report.phase = "handler running";
  } else {
    report.phase = "body running (no Done sent)";
  }
  if (attached()) {
    const rt::Directory& dir = runtime().directory();
    for (ObjectId o : awaited) report.awaited.push_back(dir.name_of(o));
  } else {
    for (ObjectId o : awaited) {
      report.awaited.push_back("obj" + std::to_string(o.value()));
    }
  }
  if (!dyn.excluded->empty()) {
    report.detail =
        std::to_string(dyn.excluded->size()) + " member(s) excluded (crashed)";
  }
  return true;
}

}  // namespace caa::action
