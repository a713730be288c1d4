#include "resolve/resolver_core.h"

#include <algorithm>

#include "util/check.h"
#include "util/members.h"

namespace caa::resolve {

std::string_view to_string(ResolverCore::State state) {
  switch (state) {
    case ResolverCore::State::kNormal: return "N";
    case ResolverCore::State::kExceptional: return "X";
    case ResolverCore::State::kSuspended: return "S";
    case ResolverCore::State::kReady: return "R";
    case ResolverCore::State::kAborting: return "A";
    case ResolverCore::State::kHandling: return "H";
  }
  return "?";
}

ResolverCore::ResolverCore(ObjectId self,
                           const std::vector<ObjectId>& members,
                           const std::set<ObjectId>& excluded,
                           const ex::ExceptionTree* tree,
                           ActionInstanceId scope, std::uint32_t round,
                           Hooks hooks, std::uint32_t committee)
    : self_(self),
      members_(members),
      exclusions_(excluded),
      tree_(tree),
      scope_(scope),
      round_(round),
      hooks_(std::move(hooks)),
      committee_(committee == 0 ? 1 : committee) {
  CAA_CHECK_MSG(tree_ != nullptr, "resolver needs an exception tree");
  CAA_CHECK_MSG(std::is_sorted(members_.begin(), members_.end()),
                "members must be sorted (§4.1 ordering)");
  CAA_CHECK_MSG(rank_in(members_, self_).has_value(),
                "self must be a group member");
  lo_state_.assign(members_.size(), kLoAbsent);
  acked_.assign(members_.size(), 0);
}

ResolverCore::~ResolverCore() {
  // A superseded engine retracts its gauge contributions so world-level
  // levels stay exact.
  if (obs::HealthGauges* h = health(); h != nullptr) {
    h->add(obs::Gauge::kResolveActiveRounds, -active_gauge_);
    h->add(obs::Gauge::kResolveOutstandingAcks, -acks_gauge_);
  }
}

obs::HealthGauges* ResolverCore::health() const {
  return hooks_.obs != nullptr ? &hooks_.obs->health() : nullptr;
}

void ResolverCore::sync_health() {
  obs::HealthGauges* h = health();
  if (h == nullptr) return;
  const std::int64_t active =
      state_ != State::kNormal && state_ != State::kHandling ? 1 : 0;
  if (active != active_gauge_) {
    h->add(obs::Gauge::kResolveActiveRounds, active - active_gauge_);
    active_gauge_ = active;
    if (active != 0) {
      h->set_max(obs::Gauge::kResolveMaxRound,
                 static_cast<std::int64_t>(round_) + 1);
    }
  }
  std::int64_t awaited = 0;
  if (awaiting_acks_ && active != 0) {
    awaited = static_cast<std::int64_t>(members_.size() - 1 -
                                        exclusions_.size() - acks_live_);
  }
  if (awaited != acks_gauge_) {
    h->add(obs::Gauge::kResolveOutstandingAcks, awaited - acks_gauge_);
    acks_gauge_ = awaited;
  }
}

std::vector<ObjectId> ResolverCore::awaited_members() const {
  std::vector<ObjectId> waiting;
  for (std::size_t rank = 0; rank < members_.size(); ++rank) {
    const ObjectId member = members_[rank];
    if (member == self_ || exclusions_.contains(member)) continue;
    const bool ack_due = awaiting_acks_ && state_ != State::kHandling &&
                         acked_[rank] == 0;
    if (ack_due || lo_state_[rank] == kLoPending) waiting.push_back(member);
  }
  return waiting;
}

std::size_t ResolverCore::rank(ObjectId member) const {
  const std::optional<std::size_t> found = rank_in(members_, member);
  CAA_CHECK_MSG(found.has_value(), "sender is not a group member");
  return *found;
}

void ResolverCore::record_flight(obs::RecType type, std::uint32_t code) {
  if (hooks_.obs == nullptr) return;
  obs::FlightRecorder& recorder = hooks_.obs->recorder();
  if (!recorder.enabled()) return;
  recorder.record_protocol(type, self_.value(), scope_.value(), round_, code);
}

void ResolverCore::note_send(net::MsgKind kind, std::int64_t n) {
  if (hooks_.obs != nullptr && hooks_.obs->enabled()) {
    hooks_.obs->metrics().note_protocol_send(scope_, round_, kind, n);
  }
}

void ResolverCore::raise(ExceptionId exception, std::string message) {
  CAA_CHECK_MSG(state_ == State::kNormal,
                "raise() allowed only in the Normal state (one exception per "
                "object per action, §4.1)");
  CAA_CHECK_MSG(tree_->contains(exception),
                "raise(): exception not declared in the action's tree");
  state_ = State::kExceptional;
  record_flight(obs::RecType::kRaise, exception.value());
  record_exception(exception, self_, std::move(message));
  awaiting_acks_ = true;
  hooks_.multicast(net::MsgKind::kException,
                   encode(ExceptionMsg{scope_, round_, self_, exception}));
  note_send(net::MsgKind::kException,
            static_cast<std::int64_t>(members_.size() - 1));
  maybe_ready();  // degenerate single-member group resolves immediately
  sync_health();
}

void ResolverCore::on_trigger_while_nested(const ProtocolMsg& trigger) {
  CAA_CHECK_MSG(std::holds_alternative<ExceptionMsg>(trigger) ||
                    std::holds_alternative<HaveNestedMsg>(trigger),
                "nested trigger must be an Exception or a HaveNested");
  if (state_ == State::kAborting) {
    // Already aborting for this scope: just queue the trigger message; it
    // will be recorded/ACKed after abortion like any other.
    queued_.push_back(trigger);
    return;
  }
  CAA_CHECK_MSG(state_ == State::kNormal,
                "nested trigger in a non-Normal outer context");
  state_ = State::kAborting;
  record_flight(obs::RecType::kState, static_cast<std::uint32_t>(state_));
  hooks_.multicast(net::MsgKind::kHaveNested,
                   encode(HaveNestedMsg{scope_, round_, self_}));
  note_send(net::MsgKind::kHaveNested,
            static_cast<std::int64_t>(members_.size() - 1));
  queued_.push_back(trigger);
  hooks_.abort_nested([this](ExceptionId signalled) {
    abort_finished(signalled);
  });
  sync_health();
}

void ResolverCore::abort_finished(ExceptionId signalled) {
  CAA_CHECK(state_ == State::kAborting);
  // §4.2: "empty LE_i, LO_i, LP_i" — state of any *nested* resolution was
  // discarded with the nested contexts; this engine's own lists can only
  // hold entries queued for this scope, which we are about to replay, so
  // clearing here mirrors the pseudo-code.
  le_.clear();
  std::fill(lo_state_.begin(), lo_state_.end(), kLoAbsent);
  std::fill(acked_.begin(), acked_.end(), std::uint8_t{0});
  acks_live_ = 0;
  lo_pending_ = 0;
  raisers_.clear();
  awaiting_acks_ = true;  // NestedCompleted is acknowledged by every member
  hooks_.multicast(
      net::MsgKind::kNestedCompleted,
      encode(NestedCompletedMsg{scope_, round_, self_, signalled}));
  note_send(net::MsgKind::kNestedCompleted,
            static_cast<std::int64_t>(members_.size() - 1));
  if (signalled.valid()) {
    state_ = State::kExceptional;
    record_flight(obs::RecType::kRaise, signalled.value());
    record_exception(signalled, self_, "signalled by abortion handler");
  } else {
    state_ = State::kSuspended;
    record_flight(obs::RecType::kState, static_cast<std::uint32_t>(state_));
  }
  // Replay messages that arrived during the abortion.
  std::vector<ProtocolMsg> queued = std::move(queued_);
  queued_.clear();
  for (const auto& m : queued) process(m);
  maybe_ready();
  sync_health();
}

void ResolverCore::process(const ProtocolMsg& m) {
  std::visit(
      [this](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ExceptionMsg>) {
          handle_exception(msg);
        } else if constexpr (std::is_same_v<T, HaveNestedMsg>) {
          handle_have_nested(msg);
        } else if constexpr (std::is_same_v<T, NestedCompletedMsg>) {
          handle_nested_completed(msg);
        } else if constexpr (std::is_same_v<T, AckMsg>) {
          handle_ack(msg);
        } else {
          handle_commit(msg);
        }
      },
      m);
}

void ResolverCore::on_message(const ProtocolMsg& m) {
  if (state_ == State::kAborting) {
    queued_.push_back(m);
    return;
  }
  process(m);
  sync_health();
}

void ResolverCore::handle_exception(const ExceptionMsg& m) {
  CAA_CHECK(m.scope == scope_ && m.round == round_);
  CAA_CHECK_MSG(state_ != State::kHandling,
                "router must not deliver into a finished round");
  // A crashed member's exception must not enter LE (see exclude_member):
  // survivors it reached and survivors it missed have to agree. Replays of
  // messages queued during an abortion land here too, so the router's
  // from-crashed filter alone is not enough.
  if (exclusions_.contains(m.raiser) && !debug_keep_crashed_) return;
  suspend_if_normal();
  record_exception(m.exception, m.raiser);
  send_ack(m.raiser);
  maybe_ready();
}

void ResolverCore::handle_have_nested(const HaveNestedMsg& m) {
  CAA_CHECK(m.scope == scope_ && m.round == round_);
  if (exclusions_.contains(m.sender)) return;  // its completion is waived
  suspend_if_normal();
  // Not completed yet (unless NestedCompleted somehow already arrived, which
  // FIFO channels rule out; a kLoCompleted entry stays completed).
  if (std::uint8_t& lo = lo_state_[rank(m.sender)]; lo == kLoAbsent) {
    lo = kLoPending;
    ++lo_pending_;
  }
  if (hooks_.purge_nested_from) hooks_.purge_nested_from(m.sender);
}

void ResolverCore::handle_nested_completed(const NestedCompletedMsg& m) {
  CAA_CHECK(m.scope == scope_ && m.round == round_);
  if (exclusions_.contains(m.sender)) return;  // signalled exception expunged
  suspend_if_normal();
  if (std::uint8_t& lo = lo_state_[rank(m.sender)]; lo != kLoCompleted) {
    if (lo == kLoPending) --lo_pending_;
    lo = kLoCompleted;
  }
  send_ack(m.sender);
  if (m.signalled.valid()) {
    record_exception(m.signalled, m.sender);
  }
  maybe_ready();
}

void ResolverCore::handle_ack(const AckMsg& m) {
  CAA_CHECK(m.scope == scope_ && m.round == round_);
  if (std::uint8_t& acked = acked_[rank(m.sender)]; acked == 0) {
    acked = 1;
    if (m.sender != self_ && !exclusions_.contains(m.sender)) ++acks_live_;
  }
  maybe_ready();
}

void ResolverCore::handle_commit(const CommitMsg& m) {
  CAA_CHECK(m.scope == scope_ && m.round == round_);
  // A commit from a crashed resolver is dropped uniformly: members it
  // reached pre-crash already applied (or hold) it and the CrashSync
  // barrier re-distributes it; members it missed must not apply a value
  // the rest never sees.
  if (exclusions_.contains(m.resolver)) return;
  pending_commit_ = m;
  if (state_ == State::kSuspended || state_ == State::kReady) {
    finish(m);
  }
  // In kExceptional we hold the commit until Ready (all our ACKs in) so the
  // round closes only when nobody still needs our bookkeeping.
  maybe_ready();
}

void ResolverCore::apply_synced_commit(const CommitMsg& m) {
  CAA_CHECK(m.scope == scope_ && m.round == round_);
  if (state_ == State::kHandling) return;  // already resolved this round
  pending_commit_ = m;
  if (state_ == State::kSuspended || state_ == State::kReady) {
    finish(m);
    return;
  }
  // kExceptional holds it until Ready; kAborting keeps it pending and the
  // post-abortion maybe_ready() applies it.
  maybe_ready();
  sync_health();
}

void ResolverCore::apply_fast_commit(const CommitMsg& m) {
  CAA_CHECK(m.scope == scope_ && m.round == round_);
  CAA_CHECK_MSG(state_ == State::kNormal,
                "fast commit: engine saw protocol traffic this round");
  suspend_if_normal();
  finish(m);
  sync_health();
}

void ResolverCore::record_exception(ExceptionId exception, ObjectId raiser,
                                    std::string message) {
  CAA_CHECK_MSG(tree_->contains(exception),
                "exception not declared in this action's resolution tree");
  if (raisers_.insert(raiser).second) {
    le_.push_back(ex::Exception{exception, raiser, scope_, std::move(message)});
  }
}

void ResolverCore::send_ack(ObjectId to) {
  hooks_.ack(to, round_);
  note_send(net::MsgKind::kAck, 1);
}

void ResolverCore::suspend_if_normal() {
  if (state_ == State::kNormal) {
    state_ = State::kSuspended;
    record_flight(obs::RecType::kState, static_cast<std::uint32_t>(state_));
  }
}

bool ResolverCore::all_acks_received() const {
  // The exclusion set never holds self, so the live member count needing
  // ACKs is members-1 minus the excluded.
  return acks_live_ >= members_.size() - 1 - exclusions_.size();
}

bool ResolverCore::all_nested_completed() const { return lo_pending_ == 0; }

bool ResolverCore::self_in_committee() const {
  CAA_CHECK(!raisers_.empty());
  // The `committee_` largest LIVE raisers resolve (§4.4 extension; with
  // committee == 1 this is exactly the paper's "biggest number among all
  // objects that raised exceptions").
  std::uint32_t rank = 0;
  for (auto it = raisers_.rbegin(); it != raisers_.rend(); ++it) {
    if (exclusions_.contains(*it)) continue;
    if (*it == self_) return rank < committee_;
    ++rank;
    if (rank >= committee_) return false;
  }
  return false;  // self not a live raiser (cannot happen while in X)
}

bool ResolverCore::has_live_raiser() const {
  for (ObjectId raiser : raisers_) {
    if (!exclusions_.contains(raiser)) return true;
  }
  return false;
}

void ResolverCore::raise_from_suspended(ExceptionId exception) {
  CAA_CHECK_MSG(state_ == State::kSuspended,
                "raise_from_suspended(): not Suspended");
  CAA_CHECK_MSG(!has_live_raiser(),
                "raise_from_suspended(): a live raiser still exists");
  CAA_CHECK(tree_->contains(exception));
  state_ = State::kExceptional;
  record_flight(obs::RecType::kRaise, exception.value());
  record_exception(exception, self_, "raiser crashed; survivor promoted");
  awaiting_acks_ = true;
  hooks_.multicast(net::MsgKind::kException,
                   encode(ExceptionMsg{scope_, round_, self_, exception}));
  note_send(net::MsgKind::kException,
            static_cast<std::int64_t>(members_.size() - 1));
  maybe_ready();
  sync_health();
}

void ResolverCore::exclude_member(ObjectId peer) {
  CAA_CHECK_MSG(peer != self_ && exclusions_.contains(peer),
                "exclude_member(): record the exclusion first");
  const std::size_t peer_rank = rank(peer);
  // Its tallied ACK and pending completion now count via the exclusion set.
  if (acked_[peer_rank] != 0) --acks_live_;
  if (lo_state_[peer_rank] == kLoPending) --lo_pending_;
  // Expunge its exceptions from LE. Exclusion waives the crashed member's
  // ACK, so survivors stop agreeing on whether its in-flight Exception
  // messages are part of the round — the only consistent reading of the
  // fail-stop model is that they are not. Any resolution the member already
  // produced from them is preserved by the owner's CrashSync barrier.
  if (!debug_keep_crashed_ && raisers_.erase(peer) != 0) {
    std::erase_if(le_, [peer](const ex::Exception& e) {
      return e.raised_by == peer;
    });
  }
  maybe_ready();
  sync_health();
}

void ResolverCore::set_commit_gate(bool gated) {
  if (commit_gated_ == gated) return;
  commit_gated_ = gated;
  if (!gated) maybe_ready();
  sync_health();
}

void ResolverCore::maybe_ready() {
  if (state_ != State::kExceptional) {
    // A suspended object can only hold a commit through the synced path
    // (a delivered Commit finishes at once in S); apply it as soon as noticed.
    if (state_ == State::kSuspended && pending_commit_) {
      finish(*pending_commit_);
      return;
    }
    // Already Ready: a late exclusion or an ungated commit gate may have
    // turned this object into the resolver, or a commit may have arrived.
    if (state_ == State::kReady) ready_actions();
    return;
  }
  if (!awaiting_acks_ || !all_acks_received() || !all_nested_completed()) {
    return;
  }
  state_ = State::kReady;
  record_flight(obs::RecType::kState, static_cast<std::uint32_t>(state_));
  ready_actions();
}

void ResolverCore::ready_actions() {
  CAA_CHECK(state_ == State::kReady);
  if (pending_commit_) {
    finish(*pending_commit_);
    return;
  }
  if (commit_gated_) return;  // withhold new commits until the sync is done
  if (self_in_committee()) {
    // §4.2: the object with the biggest number among the raisers resolves
    // (generalized to the top-`committee_` live raisers, §4.4 extension).
    std::vector<ExceptionId> ids;
    ids.reserve(le_.size());
    for (const auto& e : le_) ids.push_back(e.id);
    const ExceptionId resolved = tree_->resolve(ids);
    hooks_.multicast(net::MsgKind::kCommit,
                     encode(CommitMsg{scope_, round_, self_, resolved}));
    note_send(net::MsgKind::kCommit,
              static_cast<std::int64_t>(members_.size() - 1));
    finish(CommitMsg{scope_, round_, self_, resolved});
  }
}

void ResolverCore::finish(const CommitMsg& m) {
  CAA_CHECK(state_ != State::kHandling);
  CAA_CHECK_MSG(state_ != State::kNormal,
                "commit delivered to a Normal object");
  state_ = State::kHandling;
  resolved_ = m.resolved;
  // The terminal record the critical-path extractor walks back from: its
  // causal ancestry is exactly the message chain that completed the round.
  record_flight(obs::RecType::kResolved, m.resolved.value());
  // §4.2: "empty LE_i, LO_i, LP_i; start handler for E".
  le_.clear();
  std::fill(lo_state_.begin(), lo_state_.end(), kLoAbsent);
  std::fill(acked_.begin(), acked_.end(), std::uint8_t{0});
  acks_live_ = 0;
  lo_pending_ = 0;
  raisers_.clear();
  hooks_.start_handler(m.resolved, m.resolver);
}

}  // namespace caa::resolve
