#include "exit/paxos_exit.h"

#include "net/wire.h"
#include "util/members.h"

namespace caa::exit {

namespace {

// All four paxos messages lead with u64 scope + u32 round so the generic
// resolve::peek_scope_round routing in Participant applies to them.

void put_value(net::WireWriter& w, bool waived, bool ok, ExceptionId signal) {
  w.boolean(waived);
  w.boolean(ok);
  w.u32(signal.value());
}

}  // namespace

PaxosCommitExit::PaxosCommitExit(ExitHost& host,
                                 const action::InstanceInfo& info)
    : host_(host),
      info_(info),
      acceptors_(info.members.data(), acceptor_count(info.members.size())) {}

std::size_t PaxosCommitExit::acceptor_count(std::size_t members) {
  if (members <= 2) return members;
  return 2 * ((members - 1) / 2) + 1;
}

std::size_t PaxosCommitExit::live_acceptors() const {
  const std::set<ObjectId>& excluded = host_.exit_excluded(info_.instance);
  std::size_t live = 0;
  for (ObjectId a : acceptors_) {
    if (!excluded.contains(a)) ++live;
  }
  return live;
}

std::uint32_t PaxosCommitExit::next_ballot() {
  // Proposer-unique ballots: leader ranks stride the ballot space modulo N,
  // with ballot 0 reserved for the voters' fast path.
  const auto n = static_cast<std::uint32_t>(info_.members.size());
  const auto rank = static_cast<std::uint32_t>(*rank_in(info_.members, self()));
  std::uint32_t ballot = max_ballot_seen_ + 1;
  const std::uint32_t target = (rank + 1) % n;
  ballot += (target + n - (ballot % n)) % n;
  observe_ballot(ballot);
  return ballot;
}

// ---------------------------------------------------------------------------
// ExitProtocol entry points
// ---------------------------------------------------------------------------

void PaxosCommitExit::on_complete(const action::DoneMsg& m) {
  last_done_ = m;
  ensure_recovery(m.round);
  // The recovery's inline self-delivery can cascade all the way to a
  // decision that tears the scope down. It re-proposed this Done (set
  // above), so the ballot-0 vote is moot then.
  if (const auto it = leader_.find(m.round);
      it != leader_.end() && it->second.decided) {
    return;
  }
  send_vote(m.round, /*ballot=*/0, self(),
            Value{/*waived=*/false, m.ok, m.signal});
}

void PaxosCommitExit::on_message(ObjectId from, net::MsgKind kind,
                                 const net::Bytes& payload) {
  (void)from;  // crashed-acceptor filtering keys on the *embedded* ids
  net::WireReader r(payload);
  auto scope = r.u64();
  auto round = r.u32();
  auto ballot = r.u32();
  if (!scope.is_ok() || !round.is_ok() || !ballot.is_ok()) return;
  if (ActionInstanceId(scope.value()) != info_.instance) return;
  switch (kind) {
    case net::MsgKind::kPaxosVote: {
      auto voter = r.u32();
      auto waived = r.boolean();
      auto ok = r.boolean();
      auto signal = r.u32();
      if (!voter.is_ok() || !waived.is_ok() || !ok.is_ok() ||
          !signal.is_ok()) {
        return;
      }
      // Embedded ids name reply targets and quorum entries; only scope
      // members may appear (a garbage id must not reach the directory).
      if (!info_.is_member(ObjectId(voter.value()))) return;
      handle_vote(VoteMsg{info_.instance, round.value(), ballot.value(),
                          ObjectId(voter.value()),
                          Value{waived.value(), ok.value(),
                                ExceptionId(signal.value())}});
      return;
    }
    case net::MsgKind::kPaxosAccepted: {
      auto acceptor = r.u32();
      auto voter = r.u32();
      auto waived = r.boolean();
      auto ok = r.boolean();
      auto signal = r.u32();
      if (!acceptor.is_ok() || !voter.is_ok() || !waived.is_ok() ||
          !ok.is_ok() || !signal.is_ok()) {
        return;
      }
      if (!info_.is_member(ObjectId(acceptor.value())) ||
          !info_.is_member(ObjectId(voter.value()))) {
        return;
      }
      handle_accepted(AcceptedMsg{info_.instance, round.value(),
                                  ballot.value(), ObjectId(acceptor.value()),
                                  ObjectId(voter.value()),
                                  Value{waived.value(), ok.value(),
                                        ExceptionId(signal.value())}});
      return;
    }
    case net::MsgKind::kPaxosPrepare: {
      auto sender = r.u32();
      if (!sender.is_ok()) return;
      if (!info_.is_member(ObjectId(sender.value()))) return;
      handle_prepare(PrepareMsg{info_.instance, round.value(), ballot.value(),
                                ObjectId(sender.value())});
      return;
    }
    case net::MsgKind::kPaxosPromise: {
      auto acceptor = r.u32();
      auto count = r.u32();
      if (!acceptor.is_ok() || !count.is_ok()) return;
      if (!info_.is_member(ObjectId(acceptor.value()))) return;
      PromiseMsg m{info_.instance, round.value(), ballot.value(),
                   ObjectId(acceptor.value()), {}};
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto voter = r.u32();
        auto aballot = r.u32();
        auto waived = r.boolean();
        auto ok = r.boolean();
        auto signal = r.u32();
        if (!voter.is_ok() || !aballot.is_ok() || !waived.is_ok() ||
            !ok.is_ok() || !signal.is_ok()) {
          return;
        }
        if (!info_.is_member(ObjectId(voter.value()))) return;
        m.accepted[ObjectId(voter.value())] =
            Accepted{aballot.value(), Value{waived.value(), ok.value(),
                                            ExceptionId(signal.value())}};
      }
      handle_promise(m);
      return;
    }
    default:
      return;  // kActionDone etc.: not ours
  }
}

void PaxosCommitExit::on_peer_crashed(ObjectId peer, ObjectId old_leader,
                                      ObjectId new_leader) {
  // Live-set quorums must only count evidence from live acceptors; a dead
  // acceptor's reports and promises are struck everywhere.
  for (auto& [round, l] : leader_) {
    for (auto& [voter, reports] : l.reports) reports.erase(peer);
    l.promised.erase(peer);
  }
  const std::uint32_t round = host_.exit_round(info_.instance);
  if (new_leader != old_leader && last_done_.has_value() &&
      last_done_->round == round) {
    // The believed leader died: 2b reports for our vote may have died with
    // it, and a Leave it already decided may have been lost in flight to us
    // (a partition that heals only after the crash). Re-announce our
    // ballot-0 vote — acceptors that missed it accept and report to the
    // successor, acceptors that have it drop the duplicate, and a member
    // that already exited the scope answers with the recorded final Leave
    // (the dead-scope replay), releasing us when everyone else moved on.
    send_vote(round, 0, self(),
              Value{false, last_done_->ok, last_done_->signal});
    // The inline self-delivery can cascade all the way to a decision that
    // tears the scope down; every host accessor below needs it alive.
    if (const auto it = leader_.find(round);
        it != leader_.end() && it->second.decided) {
      return;
    }
  }
  if (leader() != self()) return;
  LeaderRound& l = leader_[round];
  if (l.decided) return;
  if (!l.preparing) {
    // Recovery round: re-discover every accepted value from the surviving
    // acceptors, then re-propose them (and Waived for voteless crashed
    // members) at a fresh ballot. Covers both a dead leader (we succeed it)
    // and a dead voter/acceptor under a continuing leader.
    start_prepare(round);
  } else {
    // The awaited promise set shrank with the crash; it may be complete now.
    maybe_finish_prepare(round);
  }
  if (!l.decided) maybe_decide(round);
}

void PaxosCommitExit::on_restored() {
  // A new attempt is a new round; the old vote must not leak into it.
  last_done_.reset();
}

void PaxosCommitExit::describe(std::string& phase,
                               std::vector<ObjectId>& awaited) const {
  const ActionInstanceId scope = info_.instance;
  const std::uint32_t round = host_.exit_round(scope);
  const auto lit = leader_.find(round);
  if (!last_done_.has_value() && lit == leader_.end()) return;
  if (lit != leader_.end() && lit->second.decided) return;
  if (leader() != self()) {
    phase = last_done_.has_value() ? "exit.paxos (vote sent, awaiting Leave)"
                                   : "exit.paxos (awaiting Leave)";
    awaited.push_back(leader());
    return;
  }
  const std::set<ObjectId>& excluded = host_.exit_excluded(scope);
  static const LeaderRound kIdle;
  const LeaderRound& l = lit != leader_.end() ? lit->second : kIdle;
  if (l.preparing) {
    phase = "exit.paxos (leader, prepare ballot " +
            std::to_string(l.my_ballot) + ")";
    for (ObjectId a : acceptors_) {
      if (excluded.contains(a)) continue;
      if (!l.promised.contains(a)) awaited.push_back(a);
    }
    return;
  }
  phase = "exit.paxos (leader, collecting acceptances)";
  // Awaited: members whose instance has no value chosen by a majority of
  // the live acceptors — the same tally maybe_decide runs.
  const std::size_t live = live_acceptors();
  const std::size_t quorum = live / 2 + 1;
  for (ObjectId voter : info_.members) {
    bool chosen = false;
    if (auto rit = l.reports.find(voter); rit != l.reports.end()) {
      std::map<std::uint32_t, std::size_t> tally;
      for (const auto& [acceptor, acc] : rit->second) {
        if (excluded.contains(acceptor)) continue;
        ++tally[acc.ballot];
      }
      for (const auto& [ballot, count] : tally) {
        if (count >= quorum) {
          chosen = true;
          break;
        }
      }
    }
    if (!chosen) awaited.push_back(voter);
  }
}

// ---------------------------------------------------------------------------
// Acceptor role
// ---------------------------------------------------------------------------

void PaxosCommitExit::handle_vote(const VoteMsg& m) {
  observe_ballot(m.ballot);
  AcceptorRound& a = acceptor_[m.round];
  auto it = a.accepted.find(m.voter);
  if (m.ballot == 0) {
    // Fast path: the voter is its instance's unique ballot-0 proposer, so
    // the first ballot-0 value is always safe to accept — even after a
    // recovery Prepare raised `promised` (the recovery leader only
    // re-proposes discovered values or waives *excluded* voteless members,
    // and exclusion means this voter can no longer be live and voting).
    if (it != a.accepted.end()) return;  // duplicate or superseded
  } else {
    if (m.ballot < a.promised) return;  // stale proposer
    a.promised = m.ballot;
  }
  a.accepted[m.voter] = Accepted{m.ballot, m.value};

  const ObjectId to = leader();
  if (to == self()) {
    handle_accepted(AcceptedMsg{info_.instance, m.round, m.ballot, self(),
                                m.voter, m.value});
  } else {
    net::WireWriter w;
    w.u64(info_.instance.value());
    w.u32(m.round);
    w.u32(m.ballot);
    w.u32(self().value());
    w.u32(m.voter.value());
    put_value(w, m.value.waived, m.value.ok, m.value.signal);
    host_.exit_unicast(info_.instance, to, net::MsgKind::kPaxosAccepted,
                       std::move(w).take());
  }
}

void PaxosCommitExit::handle_prepare(const PrepareMsg& m) {
  observe_ballot(m.ballot);
  const std::set<ObjectId>& excluded = host_.exit_excluded(info_.instance);
  if (excluded.contains(m.sender)) return;  // a dead leader's stale round
  AcceptorRound& a = acceptor_[m.round];
  if (m.ballot > a.promised) a.promised = m.ballot;
  // Always answer with the promised ballot and the full accepted state: a
  // fresh prepare gets its promise, a stale one gets a nack carrying the
  // higher ballot so the leader can retry above it.
  if (m.sender == self()) {
    PromiseMsg pm{info_.instance, m.round, a.promised, self(), a.accepted};
    handle_promise(pm);
  } else {
    net::WireWriter w;
    w.u64(info_.instance.value());
    w.u32(m.round);
    w.u32(a.promised);
    w.u32(self().value());
    w.u32(static_cast<std::uint32_t>(a.accepted.size()));
    for (const auto& [voter, acc] : a.accepted) {
      w.u32(voter.value());
      w.u32(acc.ballot);
      put_value(w, acc.value.waived, acc.value.ok, acc.value.signal);
    }
    host_.exit_unicast(info_.instance, m.sender, net::MsgKind::kPaxosPromise,
                       std::move(w).take());
  }
}

// ---------------------------------------------------------------------------
// Leader role
// ---------------------------------------------------------------------------

void PaxosCommitExit::handle_accepted(const AcceptedMsg& m) {
  observe_ballot(m.ballot);
  if (host_.exit_excluded(info_.instance).contains(m.acceptor)) return;
  LeaderRound& l = leader_[m.round];
  l.reports[m.voter][m.acceptor] = Accepted{m.ballot, m.value};
  ensure_recovery(m.round);
  maybe_decide(m.round);
}

void PaxosCommitExit::handle_promise(const PromiseMsg& m) {
  observe_ballot(m.ballot);
  LeaderRound& l = leader_[m.round];
  if (l.decided || !l.preparing) return;
  if (m.ballot > l.my_ballot) {
    // Nack: some acceptor promised a higher ballot (an earlier leader we
    // never heard). Retry above it.
    start_prepare(m.round);
    return;
  }
  if (m.ballot != l.my_ballot) return;  // stale promise for an old attempt
  if (host_.exit_excluded(info_.instance).contains(m.acceptor)) return;
  l.promised.insert(m.acceptor);
  for (const auto& [voter, acc] : m.accepted) {
    l.reports[voter][m.acceptor] = acc;
  }
  maybe_finish_prepare(m.round);
}

void PaxosCommitExit::send_vote(std::uint32_t round, std::uint32_t ballot,
                                ObjectId voter, const Value& value) {
  net::WireWriter w;
  w.u64(info_.instance.value());
  w.u32(round);
  w.u32(ballot);
  w.u32(voter.value());
  put_value(w, value.waived, value.ok, value.signal);
  net::Bytes payload = std::move(w).take();
  const std::set<ObjectId>& excluded = host_.exit_excluded(info_.instance);
  bool self_accepts = false;
  std::vector<ObjectId> targets;
  targets.reserve(acceptors_.size());
  for (ObjectId a : acceptors_) {
    if (a == self()) {
      self_accepts = true;
      continue;
    }
    if (excluded.contains(a)) continue;
    targets.push_back(a);
  }
  host_.exit_unicast_many(info_.instance, targets, net::MsgKind::kPaxosVote,
                          payload);
  net::BytesPool::local().recycle(std::move(payload));
  // Self-delivery last: its 2b can cascade all the way into the decision
  // (and the scope's teardown), so nothing may follow it.
  if (self_accepts) {
    handle_vote(VoteMsg{info_.instance, round, ballot, voter, value});
  }
}

void PaxosCommitExit::ensure_recovery(std::uint32_t round) {
  // A committee that has lost members may also have lost exit evidence: an
  // acceptor's 2b report dies with the leader it was addressed to, and the
  // round can advance past the one on_peer_crashed recovered (members bump
  // rounds at different times, so a vote for round R+1 may predate another
  // member even noticing the crash that made us leader). The current leader
  // therefore runs phase 1 once per round while any member is excluded,
  // re-discovering every accepted value from the surviving acceptors. The
  // prepare never blocks live ballot-0 votes (the fast path accepts
  // regardless of the promised ballot), so over-preparing is only
  // message-cost — and only in worlds that already crashed.
  if (host_.exit_excluded(info_.instance).empty()) return;
  if (round != host_.exit_round(info_.instance)) return;
  if (leader() != self()) return;
  LeaderRound& l = leader_[round];
  if (l.decided || l.preparing || l.proposing || l.my_ballot != 0) return;
  start_prepare(round);
}

void PaxosCommitExit::start_prepare(std::uint32_t round) {
  LeaderRound& l = leader_[round];
  l.my_ballot = next_ballot();
  l.preparing = true;
  l.promised.clear();
  l.proposed.clear();
  net::WireWriter w;
  w.u64(info_.instance.value());
  w.u32(round);
  w.u32(l.my_ballot);
  w.u32(self().value());
  net::Bytes payload = std::move(w).take();
  const std::set<ObjectId>& excluded = host_.exit_excluded(info_.instance);
  bool self_accepts = false;
  std::vector<ObjectId> targets;
  targets.reserve(acceptors_.size());
  for (ObjectId a : acceptors_) {
    if (a == self()) {
      self_accepts = true;
      continue;
    }
    if (excluded.contains(a)) continue;
    targets.push_back(a);
  }
  host_.exit_unicast_many(info_.instance, targets, net::MsgKind::kPaxosPrepare,
                          payload);
  net::BytesPool::local().recycle(std::move(payload));
  if (self_accepts) {
    handle_prepare(PrepareMsg{info_.instance, round, l.my_ballot, self()});
  }
}

void PaxosCommitExit::maybe_finish_prepare(std::uint32_t round) {
  LeaderRound& l = leader_[round];
  if (l.decided || !l.preparing) return;
  if (round != host_.exit_round(info_.instance)) return;
  if (leader() != self()) return;
  const std::set<ObjectId>& excluded = host_.exit_excluded(info_.instance);
  for (ObjectId a : acceptors_) {
    if (excluded.contains(a)) continue;
    if (!l.promised.contains(a)) return;  // phase 1 still in flight
  }
  l.preparing = false;
  l.proposing = true;
  // Phase 2: re-propose every discovered value at our ballot; waive crashed
  // voteless members; re-drive our own vote if every acceptor that had it
  // died. Live voters that have not voted yet are left alone — their
  // ballot-0 votes are accepted on arrival. Inline self-deliveries cascade
  // into maybe_decide mid-loop; `proposing` keeps them from starting a new
  // prepare underneath this one.
  for (ObjectId voter : info_.members) {
    std::optional<Accepted> best;
    if (auto rit = l.reports.find(voter); rit != l.reports.end()) {
      for (const auto& [acceptor, acc] : rit->second) {
        if (excluded.contains(acceptor)) continue;
        if (!best.has_value() || acc.ballot > best->ballot) best = acc;
      }
    }
    if (best.has_value()) {
      l.proposed.insert(voter);
      send_vote(round, l.my_ballot, voter, best->value);
    } else if (excluded.contains(voter)) {
      l.proposed.insert(voter);
      send_vote(round, l.my_ballot, voter,
                Value{/*waived=*/true, /*ok=*/true, ExceptionId()});
    } else if (voter == self() && last_done_.has_value() &&
               last_done_->round == round) {
      l.proposed.insert(voter);
      send_vote(round, l.my_ballot, voter,
                Value{/*waived=*/false, last_done_->ok, last_done_->signal});
    }
    if (l.decided) return;  // a re-proposal cascaded into the decision
  }
  l.proposing = false;
  maybe_decide(round);
}

void PaxosCommitExit::maybe_decide(std::uint32_t round) {
  LeaderRound& l = leader_[round];
  if (l.decided) return;
  const ActionInstanceId scope = info_.instance;
  if (round != host_.exit_round(scope)) return;
  if (host_.exit_aborting(scope)) return;
  if (leader() != self()) return;
  const std::size_t live = live_acceptors();
  if (live == 0) return;  // unreachable while any member (we) lives; defensive
  const std::size_t quorum = live / 2 + 1;
  const std::set<ObjectId>& excluded = host_.exit_excluded(scope);

  std::vector<action::DoneMsg> dones;
  dones.reserve(info_.members.size());
  bool needs_recovery = false;
  for (ObjectId voter : info_.members) {
    // Chosen value: a (ballot, value) pair reported by a majority of the
    // live acceptors; same-ballot reports carry the same value (single
    // proposer per ballot per instance), so counting ballots suffices.
    std::optional<Value> chosen;
    if (auto rit = l.reports.find(voter); rit != l.reports.end()) {
      std::map<std::uint32_t, std::size_t> tally;
      for (const auto& [acceptor, acc] : rit->second) {
        if (excluded.contains(acceptor)) continue;
        ++tally[acc.ballot];
      }
      for (const auto& [ballot, count] : tally) {
        if (count < quorum) continue;
        for (const auto& [acceptor, acc] : rit->second) {
          if (acc.ballot == ballot && !excluded.contains(acceptor)) {
            chosen = acc.value;  // ascending scan: highest such ballot wins
            break;
          }
        }
      }
    }
    if (!chosen.has_value()) {
      if (excluded.contains(voter)) {
        // Recovery is only warranted when nothing is in flight for this
        // instance: a voter already re-proposed at my_ballot has its 2b
        // reports on the wire, and restarting would chase our own tail.
        if (!l.proposed.contains(voter)) needs_recovery = true;
        continue;
      }
      return;  // a live member is still working; nothing to force
    }
    // Crashed members' parts are waived from the outcome either way — the
    // same semantics the barrier applies to Dones from excluded senders.
    if (excluded.contains(voter) || chosen->waived) continue;
    dones.push_back(
        action::DoneMsg{scope, round, voter, chosen->ok, chosen->signal});
  }
  if (needs_recovery) {
    // Every live member has a chosen value but a crashed voteless member
    // blocks the commit: drive its instance to Waived through a recovery
    // round (at most one prepare / re-proposal wave in flight at a time).
    if (!l.preparing && !l.proposing) start_prepare(round);
    return;
  }
  if (l.proposing) return;  // mid-loop cascade: the tail call re-checks
  if (!host_.exit_resolution_idle(scope)) {
    // A resolution superseded this exit; its finish bumps the round and the
    // committee re-votes there.
    return;
  }
  l.decided = true;
  const action::LeaveMsg leave = host_.exit_decide(scope, round, dones);
  const net::Bytes payload = encode(leave);
  host_.exit_multicast(scope, net::MsgKind::kActionLeave, payload);
  host_.exit_deliver_leave(leave);
  // deliver_leave may tear down the scope (and retire this object); nothing
  // below this line.
}

}  // namespace caa::exit
