#include "txn/atomic_object.h"

#include <algorithm>

#include "rt/runtime.h"
#include "util/check.h"

namespace caa::txn {
namespace {
const caa::CounterId kUnhandledKind = caa::CounterId::of("txn.unhandled_kind");
const caa::CounterId kWaits = caa::CounterId::of("txn.waits");
const caa::CounterId kWaitDieVictims =
    caa::CounterId::of("txn.wait_die_victims");
}  // namespace


AtomicObjectHost::AtomicObjectHost()
    : locks_([this](const std::string& name, TxnId txn, LockMode mode) {
        on_wake(name, txn, mode);
      }) {}

void AtomicObjectHost::put_initial(std::string name, std::int64_t value) {
  values_[std::move(name)] = value;
}

std::optional<std::int64_t> AtomicObjectHost::peek(
    const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void AtomicObjectHost::on_message(ObjectId from, net::MsgKind kind,
                                  const net::Bytes& payload) {
  switch (kind) {
    case net::MsgKind::kTxnOpRequest: {
      auto m = decode_op_request(payload);
      if (!m.is_ok()) return;
      handle_op(from, m.value());
      return;
    }
    case net::MsgKind::kTxnPrepare: {
      auto m = decode_prepare(payload);
      if (!m.is_ok()) return;
      // Strict 2PL: writes are already applied and locks held, so a live
      // transaction can always commit; only one we killed votes no.
      const bool yes = !aborted_.contains(m.value().txn);
      send(from, net::MsgKind::kTxnVote,
           encode(TxnVote{m.value().txn, yes}));
      return;
    }
    case net::MsgKind::kTxnDecision: {
      auto m = decode_decision(payload);
      if (!m.is_ok()) return;
      if (m.value().commit) {
        commit_release(m.value().txn);
      } else {
        undo_and_release(m.value().txn);
      }
      send(from, net::MsgKind::kTxnDecisionAck,
           encode(TxnDecisionAck{m.value().txn}));
      return;
    }
    default:
      runtime().simulator().counters().add(kUnhandledKind);
      return;
  }
}

void AtomicObjectHost::handle_op(ObjectId from, const TxnOpRequest& request) {
  switch (request.op) {
    case TxnOp::kAbort:
      undo_and_release(request.txn);
      aborted_.insert(request.txn);
      reply(from, request.request_id, TxnReplyStatus::kOk);
      return;
    case TxnOp::kCommitChild:
      merge_child(request.txn, request.parent);
      reply(from, request.request_id, TxnReplyStatus::kOk);
      return;
    default:
      break;
  }
  if (aborted_.contains(request.txn)) {
    reply(from, request.request_id, TxnReplyStatus::kConflict);
    return;
  }
  const LockMode mode =
      request.op == TxnOp::kRead ? LockMode::kShared : LockMode::kExclusive;
  switch (locks_.acquire(request.object, request.txn, request.top, mode)) {
    case LockOutcome::kGranted:
      execute_granted(from, request);
      return;
    case LockOutcome::kQueued:
      parked_[request.txn].push_back(Parked{from, request});
      runtime().simulator().counters().add(kWaits);
      return;
    case LockOutcome::kDied:
      // The victim must abort: its prepare votes no, and the abort decision
      // undoes the writes it made before it died.
      aborted_.insert(request.txn);
      runtime().simulator().counters().add(kWaitDieVictims);
      reply(from, request.request_id, TxnReplyStatus::kConflict);
      return;
  }
}

void AtomicObjectHost::on_wake(const std::string& name, TxnId txn,
                               LockMode mode) {
  (void)mode;
  auto it = parked_.find(txn);
  if (it == parked_.end()) return;
  std::vector<Parked> ready;
  std::erase_if(it->second, [&](Parked& p) {
    if (p.request.object != name) return false;
    ready.push_back(std::move(p));
    return true;
  });
  if (it->second.empty()) parked_.erase(it);
  for (Parked& p : ready) {
    if (aborted_.contains(p.request.txn)) {
      reply(p.client, p.request.request_id, TxnReplyStatus::kConflict);
    } else {
      execute_granted(p.client, p.request);
    }
  }
}

void AtomicObjectHost::record_undo(TxnId txn, const std::string& object) {
  auto& log = undo_[txn];
  for (const UndoEntry& e : log) {
    if (e.object == object) return;  // first-touch image already saved
  }
  auto it = values_.find(object);
  log.push_back(UndoEntry{
      object, it == values_.end() ? std::nullopt
                                  : std::optional<std::int64_t>(it->second)});
}

void AtomicObjectHost::execute_granted(ObjectId from,
                                       const TxnOpRequest& request) {
  switch (request.op) {
    case TxnOp::kRead: {
      auto it = values_.find(request.object);
      if (it == values_.end()) {
        reply(from, request.request_id, TxnReplyStatus::kNotFound);
        return;
      }
      reply(from, request.request_id, TxnReplyStatus::kOk, it->second);
      return;
    }
    case TxnOp::kWrite: {
      auto it = values_.find(request.object);
      if (it == values_.end()) {
        reply(from, request.request_id, TxnReplyStatus::kNotFound);
        return;
      }
      record_undo(request.txn, request.object);
      it->second = request.value;
      reply(from, request.request_id, TxnReplyStatus::kOk, it->second);
      return;
    }
    case TxnOp::kAdd: {
      auto it = values_.find(request.object);
      if (it == values_.end()) {
        reply(from, request.request_id, TxnReplyStatus::kNotFound);
        return;
      }
      record_undo(request.txn, request.object);
      it->second += request.value;
      reply(from, request.request_id, TxnReplyStatus::kOk, it->second);
      return;
    }
    case TxnOp::kCreate: {
      if (values_.contains(request.object)) {
        reply(from, request.request_id, TxnReplyStatus::kExists);
        return;
      }
      record_undo(request.txn, request.object);
      values_[request.object] = request.value;
      reply(from, request.request_id, TxnReplyStatus::kOk, request.value);
      return;
    }
    case TxnOp::kAbort:
    case TxnOp::kCommitChild:
      CAA_CHECK_MSG(false, "control op routed to execute_granted");
  }
}

void AtomicObjectHost::undo_and_release(TxnId txn) {
  auto it = undo_.find(txn);
  if (it != undo_.end()) {
    // Restore before-images in reverse order of first touch.
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (rit->old_value.has_value()) {
        values_[rit->object] = *rit->old_value;
      } else {
        values_.erase(rit->object);
      }
    }
    undo_.erase(it);
  }
  // Drop any parked requests of the dead transaction.
  if (auto pit = parked_.find(txn); pit != parked_.end()) {
    for (Parked& p : pit->second) {
      reply(p.client, p.request.request_id, TxnReplyStatus::kConflict);
    }
    parked_.erase(pit);
  }
  locks_.cancel_waiting(txn);
  locks_.release_all(txn);
}

void AtomicObjectHost::commit_release(TxnId txn) {
  undo_.erase(txn);
  locks_.release_all(txn);
}

void AtomicObjectHost::merge_child(TxnId child, TxnId parent) {
  // Parent inherits the child's locks and before-images; child's writes
  // stay applied (visible to the parent, still hidden from outsiders).
  auto it = undo_.find(child);
  if (it != undo_.end()) {
    auto& parent_log = undo_[parent];
    for (UndoEntry& e : it->second) {
      const bool parent_has =
          std::any_of(parent_log.begin(), parent_log.end(),
                      [&](const UndoEntry& pe) { return pe.object == e.object; });
      if (!parent_has) parent_log.push_back(std::move(e));
    }
    undo_.erase(it);
  }
  locks_.transfer(child, parent);
}

void AtomicObjectHost::reply(ObjectId to, std::uint64_t request_id,
                             TxnReplyStatus status, std::int64_t value) {
  send(to, net::MsgKind::kTxnOpReply,
       encode(TxnOpReply{request_id, status, value}));
}

}  // namespace caa::txn
