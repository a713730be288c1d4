#include "txn/txn_manager.h"

#include "rt/runtime.h"
#include "util/check.h"

namespace caa::txn {
namespace {
const caa::CounterId kClientUnhandledKind =
    caa::CounterId::of("txn.client_unhandled_kind");
}  // namespace


TxnId TxnClient::begin(TxnId parent) {
  const std::uint32_t seq = next_seq_++;
  const TxnId txn = make_txn_id(id(), seq);
  TxnRecord rec;
  rec.parent = parent;
  if (parent.valid()) {
    CAA_CHECK_MSG(active(parent), "begin(): parent not active here");
    rec.top = record(parent).top;
  } else {
    rec.top = txn;
  }
  if (obs::Observability* o = observing()) {
    rec.began = now();
    o->recorder().record_protocol(obs::RecType::kTxnBegin, id().value(),
                                  txn.value(), 0, seq, parent.valid() ? 1 : 0);
  }
  txns_.emplace(txn, std::move(rec));
  return txn;
}

obs::Observability* TxnClient::observing() const {
  if (!attached()) return nullptr;
  obs::Observability& o = runtime().simulator().obs();
  return o.enabled() ? &o : nullptr;
}

void TxnClient::note_txn_finished(TxnId txn, const TxnRecord& rec,
                                  bool committed) {
  obs::Observability* o = observing();
  if (o == nullptr) return;
  o->recorder().record_protocol(obs::RecType::kTxnEnd, id().value(),
                                txn.value(), 0, committed ? 1 : 0);
  o->metrics().record(o->metrics().histogram("txn.latency"),
                      now() - rec.began);
}

bool TxnClient::active(TxnId txn) const {
  auto it = txns_.find(txn);
  return it != txns_.end() && it->second.state == TxnState::kActive;
}

TxnClient::TxnRecord& TxnClient::record(TxnId txn) {
  auto it = txns_.find(txn);
  CAA_CHECK_MSG(it != txns_.end(), "unknown transaction");
  return it->second;
}

void TxnClient::send_op(TxnId txn, ObjectId host, TxnOp op,
                        std::string object, std::int64_t value,
                        PendingOp pending) {
  TxnRecord& rec = record(txn);
  CAA_CHECK_MSG(rec.state == TxnState::kActive, "operation on finished txn");
  rec.hosts.insert(host);
  const std::uint64_t request_id = next_request_++;
  pending_.emplace(request_id, std::move(pending));
  TxnOpRequest request;
  request.request_id = request_id;
  request.txn = txn;
  request.top = rec.top;
  request.op = op;
  request.object = std::move(object);
  request.value = value;
  send(host, net::MsgKind::kTxnOpRequest, encode(request));
}

void TxnClient::read(TxnId txn, ObjectId host, std::string object,
                     ValueCb cb) {
  PendingOp p;
  p.txn = txn;
  p.value_cb = std::move(cb);
  send_op(txn, host, TxnOp::kRead, std::move(object), 0, std::move(p));
}

void TxnClient::write(TxnId txn, ObjectId host, std::string object,
                      std::int64_t value, DoneCb cb) {
  PendingOp p;
  p.txn = txn;
  p.done_cb = std::move(cb);
  send_op(txn, host, TxnOp::kWrite, std::move(object), value, std::move(p));
}

void TxnClient::add(TxnId txn, ObjectId host, std::string object,
                    std::int64_t delta, ValueCb cb) {
  PendingOp p;
  p.txn = txn;
  p.value_cb = std::move(cb);
  send_op(txn, host, TxnOp::kAdd, std::move(object), delta, std::move(p));
}

void TxnClient::create(TxnId txn, ObjectId host, std::string object,
                       std::int64_t initial, DoneCb cb) {
  PendingOp p;
  p.txn = txn;
  p.done_cb = std::move(cb);
  send_op(txn, host, TxnOp::kCreate, std::move(object), initial,
          std::move(p));
}

void TxnClient::commit(TxnId txn, DoneCb cb) {
  TxnRecord& rec = record(txn);
  CAA_CHECK_MSG(rec.state == TxnState::kActive, "commit on finished txn");
  rec.state = TxnState::kCommitting;
  rec.finish = std::move(cb);

  if (rec.parent.valid()) {
    // Nested commit: merge into the parent at every touched host.
    TxnRecord& parent = record(rec.parent);
    rec.awaiting = rec.hosts.size();
    if (rec.awaiting == 0) {
      note_txn_finished(txn, rec, /*committed=*/true);
      auto finish = std::move(rec.finish);
      txns_.erase(txn);
      ++commits_;
      if (finish) finish(Status::ok());
      return;
    }
    for (ObjectId host : rec.hosts) {
      parent.hosts.insert(host);
      const std::uint64_t request_id = next_request_++;
      PendingOp p;
      p.txn = txn;
      p.done_cb = [this, txn](Status status) {
        TxnRecord& r = record(txn);
        CAA_CHECK(r.awaiting > 0);
        r.all_yes = r.all_yes && status.is_ok();
        if (--r.awaiting > 0) return;
        note_txn_finished(txn, r, r.all_yes);
        auto finish = std::move(r.finish);
        const bool ok = r.all_yes;
        txns_.erase(txn);
        if (ok) ++commits_; else ++aborts_;
        if (finish) {
          finish(ok ? Status::ok() : Status::aborted("child merge failed"));
        }
      };
      pending_.emplace(request_id, std::move(p));
      TxnOpRequest request;
      request.request_id = request_id;
      request.txn = txn;
      request.top = rec.top;
      request.parent = rec.parent;
      request.op = TxnOp::kCommitChild;
      send(host, net::MsgKind::kTxnOpRequest, encode(request));
    }
    return;
  }

  // Top-level: two-phase commit.
  rec.awaiting = rec.hosts.size();
  rec.all_yes = true;
  if (rec.awaiting == 0) {
    note_txn_finished(txn, rec, /*committed=*/true);
    auto finish = std::move(rec.finish);
    txns_.erase(txn);
    ++commits_;
    if (finish) finish(Status::ok());
    return;
  }
  for (ObjectId host : rec.hosts) {
    send(host, net::MsgKind::kTxnPrepare, encode(TxnPrepare{txn}));
  }
}

void TxnClient::abort(TxnId txn, DoneCb cb) {
  TxnRecord& rec = record(txn);
  if (rec.state != TxnState::kActive) {
    if (cb) cb(Status::failed_precondition("txn already finishing"));
    return;
  }
  rec.state = TxnState::kAborting;
  fan_out_abort(txn, std::move(cb));
}

void TxnClient::fan_out_abort(TxnId txn, DoneCb cb) {
  TxnRecord& rec = record(txn);
  rec.finish = std::move(cb);
  rec.awaiting = rec.hosts.size();
  if (rec.awaiting == 0) {
    note_txn_finished(txn, rec, /*committed=*/false);
    auto finish = std::move(rec.finish);
    txns_.erase(txn);
    ++aborts_;
    if (finish) finish(Status::ok());
    return;
  }
  for (ObjectId host : rec.hosts) {
    const std::uint64_t request_id = next_request_++;
    PendingOp p;
    p.txn = txn;
    p.done_cb = [this, txn](Status) {
      TxnRecord& r = record(txn);
      CAA_CHECK(r.awaiting > 0);
      if (--r.awaiting > 0) return;
      note_txn_finished(txn, r, /*committed=*/false);
      auto finish = std::move(r.finish);
      txns_.erase(txn);
      ++aborts_;
      if (finish) finish(Status::ok());
    };
    pending_.emplace(request_id, std::move(p));
    TxnOpRequest request;
    request.request_id = request_id;
    request.txn = txn;
    request.top = rec.top;
    request.op = TxnOp::kAbort;
    send(host, net::MsgKind::kTxnOpRequest, encode(request));
  }
}

void TxnClient::finish_op(const TxnOpReply& reply) {
  auto it = pending_.find(reply.request_id);
  if (it == pending_.end()) return;  // late reply for an aborted txn
  PendingOp pending = std::move(it->second);
  pending_.erase(it);

  Status status = Status::ok();
  switch (reply.status) {
    case TxnReplyStatus::kOk:
      break;
    case TxnReplyStatus::kConflict:
      status = Status::conflict("wait-die victim");
      break;
    case TxnReplyStatus::kNotFound:
      status = Status::not_found("no such atomic object");
      break;
    case TxnReplyStatus::kExists:
      status = Status::already_exists("atomic object exists");
      break;
  }
  if (pending.value_cb) {
    if (status.is_ok()) {
      pending.value_cb(reply.value);
    } else {
      pending.value_cb(status);
    }
  } else if (pending.done_cb) {
    pending.done_cb(status);
  }
}

void TxnClient::on_message(ObjectId from, net::MsgKind kind,
                           const net::Bytes& payload) {
  (void)from;
  switch (kind) {
    case net::MsgKind::kTxnOpReply: {
      auto m = decode_op_reply(payload);
      if (!m.is_ok()) return;
      finish_op(m.value());
      return;
    }
    case net::MsgKind::kTxnVote: {
      auto m = decode_vote(payload);
      if (!m.is_ok()) return;
      auto it = txns_.find(m.value().txn);
      if (it == txns_.end()) return;
      TxnRecord& rec = it->second;
      CAA_CHECK(rec.state == TxnState::kCommitting);
      rec.all_yes = rec.all_yes && m.value().yes;
      CAA_CHECK(rec.awaiting > 0);
      if (--rec.awaiting > 0) return;
      // Phase 2: decide.
      rec.awaiting = rec.hosts.size();
      for (ObjectId host : rec.hosts) {
        send(host, net::MsgKind::kTxnDecision,
             encode(TxnDecision{m.value().txn, rec.all_yes}));
      }
      return;
    }
    case net::MsgKind::kTxnDecisionAck: {
      auto m = decode_decision_ack(payload);
      if (!m.is_ok()) return;
      auto it = txns_.find(m.value().txn);
      if (it == txns_.end()) return;
      TxnRecord& rec = it->second;
      CAA_CHECK(rec.awaiting > 0);
      if (--rec.awaiting > 0) return;
      note_txn_finished(it->first, rec, rec.all_yes);
      auto finish = std::move(rec.finish);
      const bool committed = rec.all_yes;
      txns_.erase(it);
      if (committed) ++commits_; else ++aborts_;
      if (finish) {
        finish(committed ? Status::ok()
                         : Status::aborted("2PC voted no"));
      }
      return;
    }
    default:
      runtime().simulator().counters().add(kClientUnhandledKind);
      return;
  }
}

}  // namespace caa::txn
