#include "resolve/messages.h"

#include "net/wire.h"

namespace caa::resolve {

namespace {
// Every resolution message starts with (scope:u64, round:u32) so that
// routing can peek without knowing the exact kind.
void put_header(net::WireWriter& w, ActionInstanceId scope,
                std::uint32_t round) {
  w.u64(scope.value());
  w.u32(round);
}

struct Header {
  ActionInstanceId scope;
  std::uint32_t round;
};

Result<Header> get_header(net::WireReader& r) {
  auto scope = r.u64();
  if (!scope.is_ok()) return scope.status();
  auto round = r.u32();
  if (!round.is_ok()) return round.status();
  return Header{ActionInstanceId(scope.value()), round.value()};
}

Result<ObjectId> get_object(net::WireReader& r) {
  auto v = r.u32();
  if (!v.is_ok()) return v.status();
  return ObjectId(v.value());
}

Result<ExceptionId> get_exception(net::WireReader& r) {
  auto v = r.u32();
  if (!v.is_ok()) return v.status();
  return ExceptionId(v.value());
}

template <typename M>
Result<ProtocolMsg> widen(const Result<M>& m) {
  if (!m.is_ok()) return m.status();
  return ProtocolMsg(m.value());
}
}  // namespace

net::Bytes encode(const ExceptionMsg& m) {
  net::WireWriter w;
  put_header(w, m.scope, m.round);
  w.u32(m.raiser.value());
  w.u32(m.exception.value());
  return std::move(w).take();
}

net::Bytes encode(const HaveNestedMsg& m) {
  net::WireWriter w;
  put_header(w, m.scope, m.round);
  w.u32(m.sender.value());
  return std::move(w).take();
}

net::Bytes encode(const NestedCompletedMsg& m) {
  net::WireWriter w;
  put_header(w, m.scope, m.round);
  w.u32(m.sender.value());
  w.u32(m.signalled.value());
  return std::move(w).take();
}

net::Bytes encode(const AckMsg& m) {
  net::WireWriter w;
  put_header(w, m.scope, m.round);
  w.u32(m.sender.value());
  return std::move(w).take();
}

net::Bytes encode(const CommitMsg& m) {
  net::WireWriter w;
  put_header(w, m.scope, m.round);
  w.u32(m.resolver.value());
  w.u32(m.resolved.value());
  return std::move(w).take();
}

net::Bytes encode(const CrashSyncMsg& m) {
  net::WireWriter w;
  put_header(w, m.scope, m.round);
  w.u32(m.sender.value());
  w.u32(m.crashed.value());
  w.u32(static_cast<std::uint32_t>(m.phase));
  w.u32(m.commit_round);
  w.u32(m.commit_resolver.value());
  w.u32(m.commit_resolved.value());
  return std::move(w).take();
}

net::Bytes encode(const FastCoverMsg& m) {
  net::WireWriter w;
  put_header(w, m.scope, m.round);
  w.u32(m.sender.value());
  w.u32(static_cast<std::uint32_t>(m.phase));
  w.u32(m.exception.value());
  w.u32(m.cover.value());
  return std::move(w).take();
}

Result<ExceptionMsg> decode_exception(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto h = get_header(r);
  if (!h.is_ok()) return h.status();
  auto raiser = get_object(r);
  if (!raiser.is_ok()) return raiser.status();
  auto exception = get_exception(r);
  if (!exception.is_ok()) return exception.status();
  return ExceptionMsg{h.value().scope, h.value().round, raiser.value(),
                      exception.value()};
}

Result<HaveNestedMsg> decode_have_nested(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto h = get_header(r);
  if (!h.is_ok()) return h.status();
  auto sender = get_object(r);
  if (!sender.is_ok()) return sender.status();
  return HaveNestedMsg{h.value().scope, h.value().round, sender.value()};
}

Result<NestedCompletedMsg> decode_nested_completed(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto h = get_header(r);
  if (!h.is_ok()) return h.status();
  auto sender = get_object(r);
  if (!sender.is_ok()) return sender.status();
  auto signalled = get_exception(r);
  if (!signalled.is_ok()) return signalled.status();
  return NestedCompletedMsg{h.value().scope, h.value().round, sender.value(),
                            signalled.value()};
}

Result<AckMsg> decode_ack(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto h = get_header(r);
  if (!h.is_ok()) return h.status();
  auto sender = get_object(r);
  if (!sender.is_ok()) return sender.status();
  return AckMsg{h.value().scope, h.value().round, sender.value()};
}

Result<CommitMsg> decode_commit(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto h = get_header(r);
  if (!h.is_ok()) return h.status();
  auto resolver = get_object(r);
  if (!resolver.is_ok()) return resolver.status();
  auto resolved = get_exception(r);
  if (!resolved.is_ok()) return resolved.status();
  return CommitMsg{h.value().scope, h.value().round, resolver.value(),
                   resolved.value()};
}

Result<CrashSyncMsg> decode_crash_sync(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto h = get_header(r);
  if (!h.is_ok()) return h.status();
  auto sender = get_object(r);
  if (!sender.is_ok()) return sender.status();
  auto crashed = get_object(r);
  if (!crashed.is_ok()) return crashed.status();
  auto phase = r.u32();
  if (!phase.is_ok()) return phase.status();
  if (phase.value() > static_cast<std::uint32_t>(CrashSyncMsg::Phase::kGone)) {
    return Status::invalid_argument("CrashSync: bad phase");
  }
  auto commit_round = r.u32();
  if (!commit_round.is_ok()) return commit_round.status();
  auto commit_resolver = get_object(r);
  if (!commit_resolver.is_ok()) return commit_resolver.status();
  auto commit_resolved = get_exception(r);
  if (!commit_resolved.is_ok()) return commit_resolved.status();
  return CrashSyncMsg{h.value().scope,
                      h.value().round,
                      sender.value(),
                      crashed.value(),
                      static_cast<CrashSyncMsg::Phase>(phase.value()),
                      commit_round.value(),
                      commit_resolver.value(),
                      commit_resolved.value()};
}

Result<FastCoverMsg> decode_fast_cover(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto h = get_header(r);
  if (!h.is_ok()) return h.status();
  auto sender = get_object(r);
  if (!sender.is_ok()) return sender.status();
  auto phase = r.u32();
  if (!phase.is_ok()) return phase.status();
  if (phase.value() > static_cast<std::uint32_t>(FastCoverMsg::Phase::kStale)) {
    return Status::invalid_argument("FastCover: bad phase");
  }
  auto exception = get_exception(r);
  if (!exception.is_ok()) return exception.status();
  auto cover = get_exception(r);
  if (!cover.is_ok()) return cover.status();
  return FastCoverMsg{h.value().scope,
                      h.value().round,
                      sender.value(),
                      static_cast<FastCoverMsg::Phase>(phase.value()),
                      exception.value(),
                      cover.value()};
}

Result<ProtocolMsg> decode_protocol(net::MsgKind kind,
                                    const net::Bytes& bytes) {
  switch (kind) {
    case net::MsgKind::kException: return widen(decode_exception(bytes));
    case net::MsgKind::kHaveNested: return widen(decode_have_nested(bytes));
    case net::MsgKind::kNestedCompleted:
      return widen(decode_nested_completed(bytes));
    case net::MsgKind::kAck: return widen(decode_ack(bytes));
    case net::MsgKind::kCommit: return widen(decode_commit(bytes));
    default: return Status::invalid_argument("not a resolution kind");
  }
}

Result<ScopeRound> peek_scope_round(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto h = get_header(r);
  if (!h.is_ok()) return h.status();
  return ScopeRound{h.value().scope, h.value().round};
}

}  // namespace caa::resolve
