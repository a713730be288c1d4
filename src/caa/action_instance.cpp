#include "caa/action_instance.h"

#include "net/wire.h"
#include "util/members.h"

namespace caa::action {

bool InstanceInfo::is_member(ObjectId o) const {
  return rank_in(members, o).has_value();
}

net::Bytes encode(const DoneMsg& m) {
  net::WireWriter w;
  w.u64(m.scope.value());
  w.u32(m.round);
  w.u32(m.sender.value());
  w.boolean(m.ok);
  w.u32(m.signal.value());
  return std::move(w).take();
}

net::Bytes encode(const LeaveMsg& m) {
  net::WireWriter w;
  w.u64(m.scope.value());
  w.u32(m.round);
  w.u8(static_cast<std::uint8_t>(m.outcome));
  w.u32(m.signal.value());
  w.u32(m.attempt);
  return std::move(w).take();
}

std::string_view to_string(LeaveOutcome outcome) {
  switch (outcome) {
    case LeaveOutcome::kCommitted: return "committed";
    case LeaveOutcome::kSignalled: return "signalled";
    case LeaveOutcome::kRestored: return "restored";
  }
  return "?";
}

Result<DoneMsg> decode_done(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto scope = r.u64();
  if (!scope.is_ok()) return scope.status();
  auto round = r.u32();
  if (!round.is_ok()) return round.status();
  auto sender = r.u32();
  if (!sender.is_ok()) return sender.status();
  auto ok = r.boolean();
  if (!ok.is_ok()) return ok.status();
  auto signal = r.u32();
  if (!signal.is_ok()) return signal.status();
  return DoneMsg{ActionInstanceId(scope.value()), round.value(),
                 ObjectId(sender.value()), ok.value(),
                 ExceptionId(signal.value())};
}

Result<LeaveMsg> decode_leave(const net::Bytes& bytes) {
  net::WireReader r(bytes);
  auto scope = r.u64();
  if (!scope.is_ok()) return scope.status();
  auto round = r.u32();
  if (!round.is_ok()) return round.status();
  auto outcome = r.u8();
  if (!outcome.is_ok()) return outcome.status();
  if (outcome.value() > 2) return Status::invalid_argument("bad outcome");
  auto signal = r.u32();
  if (!signal.is_ok()) return signal.status();
  auto attempt = r.u32();
  if (!attempt.is_ok()) return attempt.status();
  return LeaveMsg{ActionInstanceId(scope.value()), round.value(),
                  static_cast<LeaveOutcome>(outcome.value()),
                  ExceptionId(signal.value()), attempt.value()};
}

}  // namespace caa::action
