#include "exit/exit_protocol.h"

#include "exit/barrier_exit.h"
#include "exit/paxos_exit.h"
#include "util/check.h"

namespace caa::exit {

std::string_view exit_kind_name(ExitKind kind) {
  switch (kind) {
    case ExitKind::kBarrier:
      return "barrier";
    case ExitKind::kPaxos:
      return "paxos";
  }
  return "unknown";
}

Result<ExitKind> parse_exit_kind(std::string_view name) {
  if (name == "barrier") return ExitKind::kBarrier;
  if (name == "paxos") return ExitKind::kPaxos;
  return Status::invalid_argument("unknown exit protocol (barrier|paxos)");
}

ObjectId live_leader(const action::InstanceInfo& info,
                     const std::set<ObjectId>& excluded) {
  for (ObjectId member : info.members) {
    if (!excluded.contains(member)) return member;
  }
  return info.leader();  // everyone crashed: degenerate, keep static
}

std::unique_ptr<ExitProtocol> make_exit_protocol(
    ExitKind kind, ExitHost& host, const action::InstanceInfo& info) {
  switch (kind) {
    case ExitKind::kBarrier:
      return std::make_unique<BarrierExit>(host, info);
    case ExitKind::kPaxos:
      return std::make_unique<PaxosCommitExit>(host, info);
  }
  CAA_CHECK_MSG(false, "make_exit_protocol: unknown exit kind");
  return nullptr;
}

}  // namespace caa::exit
