#include "net/message.h"

#include <array>
#include <string>

#include "util/check.h"

namespace caa::net {

std::string_view kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::kInvalid: return "Invalid";
    case MsgKind::kTransportAck: return "TransportAck";
    case MsgKind::kException: return "Exception";
    case MsgKind::kHaveNested: return "HaveNested";
    case MsgKind::kNestedCompleted: return "NestedCompleted";
    case MsgKind::kAck: return "ACK";
    case MsgKind::kCommit: return "Commit";
    case MsgKind::kFastCover: return "FastCover";
    case MsgKind::kCrRaise: return "CrRaise";
    case MsgKind::kCrCommit: return "CrCommit";
    case MsgKind::kCrAck: return "CrAck";
    case MsgKind::kArcheReport: return "ArcheReport";
    case MsgKind::kArcheConcerted: return "ArcheConcerted";
    case MsgKind::kCentralException: return "CentralException";
    case MsgKind::kCentralFreeze: return "CentralFreeze";
    case MsgKind::kCentralFrozenAck: return "CentralFrozenAck";
    case MsgKind::kCentralCommit: return "CentralCommit";
    case MsgKind::kCrashSync: return "CrashSync";
    case MsgKind::kRelay: return "Relay";
    case MsgKind::kActionDone: return "ActionDone";
    case MsgKind::kActionLeave: return "ActionLeave";
    case MsgKind::kActionLeaveAck: return "ActionLeaveAck";
    case MsgKind::kPaxosPrepare: return "PaxosPrepare";
    case MsgKind::kPaxosPromise: return "PaxosPromise";
    case MsgKind::kPaxosVote: return "PaxosVote";
    case MsgKind::kPaxosAccepted: return "PaxosAccepted";
    case MsgKind::kTxnOpRequest: return "TxnOpRequest";
    case MsgKind::kTxnOpReply: return "TxnOpReply";
    case MsgKind::kTxnPrepare: return "TxnPrepare";
    case MsgKind::kTxnVote: return "TxnVote";
    case MsgKind::kTxnDecision: return "TxnDecision";
    case MsgKind::kTxnDecisionAck: return "TxnDecisionAck";
    case MsgKind::kHeartbeat: return "Heartbeat";
    case MsgKind::kAppData: return "AppData";
  }
  return "Unknown";
}

bool is_resolution_kind(MsgKind kind) {
  switch (kind) {
    case MsgKind::kException:
    case MsgKind::kHaveNested:
    case MsgKind::kNestedCompleted:
    case MsgKind::kAck:
    case MsgKind::kCommit:
      return true;
    default:
      return false;
  }
}

const std::vector<MsgKind>& all_kinds() {
  static const std::vector<MsgKind> kinds = [] {
    std::vector<MsgKind> out;
    for (int i = 1; i <= static_cast<int>(MsgKind::kAppData); ++i) {
      const auto kind = static_cast<MsgKind>(i);
      if (kind_name(kind) != "Unknown") out.push_back(kind);
    }
    return out;
  }();
  return kinds;
}

const KindCounters& kind_counters(MsgKind kind) {
  // Direct-indexed by the enum value; kAppData = 1000 is the largest kind.
  // Built eagerly for every index under a magic static: the lazy
  // first-touch init it replaces raced when two campaign workers first sent
  // the same kind concurrently. After init the lookup is a lock-free read.
  static const std::array<KindCounters, 1025>& table = *[] {
    auto* t = new std::array<KindCounters, 1025>();
    for (std::size_t i = 0; i < t->size(); ++i) {
      const std::string suffix(kind_name(static_cast<MsgKind>(i)));
      (*t)[i].sent = CounterId::of("net.sent." + suffix);
      (*t)[i].delivered = CounterId::of("net.delivered." + suffix);
      (*t)[i].dropped = CounterId::of("net.dropped." + suffix);
      (*t)[i].duplicated = CounterId::of("net.duplicated." + suffix);
    }
    return t;
  }();
  const auto index = static_cast<std::size_t>(kind);
  CAA_CHECK_MSG(index < table.size(), "kind_counters: unknown kind");
  return table[index];
}

}  // namespace caa::net
