// The five protocol messages of the paper's resolution algorithm (§4.1):
//   Exception(A, O_i, E)        — raised E within action A
//   HaveNested(O_i, A)          — O_i is inside an action nested in A and
//                                 starts aborting it
//   NestedCompleted(A, O_i, E)  — abortion finished; E optionally signalled
//   ACK(O_i)                    — acknowledges an Exception/NestedCompleted
//   Commit(E)                   — resolution result, from the chosen object
//
// Every message is scoped to one action *instance* so that messages of
// aborted nested instances can be recognized and discarded, and carries a
// *round* number — our clarification of the paper's "wait until all
// exception messages are handled": within one action instance, resolution
// rounds are numbered, stale-round messages are acknowledged but not
// recorded, and future-round messages are held (action::classify).
#pragma once

#include <cstdint>
#include <variant>

#include "net/message.h"
#include "util/ids.h"
#include "util/status.h"

namespace caa::resolve {

struct ExceptionMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;
  ObjectId raiser;
  ExceptionId exception;
};

struct HaveNestedMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;
  ObjectId sender;
};

struct NestedCompletedMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;
  ObjectId sender;
  ExceptionId signalled;  // invalid() when the abortion signalled nothing
};

struct AckMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;
  ObjectId sender;
};

struct CommitMsg {
  ActionInstanceId scope;
  std::uint32_t round = 0;
  ObjectId resolver;
  ExceptionId resolved;
};

/// One of the five messages above, as the resolution engine takes it.
using ProtocolMsg = std::variant<ExceptionMsg, HaveNestedMsg,
                                 NestedCompletedMsg, AckMsg, CommitMsg>;

/// Crash-tolerance extension (not one of the paper's five): when a member
/// learns that `crashed` failed, it pushes its resolution status for the
/// affected action to every other live member and withholds new Commits
/// until it has heard from each of them. The message carries at most one
/// Commit the sender knows about (pending or already applied) so that a
/// resolution the crashed member helped decide survives it; `commit_*` is
/// empty when `commit_resolved` is invalid. A `kGone` reply (round
/// kGoneRound) means the responder no longer participates in the action.
struct CrashSyncMsg {
  enum class Phase : std::uint8_t { kPush = 0, kReply = 1, kGone = 2 };
  static constexpr std::uint32_t kGoneRound = 0xffffffffu;

  ActionInstanceId scope;
  std::uint32_t round = 0;  // sender's current round (kGoneRound if gone)
  ObjectId sender;
  ObjectId crashed;
  Phase phase = Phase::kPush;
  std::uint32_t commit_round = 0;
  ObjectId commit_resolver;
  ExceptionId commit_resolved;  // invalid() = no commit known
};

/// Coordination-avoidance fast path (src/resolve/avoidance.h; not one of the
/// paper's five). A commutative round is decided by a census at the scope's
/// live leader: raisers report their exception + lattice cover, the leader
/// probes members it has not heard from, idle members answer kNoRaise, busy
/// ones kBusy. A unanimous census commits in one broadcast; anything else
/// broadcasts kFallback and every suppressed raiser replays into the full
/// Exception/ACK exchange. kStale redirects a report from a finished round.
struct FastCoverMsg {
  enum class Phase : std::uint8_t {
    kReport = 0,    // raiser -> leader: exception + universal cover
    kProbe = 1,     // leader -> silent member: raise status?
    kNoRaise = 2,   // member -> leader: idle, not raising this round
    kBusy = 3,      // member -> leader: not eligible (nested/aborting/...)
    kFallback = 4,  // leader -> all: census failed, replay via full exchange
    kCommit = 5,    // leader -> all: unanimous census, resolved locally
    kStale = 6,     // leader -> reporter: round already over, replay
  };

  ActionInstanceId scope;
  std::uint32_t round = 0;
  ObjectId sender;
  Phase phase = Phase::kReport;
  ExceptionId exception;  // kReport/kCommit; invalid() otherwise
  ExceptionId cover;      // kReport: sender's universal cover; else invalid()
};

net::Bytes encode(const ExceptionMsg& m);
net::Bytes encode(const HaveNestedMsg& m);
net::Bytes encode(const NestedCompletedMsg& m);
net::Bytes encode(const AckMsg& m);
net::Bytes encode(const CommitMsg& m);
net::Bytes encode(const CrashSyncMsg& m);
net::Bytes encode(const FastCoverMsg& m);

Result<ExceptionMsg> decode_exception(const net::Bytes& bytes);
Result<HaveNestedMsg> decode_have_nested(const net::Bytes& bytes);
Result<NestedCompletedMsg> decode_nested_completed(const net::Bytes& bytes);
Result<AckMsg> decode_ack(const net::Bytes& bytes);
Result<CommitMsg> decode_commit(const net::Bytes& bytes);
Result<CrashSyncMsg> decode_crash_sync(const net::Bytes& bytes);
Result<FastCoverMsg> decode_fast_cover(const net::Bytes& bytes);
/// Decodes a packet of one of the five resolution kinds by its wire kind;
/// any other kind is an error.
Result<ProtocolMsg> decode_protocol(net::MsgKind kind, const net::Bytes& bytes);

/// Scope and round of any resolution-kind packet, without full decoding.
struct ScopeRound {
  ActionInstanceId scope;
  std::uint32_t round = 0;
};
Result<ScopeRound> peek_scope_round(const net::Bytes& bytes);

}  // namespace caa::resolve
