// Packet and message-kind registry.
//
// The network layer moves opaque, serialized packets between objects; the
// `kind` field classifies them so the accounting layer can reproduce the
// paper's per-message-type counts (§4.4) without inspecting payloads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/wire.h"
#include "util/counters.h"
#include "util/ids.h"

namespace caa::net {

/// A fully qualified object address: the node hosting it plus its object id.
struct Address {
  NodeId node;
  ObjectId object;

  friend bool operator==(const Address&, const Address&) = default;
  friend auto operator<=>(const Address&, const Address&) = default;
};

/// Message kinds. Grouped in bands per module so counter names stay tidy.
/// Kinds 1..15 are transport-internal and excluded from protocol accounting.
enum class MsgKind : std::uint16_t {
  kInvalid = 0,

  // Transport control (never counted as protocol messages).
  kTransportAck = 1,

  // Resolution protocol (§4.2) — the five messages of the paper.
  kException = 100,
  kHaveNested = 101,
  kNestedCompleted = 102,
  kAck = 103,
  kCommit = 104,
  // Coordination-avoidance fast path (src/resolve/avoidance.h): census
  // reports, probes and fast commits for commutative rounds. Resolution-
  // adjacent but deliberately NOT in is_resolution_kind() — the §4.4
  // five-kind totals and the zero-Exception/ACK assertions stay exact.
  kFastCover = 105,

  // CR baseline protocol (§3.3 / [5]).
  kCrRaise = 120,
  kCrCommit = 121,
  kCrAck = 122,

  // Arche-style baseline.
  kArcheReport = 130,
  kArcheConcerted = 131,

  // Centralized resolution strategy (§4.5 alternative).
  kCentralException = 140,
  kCentralFreeze = 141,
  kCentralFrozenAck = 142,
  kCentralCommit = 143,

  // Crash-tolerance extension: survivors synchronize their view of an
  // in-progress resolution when a member is excluded (§4.2 fail-stop).
  kCrashSync = 150,

  // Overlay dissemination envelope: batches relayed protocol messages and
  // aggregated ACK tallies along the committee's spanning tree
  // (src/overlay/). Carries other kinds as payload; counted as its own
  // kind so flat-vs-tree physical message costs are directly comparable.
  kRelay = 160,

  // CA action management (exit synchronization).
  kActionDone = 202,
  kActionLeave = 203,
  // "I applied this scope's final Leave" — drives the leave-record GC
  // (src/exit/leave_log.h). Only sent when WorldConfig.exit_gc is on.
  kActionLeaveAck = 205,

  // Paxos Commit exit protocol (src/exit/paxos_exit.h): each member's
  // Done is a Paxos instance over 2F+1 committee acceptors.
  kPaxosPrepare = 210,   // phase 1a: new exit leader -> acceptors
  kPaxosPromise = 211,   // phase 1b: acceptor -> leader, accepted state
  kPaxosVote = 212,      // phase 2a: voter (ballot 0) or leader -> acceptors
  kPaxosAccepted = 213,  // phase 2b: acceptor -> leader

  // Transactions on external atomic objects.
  kTxnOpRequest = 300,
  kTxnOpReply = 301,
  kTxnPrepare = 302,
  kTxnVote = 303,
  kTxnDecision = 304,
  kTxnDecisionAck = 305,

  // Failure-detection extension.
  kHeartbeat = 500,

  // Application-level messages (examples, workloads).
  kAppData = 1000,
};

/// Human-readable name of a kind (used as counter suffix).
[[nodiscard]] std::string_view kind_name(MsgKind kind);

/// True for the five messages of the paper's resolution algorithm; the
/// benches count exactly these to reproduce §4.4.
[[nodiscard]] bool is_resolution_kind(MsgKind kind);

/// Every kind above, kInvalid excluded, in enum order: the kinds with a
/// kind_name(), whose switch -Wswitch keeps complete.
[[nodiscard]] const std::vector<MsgKind>& all_kinds();

/// Interned counter handles for one message kind's accounting
/// ("net.sent.<Kind>" etc.). Resolved once per kind per process, so the
/// per-packet accounting in Network is a dense increment, not a string
/// build + map lookup.
struct KindCounters {
  CounterId sent;
  CounterId delivered;
  CounterId dropped;
  CounterId duplicated;
};
[[nodiscard]] const KindCounters& kind_counters(MsgKind kind);

/// The unit moved by the network.
struct Packet {
  Address src;
  Address dst;
  MsgKind kind = MsgKind::kInvalid;
  Bytes payload;

  // Transport metadata (reliable-link sequence numbers). Not part of the
  // application payload; set and consumed by the transport.
  std::uint64_t transport_seq = 0;

  // Flight-recorder send record this packet originated from (0 when the
  // recorder is off). Simulation metadata like transport_seq: it rides the
  // in-memory packet so the delivery record can name its causal parent, but
  // it is not wire payload and does not count towards size_on_wire() — the
  // recorder must not move byte counters (zero-drift contract).
  std::uint64_t cause = 0;

  [[nodiscard]] std::size_t size_on_wire() const {
    return payload.size() + 24;  // header estimate: addresses + kind + seq
  }
};

}  // namespace caa::net
